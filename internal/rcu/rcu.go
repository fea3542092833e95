// Package rcu implements a Read-Copy-Update grace-period engine over
// virtual CPUs.
//
// It reproduces the properties of the Linux kernel's Tree-RCU that the
// paper's allocator work depends on:
//
//   - Readers delimit read-side critical sections with ReadLock and
//     ReadUnlock, which are wait-free per-CPU counter operations.
//   - A CPU reports a quiescent state whenever it passes a context
//     switch (QuiescentState) or sits in the idle loop (EnterIdle).
//   - A grace period elapses only after every CPU has passed a
//     quiescent state since the grace period started; an object removed
//     before a Snapshot is safe to reclaim once Elapsed(cookie) is true.
//   - Deferred frees can be registered as callbacks (RetireObject),
//     which a per-CPU processor invokes *after* a grace period, in
//     batches limited by Blimit with a delay between batches. This batching and
//     throttling is exactly the mechanism that induces the extended
//     object lifetimes of §3.2: objects are safe long before the
//     processor gets to them.
//   - Under memory pressure the processor expedites (larger batches,
//     no inter-batch delay) just like the kernel behaviour visible at
//     ~70s in the paper's Figure 3 — and, like the kernel, a sufficient
//     deferred-free rate still outruns it.
//
// The allocator-facing integration surface the paper adds to RCU is the
// pollable grace-period state: Snapshot returns a cookie that Prudence
// stamps on each deferred object, and Elapsed(cookie) tells the
// allocator when that object's readers are guaranteed gone.
package rcu

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prudence/internal/fault"
	"prudence/internal/metrics"
	gsync "prudence/internal/sync"
	"prudence/internal/vcpu"
)

func init() {
	gsync.Register("rcu", func(m *vcpu.Machine, o gsync.Options) gsync.Backend {
		return New(m, Options{
			Blimit:          o.RetireBatch,
			ExpeditedBlimit: o.ExpeditedBlimit,
			Qhimark:         o.Qhimark,
			ThrottleDelay:   o.RetireDelay,
			MinGPInterval:   o.GPInterval,
			QSPollInterval:  o.PollInterval,
		})
	})
}

// Options configures the engine. Zero fields take defaults.
type Options struct {
	// Blimit is the maximum number of callbacks invoked per processor
	// batch (Linux's rcu blimit; default 10).
	Blimit int
	// ExpeditedBlimit is the batch size used under memory pressure
	// (default 100).
	ExpeditedBlimit int
	// ThrottleDelay is the pause between callback batches on a CPU
	// (default 100µs). Together with Blimit it bounds the deferred-free
	// processing rate — the throttling of §3.2/§3.3.
	ThrottleDelay time.Duration
	// ExpeditedDelay is the pause between batches while under memory
	// pressure. The default 0 lets expedited processing run flat out;
	// the endurance experiment sets it non-zero to reproduce the
	// kernel behaviour in Figure 3 where expediting raises but still
	// bounds the processing rate ("Despite this, RCU fails to keep
	// up").
	ExpeditedDelay time.Duration
	// Qhimark is the per-CPU callback backlog above which batch limits
	// come off entirely (the kernel's qhimark, default 10000): a CPU
	// that has fallen this far behind processes its whole ready list at
	// its next quiescent state. Set negative to disable (used by the
	// Figure 3 endurance configuration to model the deployed throttling
	// the paper measured against).
	Qhimark int
	// MinGPInterval is the minimum gap between consecutive grace-period
	// starts (default 200µs). Real grace periods take milliseconds; this
	// keeps thousands of updates per grace period, as §3.1 describes.
	MinGPInterval time.Duration
	// QSPollInterval is how often the grace-period driver re-checks
	// per-CPU quiescent states (default 20µs).
	QSPollInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Blimit <= 0 {
		o.Blimit = 10
	}
	if o.ExpeditedBlimit <= 0 {
		o.ExpeditedBlimit = 100
	}
	if o.ThrottleDelay <= 0 {
		o.ThrottleDelay = 100 * time.Microsecond
	}
	if o.Qhimark == 0 {
		o.Qhimark = 10000
	}
	if o.MinGPInterval <= 0 {
		o.MinGPInterval = 200 * time.Microsecond
	}
	if o.QSPollInterval <= 0 {
		o.QSPollInterval = 20 * time.Microsecond
	}
	return o
}

// Stats counts engine activity.
type Stats struct {
	GPsStarted       uint64
	GPsCompleted     uint64
	CallbacksQueued  uint64
	CallbacksInvoked uint64
	MaxBacklog       int64 // high-water mark of pending callbacks
	ExpeditedBatches uint64
	ThrottledBatches uint64
	QuiescentReports uint64
	SynchronizeCalls uint64
}

// cpuState is one CPU's engine state: its callback ring in the first
// 128 bytes, the owner's read-side and quiescent-state bookkeeping in
// the second, so no field shares a cache line with another CPU's.
//
//prudence:padded 256
type cpuState struct {
	// cbs is the CPU's callback list. RetireObject appends to it; the
	// owner's quiescent states and the callback processor take its
	// ready prefix.
	cbs gsync.RetireRing

	nesting atomic.Int32 // read-side critical section depth
	idle    atomic.Bool
	// qsCalls counts QuiescentState invocations for the periodic
	// scheduler yield (only the owning goroutine touches it).
	qsCalls atomic.Uint32
	qsSeq   atomic.Uint64
	// lastInline is the wall time (ns) of the last inline callback
	// batch, enforcing the throttle delay between batches.
	lastInline atomic.Int64
	// wake kicks the callback processor.
	wake chan struct{}
	// inline is the owner's scratch for inline callback batches.
	inline []gsync.Retired
	_      [128 - 4 /* nesting */ - 4 /* idle */ - 4 /* qsCalls */ - 4 /* align */ - 8 /* qsSeq */ - 8 /* lastInline */ - 8 /* wake */ - 24] /* inline */ byte
}

// RCU is the grace-period engine. All methods are safe for concurrent
// use subject to the per-CPU ownership contract: ReadLock, ReadUnlock,
// QuiescentState, EnterIdle and ExitIdle for a given CPU must be called
// from the goroutine owning that CPU.
type RCU struct {
	gsync.Driver

	machine *vcpu.Machine
	opts    Options
	percpu  []*cpuState
	procs   sync.WaitGroup // callback processors

	gpStarted   atomic.Uint64
	gpCompleted atomic.Uint64

	pressure atomic.Bool

	// qsReports is hammered by every QuiescentState on every CPU, so it
	// is per-CPU sharded rather than a shared atomic. The callback
	// counts live in the per-CPU rings for the same reason; the engine
	// totals are sums over them.
	qsReports *metrics.Counter
	// maxBacklog is the callback backlog's high-water mark, sampled at
	// every grace-period completion and every read rather than on every
	// RetireObject.
	maxBacklog       atomic.Int64
	expeditedBatches atomic.Uint64
	throttledBatches atomic.Uint64

	// qsDone and qsTimer are waitForQS's per-CPU marks and poll timer;
	// only the driver goroutine, which runs waitForQS, touches them.
	qsDone  []bool
	qsTimer *time.Timer
}

// New creates and starts an engine for machine. All CPUs begin in the
// idle (extended quiescent) state; workloads call ExitIdle before
// entering read-side critical sections and EnterIdle when done.
func New(machine *vcpu.Machine, opts Options) *RCU {
	r := &RCU{
		machine:   machine,
		opts:      opts.withDefaults(),
		percpu:    make([]*cpuState, machine.NumCPU()),
		qsReports: metrics.NewCounter(machine.NumCPU()),
		qsDone:    make([]bool, machine.NumCPU()),
		qsTimer:   gsync.NewSleepTimer(),
	}
	for i := range r.percpu {
		cs := &cpuState{wake: make(chan struct{}, 1)}
		cs.idle.Store(true)
		r.percpu[i] = cs
	}
	r.Start(gsync.Policy{
		Interval: r.opts.MinGPInterval,
		WholeGap: true,
		Snapshot: r.Snapshot,
		Elapsed:  r.Elapsed,
		// Queued callbacks are demand; under memory pressure grace
		// periods run back to back.
		Backlog:   r.backlog,
		Expedited: r.pressure.Load,
		Quiesce:   func() bool { return r.waitForQS(r.gpStarted.Add(1)) },
		Advance:   r.completeGP,
		Park:      r.park,
		Unpark:    func(cpu int, wasIdle bool) { r.cpu(cpu).idle.Store(wasIdle) },
	})
	for i := range r.percpu {
		r.procs.Add(1)
		go r.cbProcessor(i)
	}
	return r
}

// Stop shuts the engine down. Pending callbacks are drained best-effort:
// callbacks whose grace period has already elapsed are invoked; others
// are dropped. Stop is idempotent.
func (r *RCU) Stop() {
	r.Driver.Stop()
	r.procs.Wait()
}

func (r *RCU) cpu(id int) *cpuState {
	if id < 0 || id >= len(r.percpu) {
		panic(fmt.Sprintf("rcu: CPU id %d out of range [0,%d)", id, len(r.percpu)))
	}
	return r.percpu[id]
}

// ReadLock enters a read-side critical section on cpu.
func (r *RCU) ReadLock(cpu int) {
	r.cpu(cpu).nesting.Add(1)
}

// ReadUnlock exits a read-side critical section on cpu.
func (r *RCU) ReadUnlock(cpu int) {
	if n := r.cpu(cpu).nesting.Add(-1); n < 0 {
		panic("rcu: unbalanced ReadUnlock")
	}
}

// ReadHeld reports whether cpu is inside a read-side critical section.
func (r *RCU) ReadHeld(cpu int) bool {
	return r.cpu(cpu).nesting.Load() > 0
}

// QuiescentState reports a quiescent state on cpu (the analogue of a
// context switch). It is a no-op inside a read-side critical section.
//
// Like the kernel, callback processing rides the quiescent points of
// the CPU that queued the callbacks (RCU softirq at the context
// switch/tick): if ready callbacks exist and the throttle delay has
// passed since the last batch, up to Blimit of them are invoked here,
// on the owning CPU's own time. This is what makes the baseline pay
// for deferred-free processing with workload cycles, as it does on
// real hardware.
func (r *RCU) QuiescentState(cpu int) {
	cs := r.cpu(cpu)
	if cs.nesting.Load() > 0 {
		return
	}
	cs.qsSeq.Store(r.gpStarted.Load())
	r.qsReports.Inc(cpu)
	r.runInlineCallbacks(cs)
	// A context switch yields the CPU. Donating the core periodically
	// keeps the grace-period driver and background workers scheduled
	// even when the host has fewer cores than the machine has virtual
	// CPUs (e.g. GOMAXPROCS=1), where tight workload loops would
	// otherwise starve them.
	if cs.qsCalls.Add(1)%32 == 0 {
		runtime.Gosched()
	}
}

// runInlineCallbacks invokes one throttled batch of ready callbacks on
// the caller (the CPU's owning goroutine).
func (r *RCU) runInlineCallbacks(cs *cpuState) {
	backlog := cs.cbs.Len()
	if backlog == 0 {
		return
	}
	// Over qhimark the CPU has fallen badly behind: the kernel removes
	// the batch limit and drains everything ready.
	expedited := r.pressure.Load() || (r.opts.Qhimark > 0 && backlog > int64(r.opts.Qhimark))
	now := time.Now().UnixNano()
	if !expedited {
		last := cs.lastInline.Load()
		if now-last < int64(r.opts.ThrottleDelay) || !cs.lastInline.CompareAndSwap(last, now) {
			return
		}
	} else if d := int64(r.opts.ExpeditedDelay); d > 0 {
		last := cs.lastInline.Load()
		if now-last < d || !cs.lastInline.CompareAndSwap(last, now) {
			return
		}
	}
	limit := r.opts.Blimit
	if expedited {
		limit = r.opts.ExpeditedBlimit
	}
	if r.opts.Qhimark > 0 && backlog > int64(r.opts.Qhimark) {
		limit = int(backlog) // drain everything ready
	}
	batch := cs.cbs.TakeReady(cs.inline, limit, r)
	cs.inline = batch
	if len(batch) == 0 {
		return
	}
	if expedited {
		r.expeditedBatches.Add(1)
	} else {
		r.throttledBatches.Add(1)
	}
	// Chaos: delay callback invocation (objects stay latent longer).
	//prudence:fault_point
	fault.Sleep(fault.CBDelay)
	invoke(cs, batch)
}

// invoke runs a batch taken from cs's ring and reports it done.
func invoke(cs *cpuState, batch []gsync.Retired) {
	for i := range batch {
		batch[i].Reclaim()
	}
	clear(batch) // the scratch must not keep payloads alive
	cs.cbs.Done(len(batch))
}

// EnterIdle places cpu in the extended quiescent state: the grace-period
// driver treats it as permanently quiescent until ExitIdle. Panics if
// called inside a read-side critical section. Callbacks still queued
// pass to the callback processor, which works only for idle CPUs.
func (r *RCU) EnterIdle(cpu int) {
	cs := r.cpu(cpu)
	if cs.nesting.Load() > 0 {
		panic("rcu: EnterIdle inside read-side critical section")
	}
	cs.idle.Store(true)
	// Loaded after the idle store, as RetireObject loads idle after its
	// push: whichever of two racing calls runs second sees the other's
	// write, so a callback is never left with nobody to wake for it.
	if cs.cbs.Len() > 0 {
		wake(cs)
	}
}

// ExitIdle removes cpu from the extended quiescent state.
func (r *RCU) ExitIdle(cpu int) {
	r.cpu(cpu).idle.Store(false)
}

// Snapshot returns a cookie that elapses once every reader existing now
// has finished. This is the grace-period state the paper's modified
// synchronization mechanism exposes to the allocator (§4, requirement
// ii).
func (r *RCU) Snapshot() gsync.Cookie {
	// A grace period currently in progress may have started before the
	// caller's removal, so a full new grace period is required: cookie
	// is one past the last started GP.
	return gsync.Cookie(r.gpStarted.Load() + 1)
}

// Elapsed reports whether a full grace period has elapsed since the
// cookie was taken.
func (r *RCU) Elapsed(c gsync.Cookie) bool {
	return r.gpCompleted.Load() >= uint64(c)
}

// park treats a CPU whose owner blocks in a grace-period wait as idle
// for the duration (the caller is blocked, which is a context switch),
// so the grace period it waits for can complete; it returns the idle
// state to restore.
func (r *RCU) park(cpu int) bool {
	cs := r.cpu(cpu)
	if cs.nesting.Load() > 0 {
		panic("rcu: grace-period wait inside read-side critical section")
	}
	wasIdle := cs.idle.Load()
	cs.idle.Store(true)
	return wasIdle
}

// RetireObject registers an RCU callback carrying the (reclaimer, obj,
// idx) payload, invoked on cpu's callback processor (or at cpu's
// quiescent states) after a grace period elapses. This is the Listing 1
// path the SLUB-based baseline uses for deferred frees. Like the
// kernel's call_rcu it is an append to a per-CPU list: it writes only
// cpu's own ring and allocates nothing once the ring is warm. It wakes
// the callback processor only when the processor has work it may do —
// cpu idle, or memory pressure on; a busy CPU invokes its own
// callbacks at its quiescent states.
func (r *RCU) RetireObject(cpu int, rec gsync.Reclaimer, obj any, idx uint64) {
	cs := r.cpu(cpu)
	cs.cbs.Push(gsync.Retired{Cookie: r.Snapshot(), Rec: rec, Obj: obj, Idx: idx, CPU: int32(cpu)})
	r.NeedGP()
	if cs.idle.Load() || r.pressure.Load() {
		wake(cs)
	}
}

// wake kicks cs's callback processor.
func wake(cs *cpuState) {
	select {
	case cs.wake <- struct{}{}:
	default:
	}
}

// PendingCallbacks returns the number of callbacks queued but not yet
// invoked.
func (r *RCU) PendingCallbacks() int { return int(r.backlog()) }

// backlog sums the per-CPU callbacks queued but not yet invoked.
func (r *RCU) backlog() int64 {
	var n int64
	for _, cs := range r.percpu {
		n += cs.cbs.Pending()
	}
	return n
}

// sampleBacklog folds the current backlog into the high-water mark and
// returns the mark.
func (r *RCU) sampleBacklog() int64 {
	n := r.backlog()
	for {
		m := r.maxBacklog.Load()
		if n <= m {
			return m
		}
		if r.maxBacklog.CompareAndSwap(m, n) {
			return n
		}
	}
}

// callbackTotals sums the per-CPU callbacks ever queued and invoked.
func (r *RCU) callbackTotals() (queued, invoked uint64) {
	for _, cs := range r.percpu {
		invoked += cs.cbs.Invoked()
		queued += cs.cbs.Queued()
	}
	return queued, invoked
}

// barrier counts down as its per-CPU sentinel callbacks run.
type barrier struct{ remaining atomic.Int64 }

func (b *barrier) ReclaimRetired(int, any, uint64) { b.remaining.Add(-1) }

// Barrier blocks until every callback queued before the call has been
// invoked — the rcu_barrier() analogue. It works by enqueueing a
// sentinel callback on every CPU (callbacks are per-CPU FIFO) and
// waiting for all sentinels to run.
func (r *RCU) Barrier() {
	// The sentinels decrement an atomic the caller polls. No waiter
	// goroutine: a helper blocked in wg.Wait would leak if the engine
	// stopped with a sentinel's grace period still outstanding (Stop
	// drops unelapsed callbacks, so the sentinel would never run).
	b := &barrier{}
	b.remaining.Store(int64(len(r.percpu)))
	for cpu := range r.percpu {
		r.RetireObject(cpu, b, nil, 0)
	}
	poll := gsync.NewSleepTimer()
	defer poll.Stop()
	for b.remaining.Load() > 0 {
		// Keep grace periods and processors moving while we wait; a
		// stopping engine drains ready callbacks itself.
		for _, cs := range r.percpu {
			wake(cs)
		}
		if !r.Sleep(poll, 200*time.Microsecond) {
			return
		}
		r.NeedGP()
	}
}

// SetPressure switches expedited callback processing on or off. Wire it
// to pagealloc.Allocator.OnPressure.
func (r *RCU) SetPressure(under bool) {
	r.pressure.Store(under)
	if under {
		// Kick everything: the processors to drain, the driver to run
		// grace periods back to back.
		r.ExpediteGP()
		for _, cs := range r.percpu {
			wake(cs)
		}
	}
}

// Stats returns a snapshot of engine counters.
func (r *RCU) Stats() Stats {
	queued, invoked := r.callbackTotals()
	return Stats{
		GPsStarted:       r.gpStarted.Load(),
		GPsCompleted:     r.gpCompleted.Load(),
		CallbacksQueued:  queued,
		CallbacksInvoked: invoked,
		MaxBacklog:       r.sampleBacklog(),
		ExpeditedBatches: r.expeditedBatches.Load(),
		ThrottledBatches: r.throttledBatches.Load(),
		QuiescentReports: r.qsReports.Value(),
		SynchronizeCalls: r.SynchronizeCalls(),
	}
}

// RegisterMetrics registers the engine's counters, the live callback
// backlog, and the grace-period latency histogram. Everything except
// the quiescent-report counter is a func-backed read of atomics the
// engine already maintains (the callback series sum the per-CPU rings).
func (r *RCU) RegisterMetrics(reg *metrics.Registry) {
	r.RegisterGPMetrics(reg)
	reg.CounterFunc("prudence_gp_started_total", "Grace periods started.",
		func() float64 { return float64(r.gpStarted.Load()) })
	reg.CounterFunc("prudence_rcu_callbacks_queued_total", "Deferred-free callbacks registered via RetireObject.",
		func() float64 { q, _ := r.callbackTotals(); return float64(q) })
	reg.CounterFunc("prudence_rcu_callbacks_invoked_total", "Deferred-free callbacks invoked after their grace period.",
		func() float64 { _, i := r.callbackTotals(); return float64(i) })
	reg.GaugeFunc("prudence_rcu_callback_backlog", "Callbacks queued but not yet invoked (reclamation lag).",
		func() float64 { return float64(r.backlog()) })
	reg.GaugeFunc("prudence_rcu_callback_backlog_peak", "High-water mark of the callback backlog, sampled at grace-period completions and reads.",
		func() float64 { return float64(r.sampleBacklog()) })
	reg.CounterFunc("prudence_rcu_expedited_batches_total", "Callback batches run expedited under memory pressure.",
		func() float64 { return float64(r.expeditedBatches.Load()) })
	reg.CounterFunc("prudence_rcu_throttled_batches_total", "Callback batches run at the throttled rate.",
		func() float64 { return float64(r.throttledBatches.Load()) })
	reg.RegisterCounter("prudence_rcu_quiescent_reports_total",
		"Quiescent states reported (context switches observed).", r.qsReports)
	reg.CounterFunc("prudence_rcu_synchronize_calls_total", "Blocking Synchronize calls.",
		func() float64 { return float64(r.SynchronizeCalls()) })
	reg.GaugeFunc("prudence_rcu_callbacks_per_gp", "Mean callbacks invoked per completed grace period.",
		func() float64 {
			gps := r.gpCompleted.Load()
			if gps == 0 {
				return 0
			}
			_, invoked := r.callbackTotals()
			return float64(invoked) / float64(gps)
		})
}

// completeGP publishes the grace period waitForQS observed and wakes
// the callback processors to invoke what it made ready. The backlog
// peak is sampled first, while the period's callbacks are all still
// queued.
func (r *RCU) completeGP() bool {
	r.sampleBacklog()
	r.gpCompleted.Store(r.gpStarted.Load())
	for _, cs := range r.percpu {
		wake(cs)
	}
	return true
}

// waitForQS blocks until every CPU has either reported a quiescent state
// for grace period target or been observed idle after the grace period
// started. Returns false if the engine is stopping.
func (r *RCU) waitForQS(target uint64) bool {
	satisfied := r.qsDone
	clear(satisfied)
	remaining := len(r.percpu)
	for remaining > 0 {
		for i, cs := range r.percpu {
			if satisfied[i] {
				continue
			}
			// A CPU idle now has no readers predating the GP start:
			// read-side critical sections cannot span idle.
			if cs.idle.Load() && cs.nesting.Load() == 0 {
				satisfied[i] = true
				remaining--
				continue
			}
			if cs.qsSeq.Load() >= target {
				satisfied[i] = true
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		if !r.Sleep(r.qsTimer, r.opts.QSPollInterval) {
			return false
		}
	}
	return true
}

// cbProcessor is the rcuo offload-thread analogue for one CPU: it
// invokes ready callbacks only while the CPU is otherwise idle (an
// active CPU processes its own callbacks inline at quiescent states).
// Batches are blimit-bounded with a delay in between; this deliberately
// bounded processing rate is what the paper identifies as the source of
// extended object lifetimes.
func (r *RCU) cbProcessor(cpu int) {
	defer r.procs.Done()
	cs := r.percpu[cpu]
	timer := gsync.NewSleepTimer()
	defer timer.Stop()
	var batch []gsync.Retired // reused across batches
	for {
		select {
		case <-r.Done():
			r.drainReady(cs, batch)
			return
		case <-cs.wake:
		}
		for {
			if !cs.idle.Load() && !r.pressure.Load() {
				// The owning goroutine is active; it will process its
				// callbacks at its own quiescent points.
				break
			}
			expedited := r.pressure.Load()
			limit := r.opts.Blimit
			if expedited {
				limit = r.opts.ExpeditedBlimit
			}
			batch = cs.cbs.TakeReady(batch, limit, r)
			if len(batch) == 0 {
				break
			}
			if expedited {
				r.expeditedBatches.Add(1)
			} else {
				r.throttledBatches.Add(1)
			}
			// Chaos: delay offloaded callback invocation.
			//prudence:fault_point
			fault.Sleep(fault.CBDelay)
			invoke(cs, batch)
			// Throttle between batches: bounds jitter at the cost of
			// processing rate (§3.2). Expedited mode uses the (usually
			// zero) expedited delay instead.
			delay := r.opts.ThrottleDelay
			if expedited {
				delay = r.opts.ExpeditedDelay
			}
			if delay > 0 {
				if !r.Sleep(timer, delay) {
					r.drainReady(cs, batch)
					return
				}
			}
		}
	}
}

// drainReady invokes every ready callback on cs, using scratch as the
// batch buffer.
func (r *RCU) drainReady(cs *cpuState, scratch []gsync.Retired) {
	for {
		scratch = cs.cbs.TakeReady(scratch, math.MaxInt, r)
		if len(scratch) == 0 {
			return
		}
		invoke(cs, scratch)
	}
}

// DebugState reports per-CPU quiescent bookkeeping for diagnostics.
func (r *RCU) DebugState() string {
	out := fmt.Sprintf("started=%d completed=%d pending=%d pressure=%v |",
		r.gpStarted.Load(), r.gpCompleted.Load(), r.backlog(), r.pressure.Load())
	for i, cs := range r.percpu {
		out += fmt.Sprintf(" cpu%d{nest=%d qs=%d idle=%v}", i, cs.nesting.Load(), cs.qsSeq.Load(), cs.idle.Load())
	}
	return out
}
