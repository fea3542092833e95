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

type cpuState struct {
	nesting atomic.Int32 // read-side critical section depth
	qsSeq   atomic.Uint64
	idle    atomic.Bool

	//prudence:lockorder 40
	cbMu sync.Mutex
	//prudence:guarded_by cbMu
	cbs  []gsync.Retired
	wake chan struct{}

	// cbCount mirrors len(cbs) for lock-free emptiness checks on the
	// hot quiescent-state path.
	cbCount atomic.Int64
	// qsCalls counts QuiescentState invocations for the periodic
	// scheduler yield (only the owning goroutine touches it).
	qsCalls atomic.Uint32
	// lastInline is the wall time (ns) of the last inline callback
	// batch, enforcing the throttle delay between batches.
	lastInline atomic.Int64
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

	pending  atomic.Int64 // callbacks not yet invoked
	pressure atomic.Bool

	// qsReports is hammered by every QuiescentState on every CPU, so it
	// is per-CPU sharded rather than a shared atomic.
	qsReports        *metrics.Counter
	cbInvoked        atomic.Uint64
	cbQueued         atomic.Uint64
	maxBacklog       atomic.Int64
	expeditedBatches atomic.Uint64
	throttledBatches atomic.Uint64
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
		Backlog:   r.pending.Load,
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
	backlog := cs.cbCount.Load()
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
	batch := r.takeReady(cs, limit)
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
	for i := range batch {
		batch[i].Reclaim()
	}
	r.cbInvoked.Add(uint64(len(batch)))
	r.pending.Add(int64(-len(batch)))
}

// EnterIdle places cpu in the extended quiescent state: the grace-period
// driver treats it as permanently quiescent until ExitIdle. Panics if
// called inside a read-side critical section.
func (r *RCU) EnterIdle(cpu int) {
	cs := r.cpu(cpu)
	if cs.nesting.Load() > 0 {
		panic("rcu: EnterIdle inside read-side critical section")
	}
	cs.idle.Store(true)
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
// path the SLUB-based baseline uses for deferred frees; it enqueues
// with zero allocations.
func (r *RCU) RetireObject(cpu int, rec gsync.Reclaimer, obj any, idx uint64) {
	cs := r.cpu(cpu)
	cb := gsync.Retired{Cookie: r.Snapshot(), Rec: rec, Obj: obj, Idx: idx, CPU: int32(cpu)}
	cs.cbMu.Lock()
	cs.cbs = append(cs.cbs, cb)
	cs.cbMu.Unlock()
	cs.cbCount.Add(1)
	pend := r.pending.Add(1)
	for {
		m := r.maxBacklog.Load()
		if pend <= m || r.maxBacklog.CompareAndSwap(m, pend) {
			break
		}
	}
	r.cbQueued.Add(1)
	r.NeedGP()
	select {
	case cs.wake <- struct{}{}:
	default:
	}
}

// PendingCallbacks returns the number of callbacks queued but not yet
// invoked.
func (r *RCU) PendingCallbacks() int { return int(r.pending.Load()) }

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
	for b.remaining.Load() > 0 {
		// Keep grace periods and processors moving while we wait; a
		// stopping engine drains ready callbacks itself.
		if !r.Sleep(200 * time.Microsecond) {
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
			select {
			case cs.wake <- struct{}{}:
			default:
			}
		}
	}
}

// Stats returns a snapshot of engine counters.
func (r *RCU) Stats() Stats {
	return Stats{
		GPsStarted:       r.gpStarted.Load(),
		GPsCompleted:     r.gpCompleted.Load(),
		CallbacksQueued:  r.cbQueued.Load(),
		CallbacksInvoked: r.cbInvoked.Load(),
		MaxBacklog:       r.maxBacklog.Load(),
		ExpeditedBatches: r.expeditedBatches.Load(),
		ThrottledBatches: r.throttledBatches.Load(),
		QuiescentReports: r.qsReports.Value(),
		SynchronizeCalls: r.SynchronizeCalls(),
	}
}

// RegisterMetrics registers the engine's counters, the live callback
// backlog, and the grace-period latency histogram. Everything except
// the quiescent-report counter is a func-backed read of atomics the
// engine already maintains.
func (r *RCU) RegisterMetrics(reg *metrics.Registry) {
	r.RegisterGPMetrics(reg)
	reg.CounterFunc("prudence_gp_started_total", "Grace periods started.",
		func() float64 { return float64(r.gpStarted.Load()) })
	reg.CounterFunc("prudence_rcu_callbacks_queued_total", "Deferred-free callbacks registered via RetireObject.",
		func() float64 { return float64(r.cbQueued.Load()) })
	reg.CounterFunc("prudence_rcu_callbacks_invoked_total", "Deferred-free callbacks invoked after their grace period.",
		func() float64 { return float64(r.cbInvoked.Load()) })
	reg.GaugeFunc("prudence_rcu_callback_backlog", "Callbacks queued but not yet invoked (reclamation lag).",
		func() float64 { return float64(r.pending.Load()) })
	reg.GaugeFunc("prudence_rcu_callback_backlog_peak", "High-water mark of the callback backlog.",
		func() float64 { return float64(r.maxBacklog.Load()) })
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
			return float64(r.cbInvoked.Load()) / float64(gps)
		})
}

// completeGP publishes the grace period waitForQS observed and wakes
// the callback processors to invoke what it made ready.
func (r *RCU) completeGP() bool {
	r.gpCompleted.Store(r.gpStarted.Load())
	for _, cs := range r.percpu {
		select {
		case cs.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// waitForQS blocks until every CPU has either reported a quiescent state
// for grace period target or been observed idle after the grace period
// started. Returns false if the engine is stopping.
func (r *RCU) waitForQS(target uint64) bool {
	satisfied := make([]bool, len(r.percpu))
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
		if !r.Sleep(r.opts.QSPollInterval) {
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
	for {
		select {
		case <-r.Done():
			r.drainReady(cs)
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
			batch := r.takeReady(cs, limit)
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
			for i := range batch {
				batch[i].Reclaim()
			}
			r.cbInvoked.Add(uint64(len(batch)))
			r.pending.Add(int64(-len(batch)))
			// Throttle between batches: bounds jitter at the cost of
			// processing rate (§3.2). Expedited mode uses the (usually
			// zero) expedited delay instead.
			delay := r.opts.ThrottleDelay
			if expedited {
				delay = r.opts.ExpeditedDelay
			}
			if delay > 0 {
				if !r.Sleep(delay) {
					r.drainReady(cs)
					return
				}
			}
		}
	}
}

// takeReady removes and returns up to limit callbacks from the front of
// cs's queue whose cookies have elapsed. Cookies are monotonic per CPU,
// so the ready callbacks form a prefix.
func (r *RCU) takeReady(cs *cpuState, limit int) []gsync.Retired {
	completed := r.gpCompleted.Load()
	cs.cbMu.Lock()
	defer cs.cbMu.Unlock()
	n := 0
	for n < len(cs.cbs) && n < limit && uint64(cs.cbs[n].Cookie) <= completed {
		n++
	}
	if n == 0 {
		return nil
	}
	batch := make([]gsync.Retired, n)
	copy(batch, cs.cbs[:n])
	cs.cbs = cs.cbs[n:]
	cs.cbCount.Add(int64(-n))
	return batch
}

func (r *RCU) drainReady(cs *cpuState) {
	for {
		batch := r.takeReady(cs, 1<<30)
		if len(batch) == 0 {
			return
		}
		for i := range batch {
			batch[i].Reclaim()
		}
		r.cbInvoked.Add(uint64(len(batch)))
		r.pending.Add(int64(-len(batch)))
	}
}

// DebugState reports per-CPU quiescent bookkeeping for diagnostics.
func (r *RCU) DebugState() string {
	out := fmt.Sprintf("started=%d completed=%d pending=%d pressure=%v |",
		r.gpStarted.Load(), r.gpCompleted.Load(), r.pending.Load(), r.pressure.Load())
	for i, cs := range r.percpu {
		out += fmt.Sprintf(" cpu%d{nest=%d qs=%d idle=%v}", i, cs.nesting.Load(), cs.qsSeq.Load(), cs.idle.Load())
	}
	return out
}
