// Package ebr implements epoch-based reclamation (Fraser-style EBR, one
// of the memory reclamation schemes surveyed by Hart et al., the
// paper's [22]) as a grace-period provider for Prudence, with two
// straggler policies on one engine.
//
// Where internal/rcu detects reader completion through context-switch
// quiescent states, EBR does it through epochs: each CPU entering a
// critical section pins the global epoch it observed; the global epoch
// may advance only when no CPU remains pinned at an older one. A
// deferred object is safe once the global epoch has advanced twice past
// its stamp — readers from the stamp's epoch survive at most one
// advance.
//
// What the advancer does about a straggler — a CPU pinned below the
// current epoch — is the policy, picked by the registered name:
//
//   - "ebr" waits it out, however long it takes. One reader stalled
//     inside a critical section stops reclamation system-wide.
//   - "nebr" is DEBRA+-style neutralization (Brown, arXiv:1712.01044):
//     once an advance has been blocked longer than NeutralizeAfter, the
//     advancer delivers a vcpu interrupt (the signal analogue) whose
//     handler CASes the straggler's pin away and marks the CPU
//     neutralized. The reader learns of it through Neutralized or its
//     next ReadLock and must restart rather than trust what it read
//     after the neutralization. A lost signal (the nebr_neutralize_lost
//     fault point) leaves the pin in place; the next pass retries —
//     degraded progress, never unsafety.
//
// Prudence runs unchanged over either, demonstrating the paper's
// turnkey claim: the allocator needs only the pollable grace-period
// state of sync.Backend, whatever mechanism detects reader completion.
package ebr

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"prudence/internal/fault"
	"prudence/internal/metrics"
	gsync "prudence/internal/sync"
	"prudence/internal/vcpu"
)

// DefaultNeutralizeAfter is the straggler bound the "nebr" registration
// uses: two orders of magnitude above a healthy critical section, so
// only genuinely stalled readers are ever restarted.
const DefaultNeutralizeAfter = 10 * time.Millisecond

// Options configures the epoch engine.
type Options struct {
	// AdvanceInterval is the minimum gap between epoch advances
	// (default 200µs). Two advances make one grace period.
	AdvanceInterval time.Duration
	// PollInterval is how often the advancer re-checks pinned CPUs and
	// the limbo drainer re-checks elapsed cookies (default 20µs).
	PollInterval time.Duration
	// NeutralizeAfter picks the straggler policy: zero waits stragglers
	// out (plain EBR); a positive bound neutralizes CPUs that block an
	// advance for longer than it (DEBRA+).
	NeutralizeAfter time.Duration
	// RetireBatch bounds how many retirements the limbo drainer
	// reclaims per burst (default 32); RetireDelay is the pause between
	// bursts (default 0).
	RetireBatch int
	RetireDelay time.Duration
	// RetireExpeditedBatch and RetireQhimark are the drainer's
	// pressure-scaling knobs (see sync.QueueOptions): the burst bound
	// under pressure or backlog, and the backlog past which batch
	// limits come off and the drainer raises expedited epoch demand.
	RetireExpeditedBatch int
	RetireQhimark        int
}

func init() {
	gsync.Register("ebr", factory(0))
	gsync.Register("nebr", factory(DefaultNeutralizeAfter))
}

func factory(neutralizeAfter time.Duration) gsync.Factory {
	return func(m *vcpu.Machine, o gsync.Options) gsync.Backend {
		return New(m, Options{
			// Two epoch advances make one grace period, so the generic
			// grace-period interval halves into the advance interval.
			AdvanceInterval:      o.GPInterval / 2,
			PollInterval:         o.PollInterval,
			NeutralizeAfter:      neutralizeAfter,
			RetireBatch:          o.RetireBatch,
			RetireDelay:          o.RetireDelay,
			RetireExpeditedBatch: o.ExpeditedBlimit,
			RetireQhimark:        o.Qhimark,
		})
	}
}

func (o Options) withDefaults() Options {
	if o.AdvanceInterval <= 0 {
		o.AdvanceInterval = 200 * time.Microsecond
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Microsecond
	}
	return o
}

// cpuState is one CPU's epoch state, padded to 128 bytes (two cache
// lines, for adjacent-line prefetch): every ReadLock and ReadUnlock
// writes pinned, so neighbouring CPUs' pins must not share a line.
//
//prudence:padded 128
type cpuState struct {
	// pinned is 0 when outside any critical section; when inside, it
	// holds 1 + the global epoch observed at entry. The neutralize
	// handler may CAS it to 0 from under a stalled reader.
	pinned  atomic.Uint64
	nesting int32 // owner-goroutine only
	// neutralized is set by the interrupt handler when the CPU's pin
	// was forcibly cleared; the owner consumes it at its next ReadLock
	// or through Neutralized.
	neutralized atomic.Bool
	// qsCalls counts QuiescentState calls for the periodic scheduler
	// yield (owner-goroutine only; atomic for the race detector).
	qsCalls atomic.Uint32
	_       [128 - 8 /* pinned */ - 4 /* nesting */ - 4 /* neutralized */ - 4 /* qsCalls */ - 4] /* align */ byte
}

// EBR is the epoch engine. Cookies are epochs: Snapshot returns the
// current epoch + 2 and a cookie has elapsed once the global epoch
// reaches it.
type EBR struct {
	gsync.Driver

	machine *vcpu.Machine
	opts    Options
	percpu  []*cpuState
	queue   *gsync.RetireQueue
	// pollTimer paces quiesce's re-checks; only the driver goroutine,
	// which runs quiesce, touches it.
	pollTimer *time.Timer

	epoch atomic.Uint64 // global epoch counter

	neutralizations atomic.Uint64 // interrupts that cleared a pin
	signalsLost     atomic.Uint64 // neutralize signals the fault layer dropped
	restarts        atomic.Uint64 // neutralizations consumed by readers
}

// New creates and starts an epoch engine for machine. With
// neutralization armed, the engine installs itself as each CPU's
// interrupt handler.
func New(machine *vcpu.Machine, opts Options) *EBR {
	e := &EBR{
		machine:   machine,
		opts:      opts.withDefaults(),
		percpu:    make([]*cpuState, machine.NumCPU()),
		pollTimer: gsync.NewSleepTimer(),
	}
	for i := range e.percpu {
		e.percpu[i] = &cpuState{}
		if e.opts.NeutralizeAfter > 0 {
			cpu := i
			machine.SetInterruptOn(cpu, func() { e.neutralize(cpu) })
		}
	}
	e.queue = gsync.NewRetireQueue(e, machine.NumCPU(), gsync.QueueOptions{
		Batch:          e.opts.RetireBatch,
		ExpeditedBatch: e.opts.RetireExpeditedBatch,
		Qhimark:        e.opts.RetireQhimark,
		Delay:          e.opts.RetireDelay,
		Poll:           e.opts.PollInterval,
	})
	e.Start(gsync.Policy{
		Interval: e.opts.AdvanceInterval,
		Snapshot: e.Snapshot,
		Elapsed:  e.Elapsed,
		Backlog:  e.queue.Pending,
		Quiesce:  e.quiesce,
		Advance:  func() bool { return e.epoch.Add(1)%2 == 0 },
		Park:     e.park,
	})
	return e
}

// Stop shuts the engine down, reclaiming already-elapsed retirements,
// and uninstalls its interrupt handlers.
func (e *EBR) Stop() {
	e.Driver.Stop()
	e.queue.Stop()
	if e.opts.NeutralizeAfter > 0 {
		for i := range e.percpu {
			e.machine.SetInterruptOn(i, nil)
		}
	}
}

func (e *EBR) cpu(id int) *cpuState {
	if id < 0 || id >= len(e.percpu) {
		panic(fmt.Sprintf("ebr: CPU id %d out of range [0,%d)", id, len(e.percpu)))
	}
	return e.percpu[id]
}

func (e *EBR) park(cpu int) bool {
	if e.cpu(cpu).nesting > 0 {
		panic("ebr: grace-period wait inside critical section")
	}
	return false
}

// ReadLock begins a read-side critical section on cpu, pinning the
// epoch it observes. Sections may nest. Entering clears a pending
// neutralization mark: the restart it demanded is this very re-entry.
func (e *EBR) ReadLock(cpu int) {
	cs := e.cpu(cpu)
	if cs.nesting == 0 {
		if cs.neutralized.Load() && cs.neutralized.Swap(false) {
			e.restarts.Add(1)
		}
		// Pin-then-recheck: the advancer may pass between our epoch
		// load and the pin store (it would have seen us unpinned). If
		// the epoch moved, re-pin at the new value — nothing has been
		// accessed yet. Once the epoch is stable across the pin, any
		// later advance must see it.
		for {
			cur := e.epoch.Load()
			cs.pinned.Store(1 + cur)
			if e.epoch.Load() == cur {
				break
			}
		}
	}
	cs.nesting++
}

// ReadUnlock ends a read-side critical section on cpu. If the section
// was neutralized mid-flight the pin is already gone; the mark is left
// for Neutralized (or the next ReadLock).
func (e *EBR) ReadUnlock(cpu int) {
	cs := e.cpu(cpu)
	cs.nesting--
	if cs.nesting < 0 {
		panic("ebr: unbalanced ReadUnlock")
	}
	if cs.nesting == 0 {
		// CAS, not Store: racing the neutralize handler, exactly one of
		// us clears the pin, and a pin the handler cleared must not be
		// resurrected here.
		if p := cs.pinned.Load(); p != 0 {
			cs.pinned.CompareAndSwap(p, 0)
		}
	}
}

// Neutralized reports and consumes cpu's neutralization mark. A
// DEBRA+-correct reader polls it after a critical section and restarts
// the operation when it reports true, because protection lapsed at some
// point after entry.
func (e *EBR) Neutralized(cpu int) bool {
	if e.cpu(cpu).neutralized.Swap(false) {
		e.restarts.Add(1)
		return true
	}
	return false
}

// Held reports whether cpu is inside a critical section.
func (e *EBR) Held(cpu int) bool { return e.cpu(cpu).nesting > 0 }

// Epoch returns the current global epoch.
func (e *EBR) Epoch() uint64 { return e.epoch.Load() }

// SafeEpoch returns DEBRA's reclamation frontier: the minimum over the
// global epoch and every pinned CPU's entry epoch. The straggler step
// keeps it within one of the global epoch.
func (e *EBR) SafeEpoch() uint64 {
	min := e.epoch.Load()
	for _, cs := range e.percpu {
		if p := cs.pinned.Load(); p != 0 && p-1 < min {
			min = p - 1
		}
	}
	return min
}

// Neutralizations returns how many pins the engine has forcibly
// cleared.
func (e *EBR) Neutralizations() uint64 { return e.neutralizations.Load() }

// Snapshot returns a grace-period cookie. Readers pinned at the current
// epoch may survive one advance (the advance waits only for CPUs pinned
// at older epochs), so two advances bound their lifetime.
func (e *EBR) Snapshot() gsync.Cookie { return gsync.Cookie(e.epoch.Load() + 2) }

// Elapsed reports whether the cookie's grace period has passed. The
// global epoch alone decides: the straggler step guarantees no CPU
// stays pinned below it.
func (e *EBR) Elapsed(c gsync.Cookie) bool { return e.epoch.Load() >= uint64(c) }

// quiesce is the straggler step: it returns once no CPU is pinned at an
// epoch older than the current one. Plain EBR waits as long as that
// takes; with neutralization armed, CPUs still pinned after
// NeutralizeAfter are interrupted on every pass until their pins clear.
func (e *EBR) quiesce() bool {
	cur := e.epoch.Load()
	straggling := func(cs *cpuState) bool {
		p := cs.pinned.Load()
		return p != 0 && p-1 < cur
	}
	start := time.Now()
	for {
		stragglers := false
		for cpu, cs := range e.percpu {
			if !straggling(cs) {
				continue
			}
			if e.opts.NeutralizeAfter > 0 && time.Since(start) >= e.opts.NeutralizeAfter {
				// Chaos: the neutralize signal is lost in delivery;
				// the straggler stays pinned and the next pass retries.
				//prudence:fault_point
				if fault.Fire(fault.NeutralizeLost) {
					e.signalsLost.Add(1)
				} else {
					e.machine.Interrupt(cpu)
				}
			}
			stragglers = stragglers || straggling(cs)
		}
		if !stragglers {
			return true
		}
		if !e.Sleep(e.pollTimer, e.opts.PollInterval) {
			return false
		}
	}
}

// neutralize is the interrupt handler: the signal analogue that knocks
// a straggler's pin loose. It runs in the advancer's goroutine and
// touches only atomics, as a real signal handler must.
func (e *EBR) neutralize(cpu int) {
	cs := e.cpu(cpu)
	// CAS so a racing fresh re-pin (reader exited and re-entered at the
	// current epoch) is never clobbered — it is not a straggler.
	if p := cs.pinned.Load(); p != 0 && p-1 < e.epoch.Load() && cs.pinned.CompareAndSwap(p, 0) {
		cs.neutralized.Store(true)
		e.neutralizations.Add(1)
	}
}

// QuiescentState contributes nothing to epoch detection (pinning
// observes reader completion), but — exactly as in rcu.QuiescentState —
// it periodically donates the core so the advancer and limbo drainer
// stay scheduled when the host has fewer cores than the machine has
// virtual CPUs (e.g. GOMAXPROCS=1): without the yield, tight workload
// loops starve the advancer and grace periods arrive at the preemption
// quantum instead of the demand rate.
func (e *EBR) QuiescentState(cpu int) {
	if e.cpu(cpu).qsCalls.Add(1)%32 == 0 {
		runtime.Gosched()
	}
}

// EnterIdle is a no-op: an idle CPU is simply one that is not pinned.
func (e *EBR) EnterIdle(cpu int) {}

// ExitIdle is a no-op, mirroring EnterIdle.
func (e *EBR) ExitIdle(cpu int) {}

// RetireObject parks the payload in cpu's retire ring, stamped with the
// current cookie; the drainer reclaims it once two epoch advances have
// passed. The steady-state retire path allocates nothing.
func (e *EBR) RetireObject(cpu int, r gsync.Reclaimer, obj any, idx uint64) {
	e.queue.RetireObject(cpu, r, obj, idx)
}

// Barrier blocks until every retirement accepted before the call has
// been reclaimed (or the engine stopped).
func (e *EBR) Barrier() { e.queue.Barrier() }

// SetPressure expedites limbo draining under memory pressure.
func (e *EBR) SetPressure(under bool) { e.queue.SetPressure(under) }

// RetireBacklog returns the number of retirements awaiting their epoch
// pair.
func (e *EBR) RetireBacklog() int64 { return e.queue.Pending() }

// RegisterMetrics registers the shared prudence_gp_* and retire-queue
// series plus the engine's own under its registered name:
// prudence_ebr_* for plain EBR, prudence_nebr_* with neutralization.
func (e *EBR) RegisterMetrics(reg *metrics.Registry) {
	e.RegisterGPMetrics(reg)
	e.queue.RegisterMetrics(reg)
	p := "prudence_ebr_"
	if e.opts.NeutralizeAfter > 0 {
		p = "prudence_nebr_"
	}
	reg.GaugeFunc(p+"epoch", "Current global epoch.",
		func() float64 { return float64(e.Epoch()) })
	reg.GaugeFunc(p+"pinned_cpus", "CPUs currently pinning an epoch (inside a critical section).",
		func() float64 {
			n := 0
			for _, cs := range e.percpu {
				if cs.pinned.Load() != 0 {
					n++
				}
			}
			return float64(n)
		})
	if e.opts.NeutralizeAfter == 0 {
		return
	}
	reg.GaugeFunc(p+"safe_epoch", "Reclamation frontier: min over the global epoch and pinned entry epochs.",
		func() float64 { return float64(e.SafeEpoch()) })
	reg.CounterFunc(p+"neutralizations_total", "Stalled readers forcibly unpinned by the neutralize signal.",
		func() float64 { return float64(e.neutralizations.Load()) })
	reg.CounterFunc(p+"neutralize_lost_total", "Neutralize signals dropped by fault injection.",
		func() float64 { return float64(e.signalsLost.Load()) })
	reg.CounterFunc(p+"restarts_total", "Neutralization marks consumed by readers (restart points).",
		func() float64 { return float64(e.restarts.Load()) })
	reg.GaugeFunc(p+"retire_backlog", "Retired objects awaiting their epoch pair.",
		func() float64 { return float64(e.queue.Pending()) })
}
