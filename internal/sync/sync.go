// Package sync defines the canonical synchronization-backend surface of
// the repository: one interface every procrastination-based reclamation
// scheme implements, a name-keyed registry through which the facade
// resolves Config.Reclamation, and the scheme-independent machinery the
// backends share.
//
// Backend is the union of the allocator's pollable grace-period state
// (the paper's §4 integration surface), the read-side markers the
// RCU-protected data structures need, and the per-object retirement
// hook (RetireObject/Barrier) that SLUB's deferred frees go through.
// Per-batch schemes (rcu, ebr/nebr) retire into cookie-stamped queues;
// per-pointer schemes (hazard pointers) into retire lists scanned
// against published protections. Both fit behind the same contract: a
// retired object is reclaimed after every reader that could hold it has
// finished.
//
// Every backend embeds a Driver, which owns grace-period demand, pacing,
// the blocking waits, shutdown and the shared prudence_gp_* series; the
// backend supplies only its Policy — what one advance waits for and
// publishes. RetireRing is the per-CPU retirement list: rcu's callback
// lists and the bags of RetireQueue, the drain the epoch engine retires
// through.
//
// Backends self-register from an init function, database/sql style:
//
//	func init() {
//		sync.Register("hp", func(m *vcpu.Machine, o sync.Options) sync.Backend {
//			return New(m, Options{AdvanceInterval: o.GPInterval})
//		})
//	}
//
// so linking a backend package is all it takes to make its name
// resolvable. The facade links all four in-tree schemes ("rcu", "ebr",
// "hp", "nebr").
package sync

import (
	"fmt"
	"sort"
	stdsync "sync"
	"time"

	"prudence/internal/metrics"
	"prudence/internal/vcpu"
)

// Cookie is an opaque grace-period timestamp. Snapshot returns one;
// Elapsed answers whether every reader that existed at Snapshot time has
// finished. Cookies from one backend are meaningless to another, but
// within a backend they are monotone: a later Snapshot never returns a
// smaller cookie, and Elapsed, once true for a cookie, stays true.
type Cookie uint64

// Backend is the full synchronization surface a reclamation scheme
// provides. It is the union of the read-side markers the RCU-protected
// data structures need, the pollable grace-period state the Prudence
// allocator polls (the paper's §4 "turnkey" integration surface), and
// the per-object retirement hook the SLUB baseline's deferred frees go
// through.
//
// Per-CPU calls (ReadLock, QuiescentState, RetireObject, ...) follow the
// repository-wide ownership contract: the caller must own the named
// virtual CPU for the duration of the call.
type Backend interface {
	// ReadLock enters a read-side critical section on cpu. Sections may
	// nest. Objects reachable inside the section are safe from
	// reclamation until the matching ReadUnlock.
	ReadLock(cpu int)
	// ReadUnlock leaves the innermost read-side critical section on cpu.
	ReadUnlock(cpu int)

	// QuiescentState reports a context-switch-equivalent point on cpu.
	// Quiescent-state-based schemes (rcu) use it to detect reader
	// completion; epoch- and pointer-based schemes treat it as a no-op.
	QuiescentState(cpu int)
	// EnterIdle marks cpu idle: an extended quiescent state excluded
	// from grace-period tracking until ExitIdle. No-op for schemes that
	// do not track per-CPU activity.
	EnterIdle(cpu int)
	// ExitIdle marks cpu active again.
	ExitIdle(cpu int)

	// Snapshot returns a cookie that elapses once every reader existing
	// now has finished.
	Snapshot() Cookie
	// Elapsed reports whether the cookie's grace period has passed.
	Elapsed(Cookie) bool
	// NeedGP signals demand for grace-period progress even with no
	// callbacks queued. Backends must tolerate lost wakeups after the
	// demand is recorded (the fault layer's lost_wakeup point): a timer
	// fallback, not the kick, is the liveness guarantee.
	NeedGP()
	// ExpediteGP raises *expedited* grace-period demand: the caller is
	// actively starved (an allocator whose latent merge found nothing
	// elapsed, an OOM-delay wait, a retire backlog past its qhimark) and
	// the backend should drive the next grace period as fast as its
	// safety protocol allows — skipping pacing gaps between advances —
	// instead of at timer cadence. It implies NeedGP. Expedited demand
	// is one-shot: it is consumed when the grace period it hastened
	// completes. The same lost-wakeup tolerance applies: recording the
	// demand, not the kick, is what the liveness guarantee rests on.
	ExpediteGP()
	// WaitElapsedOnTimeout blocks until the cookie elapses, treating
	// the calling CPU as quiescent; it returns false if d passes (or the
	// backend stops) first. The allocator's OOM-delay path relies on the
	// bounded return to degrade to an out-of-memory report instead of a
	// hang.
	//
	//prudence:may_block
	WaitElapsedOnTimeout(cpu int, c Cookie, d time.Duration) bool
	// GPsCompleted counts completed grace periods; it is monotone and
	// gates once-per-grace-period work.
	GPsCompleted() uint64
	// Synchronize blocks until a full grace period has elapsed.
	//
	//prudence:may_block
	Synchronize()
	// SynchronizeOn is Synchronize with the calling CPU treated as
	// quiescent for the duration.
	//
	//prudence:may_block
	SynchronizeOn(cpu int)

	// RetireObject is the per-object retirement hook: once every reader
	// that might hold the object has finished, the backend calls
	// r.ReclaimRetired(cpu, obj, idx) on a goroutine it manages, with
	// the cpu the retirement was enqueued on. rcu maps it to an RCU
	// callback, ebr/nebr to a cookie-stamped limbo entry, hp to a
	// retire-list entry scanned against published hazards. The work is
	// carried as a (Reclaimer, obj, idx) triple rather than a func
	// value so that retiring costs zero allocations per call — the
	// reclamation scheme must not itself generate the garbage it exists
	// to manage.
	RetireObject(cpu int, r Reclaimer, obj any, idx uint64)
	// Barrier blocks until every retirement accepted before the call
	// has been reclaimed (or the backend stopped).
	//
	//prudence:may_block
	Barrier()

	// Stop shuts down the backend's goroutines. Idempotent. Blocked
	// waiters return.
	Stop()
	// Stopped reports whether Stop has begun. Teardown paths that loop
	// on grace-period progress (a cache drain waiting out latent
	// cookies) use it to terminate instead of spinning forever on
	// cookies that can no longer elapse.
	Stopped() bool
	// RegisterMetrics registers the backend's observability series. All
	// backends export the shared prudence_gp_* families so dashboards
	// read identically over any scheme.
	RegisterMetrics(*metrics.Registry)
}

// Reclaimer receives retirements enqueued through Backend.RetireObject
// once their grace period has elapsed. Implementations interpret (obj,
// idx) themselves — the slab allocators pass the slab pointer and the
// object index within it — so the payload stays scheme-agnostic and
// pointer-shaped: storing a pointer in obj and the implementation in
// the interface word allocates nothing.
type Reclaimer interface {
	// ReclaimRetired frees the object identified by (obj, idx). cpu is
	// the CPU the retirement was enqueued on; the call arrives on a
	// backend-managed goroutine that is a cross-CPU visitor, not the
	// CPU's owner.
	ReclaimRetired(cpu int, obj any, idx uint64)
}

// PressureSetter is the optional capability of reacting to memory
// pressure by expediting reclamation (§3.5's kernel behaviour). The
// bench harness wires the page allocator's pressure notification to any
// backend that implements it.
type PressureSetter interface {
	SetPressure(under bool)
}

// Options is the scheme-independent tuning surface a factory receives.
// Zero values mean "backend default". Each factory maps these onto its
// scheme's own knobs (e.g. ebr halves GPInterval into its per-advance
// interval, since two epoch advances make one grace period).
type Options struct {
	// GPInterval is the minimum gap between grace-period boundaries.
	GPInterval time.Duration
	// PollInterval is the backend's internal re-check period for
	// straggler readers and elapsed cookies.
	PollInterval time.Duration
	// RetireBatch bounds how many retired objects are processed per
	// batch (the kernel's blimit analogue).
	RetireBatch int
	// RetireDelay is the pause between retire-processing batches.
	RetireDelay time.Duration
	// ExpeditedBlimit is the retire batch bound under memory pressure or
	// expedited demand (rcu's ExpeditedBlimit analogue).
	ExpeditedBlimit int
	// Qhimark is the retire backlog above which batch limits come off
	// entirely and the queue raises expedited grace-period demand
	// itself (rcu's qhimark analogue). Negative disables the
	// escalation.
	Qhimark int
}

// Factory builds a started backend for machine.
type Factory func(m *vcpu.Machine, o Options) Backend

var (
	registryMu stdsync.Mutex
	registry   = make(map[string]Factory)
)

// Register makes a backend constructible by name. It panics if name is
// empty, factory is nil, or name is already taken — registration
// happens in init functions, where a duplicate is a programming error.
func Register(name string, factory Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" {
		panic("sync: Register with empty backend name")
	}
	if factory == nil {
		panic(fmt.Sprintf("sync: Register(%q) with nil factory", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sync: Register(%q) called twice", name))
	}
	registry[name] = factory
}

// Registered reports whether name resolves to a backend.
func Registered(name string) bool {
	registryMu.Lock()
	defer registryMu.Unlock()
	_, ok := registry[name]
	return ok
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds a started backend by registered name.
func New(name string, m *vcpu.Machine, o Options) (Backend, error) {
	registryMu.Lock()
	factory, ok := registry[name]
	registryMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sync: unknown backend %q (registered: %v)", name, Backends())
	}
	return factory(m, o), nil
}
