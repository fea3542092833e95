// Package fault is a deterministic, seed-driven fault-injection layer.
//
// Call sites in the allocator name a Point and ask the package whether
// the fault fires there:
//
//	if fault.Fire(fault.RefillFail) { // behave as if the refill failed
//
// With no injector installed (the default), Fire is one atomic pointer
// load returning false — the hot paths pay nothing measurable. A chaos
// run installs an Injector with Enable(Config{Seed: ...}); from then on
// every decision is a pure function of (seed, point, arrival index), so
// the Nth arrival at a given point gets the same verdict on every run
// with that seed, regardless of goroutine interleaving. That is the
// replay contract: a failing seed reproduces the same per-point
// injection schedule. (The *global* interleaving of arrivals across
// points is scheduler-dependent and is deliberately not part of the
// contract; see DESIGN.md §9.)
//
// Points that model latency rather than outright failure carry a Delay
// in their Rule; use Sleep (blocking) or FireDelay (for call sites that
// must keep selecting on a stop channel while stalled).
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prudence/internal/metrics"
)

// Point names one injection site class threaded through the allocator.
type Point uint8

const (
	// PageAllocFail forces pagealloc.Alloc/AllocZeroed to report
	// ErrOutOfMemory without consulting the free lists.
	PageAllocFail Point = iota
	// PageZeroDelay delays the idle pre-zeroing worker before it checks
	// out a dirty block, starving the known-zero pool.
	PageZeroDelay
	// PageZeroStall stalls the zeroer while a block is checked out
	// (zeroInFlight held), widening the window in which allocation sees
	// free memory that is temporarily unavailable.
	PageZeroStall
	// GPStall delays an advance in the grace-period driver every
	// backend shares: the scheme's safety wait is over but the publish
	// is withheld.
	GPStall
	// CBDelay delays invocation of ready callback batches.
	CBDelay
	// LostWakeup drops the wakeup kick that NeedGP/ExpediteGP send to
	// the grace-period driver, leaving only the timer fallback.
	LostWakeup
	// RefillFail forces a per-CPU cache/slab refill attempt to fail.
	RefillFail
	// LatentFlushDelay delays the pre-flush of latent objects back to
	// their slabs.
	LatentFlushDelay
	// OOMDelayExpire forces an OOM-delay grace-period wait to behave as
	// if it timed out without a grace period elapsing.
	OOMDelayExpire
	// HPScanDelay stalls a hazard-pointer scan-and-reclaim pass before
	// it collects the published protections, extending retire-list
	// residency.
	HPScanDelay
	// NeutralizeLost drops a neutralize signal the nebr advancer would
	// have sent to a straggler CPU; the advancer must retry rather than
	// advance unsafely or hang.
	NeutralizeLost

	// NumPoints is the number of defined points.
	NumPoints
)

var pointNames = [NumPoints]string{
	PageAllocFail:    "page_alloc_fail",
	PageZeroDelay:    "page_zero_delay",
	PageZeroStall:    "page_zero_stall",
	GPStall:          "gp_stall",
	CBDelay:          "cb_delay",
	LostWakeup:       "lost_wakeup",
	RefillFail:       "refill_fail",
	LatentFlushDelay: "latent_flush_delay",
	OOMDelayExpire:   "oom_delay_expire",
	HPScanDelay:      "hp_scan_delay",
	NeutralizeLost:   "nebr_neutralize_lost",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// PointByName resolves a point from its metric/CLI name.
func PointByName(name string) (Point, bool) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), true
		}
	}
	return 0, false
}

// Rule configures one point. Rate is the probability in [0,1] that an
// arrival fires; Max, when non-zero, caps the total number of firings;
// Delay is the stall length for latency-modelling points (Sleep /
// FireDelay call sites) and ignored by plain Fire sites.
type Rule struct {
	Rate  float64
	Max   uint64
	Delay time.Duration
}

// Config seeds an injector. Points absent from Rules never fire and do
// not count arrivals.
type Config struct {
	Seed  uint64
	Rules map[Point]Rule
	// LogLimit bounds the injection event log (default 4096 events;
	// negative disables logging).
	LogLimit int
}

// Event records one firing: the Nth arrival (0-based) at Point fired.
type Event struct {
	Point   Point
	Arrival uint64
}

type pointState struct {
	threshold uint64 // fire iff hash < threshold; 0 = never
	max       uint64 // 0 = unlimited
	delay     time.Duration
	arrivals  atomic.Uint64
	fired     atomic.Uint64
}

// Injector holds the seeded schedule and per-point counters for one
// chaos run.
type Injector struct {
	seed     uint64
	points   [NumPoints]pointState
	logLimit int
	logMu    sync.Mutex
	log      []Event
	lost     atomic.Uint64 // firings dropped from the log by LogLimit
}

// active is the package-level gate: nil means disabled and makes every
// Fire a single atomic load.
var active atomic.Pointer[Injector]

// Enable installs a fresh injector built from cfg and returns it. Any
// previously active injector is replaced; its counters stay readable.
func Enable(cfg Config) *Injector {
	inj := New(cfg)
	active.Store(inj)
	return inj
}

// Disable removes the active injector; all points go back to no-ops.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Current returns the active injector, or nil.
func Current() *Injector { return active.Load() }

// New builds an injector without installing it (tests drive decisions
// directly; Enable is the production path).
func New(cfg Config) *Injector {
	inj := &Injector{seed: cfg.Seed, logLimit: cfg.LogLimit}
	if inj.logLimit == 0 {
		inj.logLimit = 4096
	}
	for p, r := range cfg.Rules {
		if int(p) >= int(NumPoints) {
			continue
		}
		ps := &inj.points[p]
		ps.threshold = rateThreshold(r.Rate)
		ps.max = r.Max
		ps.delay = r.Delay
	}
	return inj
}

// rateThreshold maps a probability to a uint64 comparison threshold.
func rateThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// Fire reports whether point p's fault fires for this arrival. The
// disabled path is one atomic load.
func Fire(p Point) bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	return inj.fire(p)
}

// FireDelay is Fire for latency points: it returns the configured stall
// length when the fault fires and 0 otherwise, letting call sites that
// must watch a stop channel implement the stall themselves.
func FireDelay(p Point) time.Duration {
	inj := active.Load()
	if inj == nil {
		return 0
	}
	if !inj.fire(p) {
		return 0
	}
	return inj.points[p].delay
}

// Sleep blocks for the point's configured delay when the fault fires.
func Sleep(p Point) {
	if d := FireDelay(p); d > 0 {
		time.Sleep(d)
	}
}

func (i *Injector) fire(p Point) bool {
	ps := &i.points[p]
	if ps.threshold == 0 {
		return false // unconfigured points don't even count arrivals
	}
	n := ps.arrivals.Add(1) - 1
	if !Decide(i.seed, p, n, ps.threshold) {
		return false
	}
	if ps.max > 0 {
		for {
			f := ps.fired.Load()
			if f >= ps.max {
				return false
			}
			if ps.fired.CompareAndSwap(f, f+1) {
				break
			}
		}
	} else {
		ps.fired.Add(1)
	}
	i.record(p, n)
	return true
}

func (i *Injector) record(p Point, arrival uint64) {
	if i.logLimit < 0 {
		return
	}
	i.logMu.Lock()
	if len(i.log) < i.logLimit {
		i.log = append(i.log, Event{Point: p, Arrival: arrival})
	} else {
		i.lost.Add(1)
	}
	i.logMu.Unlock()
}

// Decide is the pure decision function: whether the Nth arrival at p
// fires under seed, given the point's rate threshold. Exposed so tests
// and the replay harness can recompute the schedule without running the
// system.
func Decide(seed uint64, p Point, n, threshold uint64) bool {
	if threshold == 0 {
		return false
	}
	if threshold == ^uint64(0) {
		return true
	}
	return mix(seed^mix(uint64(p)+1)^mix(n+0x9e3779b97f4a7c15)) < threshold
}

// mix is splitmix64's finalizer: a fast, well-distributed 64-bit hash.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seed returns the injector's seed.
func (i *Injector) Seed() uint64 { return i.seed }

// Arrivals returns how many times point p was reached.
func (i *Injector) Arrivals(p Point) uint64 { return i.points[p].arrivals.Load() }

// Fired returns how many times point p's fault fired.
func (i *Injector) Fired(p Point) uint64 { return i.points[p].fired.Load() }

// Threshold returns p's configured rate threshold (0 = never fires).
func (i *Injector) Threshold(p Point) uint64 { return i.points[p].threshold }

// Log returns a copy of the recorded injection events, in firing order.
// The log is bounded by Config.LogLimit; LostEvents reports overflow.
func (i *Injector) Log() []Event {
	i.logMu.Lock()
	defer i.logMu.Unlock()
	out := make([]Event, len(i.log))
	copy(out, i.log)
	return out
}

// LostEvents returns how many firings were dropped from the log.
func (i *Injector) LostEvents() uint64 { return i.lost.Load() }

// FiredArrivals returns, per point, the sorted arrival indices that
// fired, as recorded in the log. This is the per-point realized
// schedule the replay test compares across runs.
func (i *Injector) FiredArrivals() map[Point][]uint64 {
	out := make(map[Point][]uint64)
	for _, ev := range i.Log() {
		out[ev.Point] = append(out[ev.Point], ev.Arrival)
	}
	for _, s := range out {
		sortU64(s)
	}
	return out
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Summary renders per-point arrival/fired counts for CLI output.
func (i *Injector) Summary() string {
	out := fmt.Sprintf("fault: seed=%d", i.seed)
	for p := Point(0); p < NumPoints; p++ {
		a := i.Arrivals(p)
		if a == 0 && i.points[p].threshold == 0 {
			continue
		}
		out += fmt.Sprintf("\n  %-18s arrivals=%d fired=%d", p.String(), a, i.Fired(p))
	}
	return out
}

// RegisterMetrics exposes the active injector's per-point counters on
// r. The collectors read whatever injector is active at scrape time, so
// registration can happen before Enable; with no injector active they
// emit nothing.
func RegisterMetrics(r *metrics.Registry) {
	r.CollectCounters("prudence_fault_arrivals_total",
		"Arrivals at fault-injection points (active injector only).",
		func(emit metrics.Emit) {
			inj := active.Load()
			if inj == nil {
				return
			}
			for p := Point(0); p < NumPoints; p++ {
				if inj.points[p].threshold == 0 {
					continue
				}
				emit(float64(inj.Arrivals(p)), metrics.Label{Name: "point", Value: p.String()})
			}
		})
	r.CollectCounters("prudence_fault_injections_total",
		"Faults fired at injection points (active injector only).",
		func(emit metrics.Emit) {
			inj := active.Load()
			if inj == nil {
				return
			}
			for p := Point(0); p < NumPoints; p++ {
				if inj.points[p].threshold == 0 {
					continue
				}
				emit(float64(inj.Fired(p)), metrics.Label{Name: "point", Value: p.String()})
			}
		})
}
