// Package hp implements a hazard-pointer backend (Michael's SMR, as
// surveyed in Singh's safe-memory-reclamation thesis — the per-pointer
// end of the scheme spectrum) behind the canonical internal/sync
// surface.
//
// Two protection granularities coexist:
//
//   - Per-pointer: a reader publishes an object's token into one of its
//     CPU's hazard slots (Protect), re-validates the source pointer, and
//     the token blocks reclamation of exactly that object until Release.
//     This is classic hazard-pointer usage with the classic bound: at
//     most CPUs × slots objects can be protected at once, so for readers
//     that protect tokens (rather than open critical sections) a scan
//     always reclaims all but O(CPUs·slots) of the retire lists — a
//     reader stalled holding only tokens pins only what it protects.
//   - Per-era: the repository's data structures delimit critical
//     sections (ReadLock/ReadUnlock) instead of publishing individual
//     pointers, so ReadLock publishes the current reclamation era into a
//     dedicated hazard slot. A retired object is stamped with the era
//     after its retirement; it stays unreclaimed while any CPU publishes
//     an older era. This is the hazard-era bridge: critical-section code
//     keeps its API, per-pointer code gets the hard garbage bound.
//
// Reclamation is scan-and-reclaim: retirements accumulate in per-CPU
// retire lists; when a list exceeds the scan threshold (or the era
// driver runs), the scanning CPU collects every published era and token
// once and frees all entries no protection covers. Unlike rcu/ebr there
// is no waiting for a global quiescent point to free anything — only
// covered entries stay.
package hp

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

// Options configures the hazard-pointer backend.
type Options struct {
	// Slots is the number of per-pointer hazard slots per CPU (default
	// 4). Slot tokens are caller-chosen non-zero uint64s.
	Slots int
	// AdvanceInterval is the minimum gap between era advances (default
	// 200µs). One era advance completes one grace period.
	AdvanceInterval time.Duration
	// PollInterval is the waiter/scanner re-check period (default 20µs).
	PollInterval time.Duration
	// ScanThreshold is the retire-list length that triggers an inline
	// scan on the retiring CPU (default 2 × CPUs × (Slots+1), the
	// classic R = H·K + Ω amortization; minimum 64).
	ScanThreshold int
	// RetireQhimark is the total retire backlog above which each new
	// retirement raises expedited era demand instead of plain demand
	// (default 64 × ScanThreshold; negative disables).
	RetireQhimark int
}

func (o Options) withDefaults(cpus int) Options {
	if o.Slots <= 0 {
		o.Slots = 4
	}
	if o.AdvanceInterval <= 0 {
		o.AdvanceInterval = 200 * time.Microsecond
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Microsecond
	}
	if o.ScanThreshold <= 0 {
		o.ScanThreshold = 2 * cpus * (o.Slots + 1)
		if o.ScanThreshold < 64 {
			o.ScanThreshold = 64
		}
	}
	if o.RetireQhimark == 0 {
		o.RetireQhimark = 64 * o.ScanThreshold
	}
	return o
}

func init() {
	gsync.Register("hp", func(m *vcpu.Machine, o gsync.Options) gsync.Backend {
		return New(m, Options{
			AdvanceInterval: o.GPInterval,
			PollInterval:    o.PollInterval,
			RetireQhimark:   o.Qhimark,
		})
	})
}

// retiredObj is one retirement: its cookie is the era it must outwait
// for era-based protection; token, when non-zero, additionally blocks
// reclamation while published in any hazard slot.
type retiredObj struct {
	gsync.Retired
	token uint64
}

type cpuState struct {
	// era is the era published by an open critical section (0 = none).
	era atomic.Uint64
	// slots are the per-pointer hazard tokens (0 = empty).
	slots   []atomic.Uint64
	nesting int32 // owner-goroutine only

	// mu guards the CPU's retire list only; it is released before any
	// reclaimer runs (reclaimers take allocator locks).
	//
	//prudence:lockorder 44
	mu      sync.Mutex
	retired []retiredObj //prudence:guarded_by mu
	// sinceScan counts retirements since the last scan of this list, so
	// inline scans amortize to one per ScanThreshold retirements rather
	// than firing on every retirement while the list sits above the
	// threshold (which goes quadratic and starves the driver off mu).
	sinceScan int //prudence:guarded_by mu
	// seq/done support Barrier: entries ever enqueued / ever invoked.
	seq  atomic.Uint64
	done atomic.Uint64
	// qsCalls counts QuiescentState calls so the hot path can donate
	// its timeslice periodically (see QuiescentState).
	qsCalls atomic.Uint32
}

// HP is the hazard-pointer backend. Its grace-period driver never
// waits for stragglers: safety lives in the per-entry protection
// checks, so the era advances freely on demand, each advance followed
// by a scan of every retire list, and stalled readers pin only what
// they cover.
type HP struct {
	gsync.Driver

	machine *vcpu.Machine
	opts    Options
	percpu  []*cpuState

	// eraCounter starts at 1 so a published era is never the 0
	// sentinel.
	eraCounter atomic.Uint64

	pending    atomic.Int64
	maxBacklog atomic.Int64
	scans      atomic.Uint64
	reclaimed  atomic.Uint64
}

// New creates and starts a hazard-pointer backend for machine.
func New(machine *vcpu.Machine, opts Options) *HP {
	h := &HP{
		machine: machine,
		opts:    opts.withDefaults(machine.NumCPU()),
		percpu:  make([]*cpuState, machine.NumCPU()),
	}
	h.eraCounter.Store(1)
	for i := range h.percpu {
		h.percpu[i] = &cpuState{slots: make([]atomic.Uint64, h.opts.Slots)}
	}
	h.Start(gsync.Policy{
		Interval: h.opts.AdvanceInterval,
		// Elapsed turns true on a reader's ReadUnlock, which no advance
		// accompanies: waiters poll.
		Poll:     h.opts.PollInterval,
		Snapshot: h.Snapshot,
		Elapsed:  h.Elapsed,
		// A backlog is demand: retirements a scan could not reclaim
		// (a critical section was still open) need the era to keep
		// moving and the scans to keep coming.
		Backlog: h.pending.Load,
		Advance: func() bool {
			h.eraCounter.Add(1)
			h.scanAll()
			return true
		},
		Park: func(cpu int) bool {
			if h.cpu(cpu).nesting > 0 {
				panic("hp: grace-period wait inside critical section")
			}
			return false
		},
	})
	return h
}

// Stop shuts the backend down. Retired entries that no protection
// covers are reclaimed in a final scan; covered entries are dropped.
func (h *HP) Stop() {
	h.Driver.Stop()
	h.scanAll()
}

func (h *HP) cpu(id int) *cpuState {
	if id < 0 || id >= len(h.percpu) {
		panic(fmt.Sprintf("hp: CPU id %d out of range [0,%d)", id, len(h.percpu)))
	}
	return h.percpu[id]
}

// Era returns the current reclamation era.
func (h *HP) Era() uint64 { return h.eraCounter.Load() }

// ReadLock enters a critical section on cpu by publishing the current
// era into the CPU's era hazard. Publish-then-recheck mirrors ebr's
// pin loop: once the era is stable across the publish, any later scan
// must observe it.
func (h *HP) ReadLock(cpu int) {
	cs := h.cpu(cpu)
	if cs.nesting == 0 {
		for {
			cur := h.eraCounter.Load()
			cs.era.Store(cur)
			if h.eraCounter.Load() == cur {
				break
			}
		}
	}
	cs.nesting++
}

// ReadUnlock leaves the critical section, clearing the era hazard at
// the outermost exit.
func (h *HP) ReadUnlock(cpu int) {
	cs := h.cpu(cpu)
	cs.nesting--
	if cs.nesting < 0 {
		panic("hp: unbalanced ReadUnlock")
	}
	if cs.nesting == 0 {
		cs.era.Store(0)
	}
}

// Protect publishes token into hazard slot on cpu and returns after the
// publication is visible to scans. The caller must re-validate that the
// protected object is still reachable after Protect returns (the
// classic hazard-pointer protocol); if it is, the object cannot be
// reclaimed until Release. token must be non-zero.
func (h *HP) Protect(cpu, slot int, token uint64) {
	if token == 0 {
		panic("hp: Protect with zero token")
	}
	h.cpu(cpu).slots[slot].Store(token)
}

// Release clears hazard slot on cpu.
func (h *HP) Release(cpu, slot int) {
	h.cpu(cpu).slots[slot].Store(0)
}

// Slots returns the number of per-pointer hazard slots per CPU.
func (h *HP) Slots() int { return h.opts.Slots }

// QuiescentState does not affect protection (hazards are explicit
// publication), but it periodically donates the caller's timeslice so
// the driver goroutine gets scheduled even when every runnable vCPU
// spins through allocate/free at GOMAXPROCS=1 — the same scheduling
// donation internal/rcu makes, without which era advances happen only
// at preemption quanta and grace periods starve.
func (h *HP) QuiescentState(cpu int) {
	if h.cpu(cpu).qsCalls.Add(1)%32 == 0 {
		runtime.Gosched()
	}
}

// EnterIdle is a no-op: an idle CPU publishes no hazards.
func (h *HP) EnterIdle(cpu int) {}

// ExitIdle is a no-op, mirroring EnterIdle.
func (h *HP) ExitIdle(cpu int) {}

// Snapshot returns a cookie that elapses once the era has advanced past
// every era published now.
func (h *HP) Snapshot() gsync.Cookie {
	return gsync.Cookie(h.eraCounter.Load() + 1)
}

// Elapsed reports whether every critical section open at Snapshot time
// has closed: the era must have reached the cookie and no CPU may still
// publish an older era.
func (h *HP) Elapsed(c gsync.Cookie) bool {
	if h.eraCounter.Load() < uint64(c) {
		return false
	}
	return h.minPublishedEra() >= uint64(c)
}

// minPublishedEra returns the smallest era any CPU currently publishes,
// or MaxUint64 when none is published.
func (h *HP) minPublishedEra() uint64 {
	min := uint64(math.MaxUint64)
	for _, cs := range h.percpu {
		if e := cs.era.Load(); e != 0 && e < min {
			min = e
		}
	}
	return min
}

// RetireToken retires (rec, obj, idx) for reclamation once the
// retirement's era has been left behind AND token (if non-zero) is
// absent from every hazard slot. Callers unlink the object first, then
// retire it with the token its readers publish.
func (h *HP) RetireToken(cpu int, token uint64, rec gsync.Reclaimer, obj any, idx uint64) {
	cs := h.cpu(cpu)
	entry := retiredObj{Retired: gsync.Retired{Cookie: h.Snapshot(), Rec: rec, Obj: obj, Idx: idx, CPU: int32(cpu)}, token: token}
	cs.mu.Lock()
	cs.retired = append(cs.retired, entry)
	cs.sinceScan++
	// Inline scans (the classic hazard-pointer reclamation trigger) fire
	// once per ScanThreshold retirements, and only when the list's
	// oldest entry could actually be reclaimed: the list is append-only
	// in cookie order, so a head cookie beyond the current era means
	// every entry is still era-covered and a scan would be a pure
	// O(len) waste — the era advance it is waiting on comes with the
	// driver's own scan.
	scanNow := cs.sinceScan >= h.opts.ScanThreshold &&
		uint64(cs.retired[0].Cookie) <= h.eraCounter.Load()
	if scanNow {
		cs.sinceScan = 0
	}
	cs.mu.Unlock()
	cs.seq.Add(1)
	n := h.pending.Add(1)
	if n > h.maxBacklog.Load() {
		h.maxBacklog.Store(n)
	}
	// A backlog past the qhimark means the scans are losing the race
	// against the updaters — escalate so the driver advances and scans
	// at full speed.
	if h.opts.RetireQhimark > 0 && n > int64(h.opts.RetireQhimark) {
		h.ExpediteGP()
	} else {
		h.NeedGP()
	}
	if scanNow {
		h.scan(cpu)
	}
}

// RetireObject retires behind era protection only (token 0): the
// payload is reclaimed once no critical section from before the
// retirement survives. The steady-state retire path allocates nothing.
func (h *HP) RetireObject(cpu int, rec gsync.Reclaimer, obj any, idx uint64) {
	h.RetireToken(cpu, 0, rec, obj, idx)
}

// Barrier blocks until every retirement accepted before the call has
// been reclaimed (or the backend stopped). Entries whose tokens remain protected
// forever would block forever — exactly rcu.Barrier's behaviour against
// a stalled reader.
func (h *HP) Barrier() {
	targets := make([]uint64, len(h.percpu))
	for i, cs := range h.percpu {
		targets[i] = cs.seq.Load()
	}
	poll := gsync.NewSleepTimer()
	defer poll.Stop()
	for {
		reached := true
		for i, cs := range h.percpu {
			if cs.done.Load() < targets[i] {
				reached = false
				break
			}
		}
		if reached {
			return
		}
		// A blocked barrier is latency-sensitive by definition.
		h.ExpediteGP()
		if !h.Sleep(poll, h.opts.PollInterval) {
			return
		}
	}
}

// SetPressure expedites reclamation under memory pressure: the next era
// advance, and the scan that follows it, skip the pacing gap.
func (h *HP) SetPressure(under bool) {
	if under {
		h.ExpediteGP()
	}
}

// RetireBacklog returns the number of retired objects not yet
// reclaimed.
func (h *HP) RetireBacklog() int64 { return h.pending.Load() }

// scan is one scan-and-reclaim pass over cpu's retire list: collect
// every published protection once, then free all entries no protection
// covers. The retire-list lock is released before any reclaimer runs.
func (h *HP) scan(cpu int) {
	// Chaos: stall the scan before protections are collected,
	// lengthening retire-list residency without affecting safety.
	//prudence:fault_point
	fault.Sleep(fault.HPScanDelay)

	h.scans.Add(1)
	minEra := h.minPublishedEra()
	era := h.eraCounter.Load()
	protected := make(map[uint64]struct{})
	for _, cs := range h.percpu {
		for i := range cs.slots {
			if t := cs.slots[i].Load(); t != 0 {
				protected[t] = struct{}{}
			}
		}
	}

	cs := h.cpu(cpu)
	cs.mu.Lock()
	cs.sinceScan = 0
	var free, keep []retiredObj
	for _, r := range cs.retired {
		covered := uint64(r.Cookie) > era || uint64(r.Cookie) > minEra
		if !covered && r.token != 0 {
			_, covered = protected[r.token]
		}
		if covered {
			keep = append(keep, r)
		} else {
			free = append(free, r)
		}
	}
	cs.retired = keep
	cs.mu.Unlock()
	for i := range free {
		free[i].Reclaim()
	}
	if n := len(free); n > 0 {
		cs.done.Add(uint64(n))
		h.pending.Add(-int64(n))
		h.reclaimed.Add(uint64(n))
	}
}

// scanAll scans every CPU's retire list.
func (h *HP) scanAll() {
	for cpu := range h.percpu {
		h.scan(cpu)
	}
}

// RegisterMetrics registers the backend's observability series, keeping
// the shared prudence_gp_* family names so dashboards read identically
// over any scheme.
func (h *HP) RegisterMetrics(reg *metrics.Registry) {
	h.RegisterGPMetrics(reg)
	reg.GaugeFunc("prudence_hp_era", "Current reclamation era.",
		func() float64 { return float64(h.Era()) })
	reg.GaugeFunc("prudence_hp_retire_backlog", "Retired objects awaiting scan-and-reclaim.",
		func() float64 { return float64(h.pending.Load()) })
	reg.CounterFunc("prudence_hp_scans_total", "Scan-and-reclaim passes.",
		func() float64 { return float64(h.scans.Load()) })
	reg.CounterFunc("prudence_hp_reclaimed_total", "Retired objects reclaimed by scans.",
		func() float64 { return float64(h.reclaimed.Load()) })
	reg.GaugeFunc("prudence_sync_retire_backlog", "Retired objects enqueued but not yet reclaimed.",
		func() float64 { return float64(h.pending.Load()) })
	reg.GaugeFunc("prudence_sync_retire_backlog_peak", "High-water mark of the retire backlog.",
		func() float64 { return float64(h.maxBacklog.Load()) })
	reg.GaugeFunc("prudence_hp_protected_slots", "Hazard slots currently publishing a token.",
		func() float64 {
			n := 0
			for _, cs := range h.percpu {
				for i := range cs.slots {
					if cs.slots[i].Load() != 0 {
						n++
					}
				}
			}
			return float64(n)
		})
}
