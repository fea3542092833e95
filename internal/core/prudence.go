// Package core implements Prudence, the paper's contribution: a slab
// allocator tightly integrated with the procrastination-based
// synchronization mechanism so that deferred objects are visible to —
// and reclaimed by — the allocator itself.
//
// The structure follows the paper's Algorithm 1 and §4:
//
//   - Every per-CPU object cache has a latent cache holding deferred
//     objects stamped with the grace-period cookie after which they are
//     safe; every slab has a latent slab (see slabcore.Slab's latent
//     entries). Latent objects are hidden from ordinary allocation until
//     their grace period elapses, then merged.
//   - The latent cache is a FIFO ring deep enough to hold a full grace
//     period of deferred frees (latentCap), so the merge, not a
//     node-locked refill, serves allocations once the period elapses.
//     Under memory pressure it falls back to the object cache size.
//   - Object cache refill is partial: with o the object cache size and d
//     the latent backlog (clamped to o, the most one merge can add),
//     only o-d objects are refilled so the later merge cannot overflow
//     the cache (MALLOC/REFILL, lines 8-14).
//   - When a deferred free would push object+latent counts past the
//     ring's capacity, a latent-cache pre-flush is scheduled on the
//     CPU's idle worker, moving deferred objects to their latent slabs
//     ahead of time, aggressively when frees outpace allocations
//     (FREE_DEFERRED lines 39-51 and §4.2 "Latent cache pre-flush").
//   - Slabs are pre-moved between full/partial/free lists as soon as a
//     deferred free makes the future placement known (PRE_MOVE_SLAB,
//     lines 52-59).
//   - Refill slab selection scans a bounded prefix of the partial list
//     and avoids slabs whose live objects are mostly deferred, so those
//     slabs can drain completely and their pages return to the page
//     allocator — the total-fragmentation optimization of Figure 5.
//   - On memory exhaustion with deferred objects outstanding, the OOM
//     path waits for a grace period, spills every CPU's latent ring to
//     the latent slabs and retries instead of failing (lines 31-32,
//     "Handling memory pressure").
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"prudence/internal/alloc"
	"prudence/internal/fault"
	"prudence/internal/metrics"
	"prudence/internal/pagealloc"
	"prudence/internal/slabcore"
	"prudence/internal/stats"
	gsync "prudence/internal/sync"
	"prudence/internal/trace"
	"prudence/internal/vcpu"
)

// Options toggles Prudence's individual optimizations. The zero value
// enables everything; the toggles exist for the ablation benchmarks.
type Options struct {
	// DisablePartialRefill refills the object cache to capacity,
	// ignoring the latent backlog (turns off lines 8-14's sizing).
	DisablePartialRefill bool
	// DisablePreFlush turns off idle-time latent cache pre-flushing.
	DisablePreFlush bool
	// DisablePreMove turns off slab pre-movement between node lists.
	DisablePreMove bool
	// DisableSlabSelection makes refill take the first partial slab
	// like SLUB instead of the deferred-aware scan.
	DisableSlabSelection bool
	// DisableOOMDelay fails allocations immediately on page exhaustion
	// even when deferred objects are pending.
	DisableOOMDelay bool
	// EnablePrediction turns on the §6 future-work extension: flush
	// sizing adapts to a lifetime prediction for objects freed OUTSIDE
	// the deferred context. When recent allocations outpace immediate
	// frees, freed objects are predicted to be reallocated soon and the
	// overflow flush keeps more of them cached; when immediate frees
	// dominate (teardown bursts), the flush returns more to the slabs.
	// Off by default: it is an extension beyond the paper's evaluated
	// design.
	EnablePrediction bool
	// SlabScanLimit bounds how many partial slabs refill inspects
	// (default 10 — the paper's latency/fragmentation trade-off, §5.4).
	SlabScanLimit int
	// OOMDelayWait bounds one OOM-delay grace-period wait (default 5ms).
	// Waits back off exponentially on consecutive timeouts, so a stalled
	// grace period degrades to an out-of-memory report instead of a hang.
	OOMDelayWait time.Duration
	// OOMDelayRetries is how many timed-out waits the OOM path tolerates
	// before giving up and reporting out-of-memory (default 3).
	OOMDelayRetries int
}

func (o Options) withDefaults() Options {
	if o.SlabScanLimit <= 0 {
		o.SlabScanLimit = 10
	}
	if o.OOMDelayWait <= 0 {
		o.OOMDelayWait = 5 * time.Millisecond
	}
	if o.OOMDelayRetries <= 0 {
		o.OOMDelayRetries = 3
	}
	return o
}

// Allocator is the Prudence allocator.
type Allocator struct {
	pages *pagealloc.Allocator
	// gp is the grace-period provider: the paper's §4 (requirement ii)
	// pollable grace-period state. Prudence is agnostic to how grace
	// periods are detected — context-switch counting (internal/rcu),
	// epochs (internal/ebr, as "ebr" or "nebr") and hazard-pointer
	// scanning (internal/hp) all implement sync.Backend — so the added
	// complexity stays inside the allocator.
	gp      gsync.Backend
	machine *vcpu.Machine
	opts    Options

	// mu guards the cache registry only; it ranks below every
	// allocation-path lock and is never held across one.
	//
	//prudence:lockorder 5
	mu     sync.Mutex
	caches []alloc.Cache //prudence:guarded_by mu

	// pressure mirrors the page allocator's pressure state, fed by
	// pagealloc.OnPressure, so deferred frees can read it without
	// taking the page allocator's pressure mutex.
	pressure atomic.Bool
}

var _ alloc.Allocator = (*Allocator)(nil)

// New creates a Prudence allocator. machine provides the per-CPU idle
// workers used for pre-flush; gp is the grace-period provider whose
// state the allocator polls (any registered sync.Backend).
func New(pages *pagealloc.Allocator, gp gsync.Backend, machine *vcpu.Machine, opts Options) *Allocator {
	a := &Allocator{
		pages:   pages,
		gp:      gp,
		machine: machine,
		opts:    opts.withDefaults(),
	}
	pages.OnPressure(a.onPressure)
	a.onPressure(false)
	return a
}

// onPressure refreshes the pressure mirror. pagealloc runs its
// subscribers outside its pressure mutex, so two transitions' callbacks
// can arrive out of order: ignore the argument, store the current
// state, and store again if it changed meanwhile. Whichever store is
// last then matches the last transition.
func (a *Allocator) onPressure(bool) {
	for {
		under := a.pages.UnderPressure()
		a.pressure.Store(under)
		if a.pages.UnderPressure() == under {
			return
		}
	}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "prudence" }

// NewCache implements alloc.Allocator.
func (a *Allocator) NewCache(cfg slabcore.CacheConfig) alloc.Cache {
	cfg.CPUs = a.machine.NumCPU()
	c := &Cache{
		alloc: a,
		base:  slabcore.NewBase(a.pages, cfg),
	}
	c.base.LatentSlabs = true
	c.percpu = make([]*cpuLocal, cfg.CPUs)
	for i := range c.percpu {
		cl := &cpuLocal{
			objs:   slabcore.NewPerCPUCache(c.base.Cfg.CacheSize),
			latent: newLatentRing(c.base.Cfg.CacheSize),
			own:    new(spillScratch),
			idle:   new(spillScratch),
		}
		cl.elapsedFn = func(ck gsync.Cookie) bool { return c.elapsedLocal(cl, ck) }
		cl.preflushFn = func() { c.preflush(i) }
		c.percpu[i] = cl
	}
	c.placeFn = c.placement
	c.shrinkGate = make([]atomic.Uint64, len(c.base.NodesArr))
	a.mu.Lock()
	a.caches = append(a.caches, c)
	a.mu.Unlock()
	return c
}

// Caches implements alloc.Allocator.
func (a *Allocator) Caches() []alloc.Cache {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]alloc.Cache, len(a.caches))
	copy(out, a.caches)
	return out
}

// RegisterMetrics implements alloc.Allocator: the shared per-cache
// counter families plus the latent backlog depth, which is Prudence's
// reclamation-lag signal (objects deferred but not yet reusable).
func (a *Allocator) RegisterMetrics(r *metrics.Registry) {
	alloc.RegisterCacheMetrics(r, a)
	r.CollectGauges("prudence_cache_latent_objects", "Deferred objects parked in latent caches and latent slabs.",
		func(emit metrics.Emit) {
			for _, c := range a.Caches() {
				if pc, ok := c.(*Cache); ok {
					emit(float64(pc.LatentTotal()), metrics.L("cache", pc.Name()))
				}
			}
		})
}

// latentCap is the deepest a CPU's latent ring grows. A grace period
// spans a few hundred deferred frees per CPU in the Fig. 6 loop; a ring
// shallower than that spills deferred objects to the latent slabs
// before they elapse, and allocation falls back to node-locked refills.
// Deeper rings cost cache-cold reuse.
const latentCap = 1024

// latentSpill caps one overflow spill from a full ring. It amortizes the
// node lock over many objects while keeping most of the ring, whose
// oldest entries are the next to elapse. Spilling half of a deep ring
// sends many nearly-reusable objects to the latent slabs, where whole
// slabs drain to the free list only for shrink to return them and
// refill to grow them back.
const latentSpill = 128

// latentObj is one deferred object in a latent cache.
type latentObj struct {
	ref    slabcore.Ref
	cookie gsync.Cookie
}

// latentRing is a CPU's latent cache: a FIFO of deferred objects in free
// order. Cookies are monotone along it, so the entries whose grace
// period has elapsed are always a prefix. The buffer is a power of two
// that grows by doubling; the caller bounds the depth.
type latentRing struct {
	buf  []latentObj
	head uint32 // index of the oldest entry
	n    uint32
}

func newLatentRing(size int) latentRing {
	p := 1
	for p < size {
		p <<= 1
	}
	return latentRing{buf: make([]latentObj, p)}
}

func (r *latentRing) len() int { return int(r.n) }

// at returns the i-th oldest entry.
func (r *latentRing) at(i int) *latentObj {
	return &r.buf[(int(r.head)+i)&(len(r.buf)-1)]
}

// push appends lo as the newest entry, doubling the buffer when full.
func (r *latentRing) push(lo latentObj) {
	if int(r.n) == len(r.buf) {
		nb := make([]latentObj, 2*len(r.buf))
		k := copy(nb, r.buf[r.head:])
		copy(nb[k:], r.buf[:r.head])
		r.buf, r.head = nb, 0
	}
	*r.at(int(r.n)) = lo
	r.n++
}

// pop removes and returns the oldest entry.
func (r *latentRing) pop() latentObj {
	lo := *r.at(0)
	*r.at(0) = latentObj{}
	r.head = (r.head + 1) & uint32(len(r.buf)-1)
	r.n--
	return lo
}

// popInto removes the k oldest entries, appending them to dst in order.
func (r *latentRing) popInto(dst []latentObj, k int) []latentObj {
	for ; k > 0; k-- {
		dst = append(dst, r.pop())
	}
	return dst
}

// spillScratch is reusable storage for one context that moves latent
// entries to latent slabs or flushes the object cache, so those paths
// do not allocate on the Go heap once warm.
type spillScratch struct {
	batch   []latentObj
	victims []slabcore.Ref
}

// cpuLocal is one CPU's object cache plus latent ring, guarded by the
// object cache's owner-core lock (the local-irq-disable analogue): the
// owning workload goroutine takes the fast path, the idle pre-flush
// worker and Drain take the visitor path. The ring holds up to
// latentCap deferred objects — a full grace period's worth, so they
// merge back into the object cache (capped at its free room) instead of
// overflowing to latent slabs first; under memory pressure the limit
// falls back to the object cache size (§4.1). Padded to 128 bytes so
// adjacent CPUs' cpuLocals never share a cache line (or an
// adjacent-line prefetch pair).
//
//prudence:padded 128
type cpuLocal struct {
	objs   *slabcore.PerCPUCache
	latent latentRing //prudence:guarded_by objs

	// preflushArmed avoids queueing more than one pre-flush work item.
	preflushArmed bool //prudence:guarded_by objs

	// op counts since the last pre-flush decision, used for the
	// aggressive/lazy pre-flush rate heuristic (§4.2).
	allocsSince int //prudence:guarded_by objs
	freesSince  int //prudence:guarded_by objs

	// prediction window counters (EnablePrediction): immediate-path
	// traffic since the last overflow flush.
	predAllocs int //prudence:guarded_by objs
	predFrees  int //prudence:guarded_by objs

	// elapsedMax caches the highest grace-period cookie this CPU has
	// observed to elapse. Cookies are monotone ("once elapsed, always
	// elapsed" holds for every sync.Backend), so queries
	// at or below the cached value answer locally instead of re-reading
	// the engine's shared completed-GP line on every latent-entry poll.
	// Guarded by the cache lock.
	elapsedMax gsync.Cookie //prudence:guarded_by objs

	// elapsedFn is the prebuilt cached-poll closure handed to
	// slabcore.Reconcile from paths holding this CPU's cache lock, and
	// preflushFn the prebuilt idle work item armPreflush queues, both
	// built once in NewCache so the hot path never allocates one.
	elapsedFn  func(gsync.Cookie) bool
	preflushFn func()

	// own is scratch for the owning goroutine's spills and flushes;
	// idle is the idle worker's, for pre-flush.
	own, idle *spillScratch

	_ [8]byte // pad to 128 bytes; sized by TestCPULocalPadding
}

// Cache is one Prudence slab cache.
type Cache struct {
	alloc  *Allocator
	base   *slabcore.Base
	percpu []*cpuLocal

	// latentTotal counts deferred objects anywhere in this cache
	// (latent caches + latent slabs); the OOM-delay path consults it.
	latentTotal atomic.Int64

	// shrinkGate[node] records the grace-period count at the last
	// latent-path shrink attempt on that node. Free-list slabs blocked
	// by latent objects can only become reclaimable after a further
	// grace period, so re-scanning before one completes is wasted work
	// under the node lock (and starves other CPUs off it).
	shrinkGate []atomic.Uint64

	// placeFn is the placement policy as a prebuilt func value for
	// slabcore.ReleaseRefs, so flush paths do not allocate a closure.
	placeFn func(*slabcore.Slab) slabcore.ListID
}

var _ alloc.Cache = (*Cache)(nil)

// Name implements alloc.Cache.
func (c *Cache) Name() string { return c.base.Cfg.Name }

// ObjectSize implements alloc.Cache.
func (c *Cache) ObjectSize() int { return c.base.Cfg.ObjectSize }

// Counters implements alloc.Cache.
func (c *Cache) Counters() *stats.AllocCounters { return &c.base.Ctr }

// Fragmentation implements alloc.Cache.
func (c *Cache) Fragmentation() (float64, int64, int64) {
	return c.base.Fragmentation()
}

// LatentTotal returns the number of deferred objects currently parked in
// this cache's latent caches and latent slabs.
func (c *Cache) LatentTotal() int64 { return c.latentTotal.Load() }

func (c *Cache) elapsed(ck gsync.Cookie) bool { return c.alloc.gp.Elapsed(ck) }

// elapsedLocal answers a grace-period poll from cl's cached high-water
// cookie when possible, touching the engine's shared state only for
// cookies not yet known to have elapsed (and remembering the answer).
// Caller holds cl's cache lock.
//
//prudence:requires PerCPUCache
func (c *Cache) elapsedLocal(cl *cpuLocal, ck gsync.Cookie) bool {
	if ck <= cl.elapsedMax {
		return true
	}
	if c.alloc.gp.Elapsed(ck) {
		cl.elapsedMax = ck
		return true
	}
	return false
}

// latentLimit is how deep a CPU's latent ring may grow now: latentCap,
// or the object cache size under memory pressure, when deferred objects
// belong in latent slabs where any CPU can reclaim them.
func (c *Cache) latentLimit() int {
	if c.alloc.pressure.Load() {
		return c.base.Cfg.CacheSize
	}
	return max(latentCap, c.base.Cfg.CacheSize)
}

// mergeBound is the latent term d of the refill and flush sizing: the
// ring depth clamped to the object cache size, the most one merge can
// add.
//
//prudence:requires PerCPUCache
func (c *Cache) mergeBound(cl *cpuLocal) int {
	return min(cl.latent.len(), c.base.Cfg.CacheSize)
}

// Malloc implements alloc.Cache following Algorithm 1's MALLOC.
func (c *Cache) Malloc(cpu int) (slabcore.Ref, error) {
	ctr := &c.base.Ctr
	ctr.IncAllocs(cpu)
	cl := c.percpu[cpu]

	// oomTimeouts counts consecutive timed-out OOM-delay waits; any
	// successful wait resets it. See the OOM path at the loop's end.
	oomTimeouts := 0
	for {
		cl.objs.Lock()
		cl.allocsSince++
		cl.predAllocs++
		if r := cl.objs.TryGet(); !r.IsZero() {
			cl.objs.Unlock()
			ctr.IncCacheHits(cpu)
			c.base.UserAlloc(cpu)
			if d := c.base.Debugger(); d != nil {
				d.OnAlloc(r, cpu)
			}
			return r, nil
		}
		// Lines 8-11: merge safe latent objects and retry. A latent
		// backlog in which nothing has elapsed means the allocator is
		// starved waiting on grace-period progress: raise expedited
		// demand so the engine advances now instead of at timer cadence.
		if cl.latent.len() > 0 && !c.elapsedLocal(cl, cl.latent.at(0).cookie) {
			c.alloc.gp.ExpediteGP()
		}
		if n := c.mergeCaches(cl); n > 0 {
			c.base.Trace(trace.KindMerge, cpu, int64(n), 0)
			if r := cl.objs.TryGet(); !r.IsZero() {
				cl.objs.Unlock()
				ctr.IncLatentHits(cpu)
				// A merge means a grace period has elapsed: the one
				// moment free-list slabs may have become reclaimable.
				c.maybeShrink(c.base.NodeFor(cpu))
				c.base.UserAlloc(cpu)
				if d := c.base.Debugger(); d != nil {
					d.OnAlloc(r, cpu)
				}
				return r, nil
			}
		}
		// Line 12: refill, sized by the latent backlog.
		c.refill(cpu, cl)
		if r := cl.objs.TryGet(); !r.IsZero() {
			cl.objs.Unlock()
			c.base.UserAlloc(cpu)
			if d := c.base.Debugger(); d != nil {
				d.OnAlloc(r, cpu)
			}
			return r, nil
		}
		// Lines 29-30: grow the slab cache. A real kernel re-enables
		// IRQs before entering the buddy allocator; the stand-in grows
		// under the cache lock and accepts that the page allocator's
		// bounded zeroer wait may sleep there.
		node := c.base.NodeFor(cpu)
		_, err := c.base.NewSlab(node) //prudence:nolint:sleepcheck grow-under-cache-lock stand-in: the zeroer wait in pagealloc is bounded, and dropping the owner lock here would let visitors race the grow
		if err == nil {
			c.base.Trace(trace.KindGrow, cpu, 1, 0)
			c.refill(cpu, cl)
			r := cl.objs.TryGet()
			cl.objs.Unlock()
			if r.IsZero() {
				// The fresh slab's objects were taken by other CPUs
				// between our grow and refill: memory exists and the
				// system is making progress, so retry. If memory truly
				// runs out, the next grow fails and the OOM path below
				// decides.
				continue
			}
			c.base.UserAlloc(cpu)
			if d := c.base.Debugger(); d != nil {
				d.OnAlloc(r, cpu)
			}
			return r, nil
		}
		cl.objs.Unlock()

		// Lines 31-33: on exhaustion, wait for a grace period if
		// deferred objects are pending somewhere; they become
		// reallocatable once it elapses.
		if c.alloc.opts.DisableOOMDelay || c.latentTotal.Load() == 0 {
			ctr.OOMs.Add(1)
			c.base.Trace(trace.KindOOM, cpu, 0, 0)
			return slabcore.Ref{}, err
		}
		ctr.GPWaits.Add(1)
		c.base.Trace(trace.KindGPWait, cpu, 0, 0)
		// The wait treats this CPU as quiescent (the caller is blocked,
		// i.e. context-switched) so the grace period it is waiting for
		// can actually complete. The wait is bounded with exponential
		// backoff: Algorithm 1's lines 31-32 assume a grace period
		// always arrives, but a stalled or wedged engine must degrade
		// to an out-of-memory report, not a hang.
		wait := c.alloc.opts.OOMDelayWait << min(oomTimeouts, 4)
		// The OOM-delay wait is the most starved caller there is: the
		// allocation cannot proceed until a grace period frees memory.
		c.alloc.gp.ExpediteGP()
		//prudence:fault_point
		elapsed := !fault.Fire(fault.OOMDelayExpire) &&
			c.alloc.gp.WaitElapsedOnTimeout(cpu, c.alloc.gp.Snapshot(), wait)
		if !elapsed {
			ctr.OOMDelayTimeouts.Add(1)
			oomTimeouts++
			if oomTimeouts >= c.alloc.opts.OOMDelayRetries {
				ctr.OOMs.Add(1)
				c.base.Trace(trace.KindOOM, cpu, 0, 0)
				return slabcore.Ref{}, err
			}
			continue
		}
		oomTimeouts = 0
		// Spill every CPU's latent ring to the latent slabs, then
		// reconcile them across the nodes so freed-up slabs can be
		// found by the retry: objects parked in another CPU's ring are
		// otherwise out of this CPU's reach until that CPU allocates.
		// Another CPU may win the refill race, but per Algorithm 1
		// (lines 31-32) the allocation keeps waiting as long as deferred
		// objects are pending: deferral is the system's guarantee that
		// memory is coming back.
		c.spillRings(cl.own)
		for _, n := range c.base.NodesArr {
			c.reconcileNode(n)
		}
	}
}

// mergeCaches implements MERGE_CACHES (lines 60-65): move latent objects
// whose grace period has elapsed into the object cache, stopping when it
// is full. Caller holds cl's cache lock. Returns the number merged.
//
// Cookies are monotone along a CPU's latent ring, so the merge pops an
// elapsed prefix from its head in O(k): one comparison per merged entry
// against the cached grace-period poll (elapsedLocal) and at most one
// read of the engine's shared state.
//
//prudence:requires PerCPUCache
func (c *Cache) mergeCaches(cl *cpuLocal) int {
	room := cl.objs.Size - cl.objs.Len()
	n := 0
	// The first unelapsed entry ends the eligible prefix.
	for n < room && cl.latent.len() > 0 && c.elapsedLocal(cl, cl.latent.at(0).cookie) {
		cl.objs.Put(cl.latent.pop().ref)
		n++
	}
	if n > 0 {
		c.latentTotal.Add(int64(-n))
	}
	return n
}

// refill implements REFILL_OBJECT_CACHE (lines 13-30): partial refill
// sized by the latent backlog, selecting slabs to minimize total
// fragmentation. Objects move by whole freelist segments (FillFrom),
// one splice per selected slab under the node lock. Caller holds cl's
// cache lock.
//
//prudence:requires PerCPUCache
func (c *Cache) refill(cpu int, cl *cpuLocal) {
	// Chaos: a failed refill leaves the object cache empty; Malloc falls
	// through to grow (and eventually the OOM path).
	//prudence:fault_point
	if fault.Fire(fault.RefillFail) {
		return
	}
	full := cl.objs.Size - cl.objs.Len()
	want := full
	if !c.alloc.opts.DisablePartialRefill {
		// Line 14: leave room for the latent objects that will merge in
		// after the grace period.
		want = cl.objs.Size - c.mergeBound(cl) - cl.objs.Len()
	}
	partial := want < full
	if floor := (cl.objs.Size + 1) / 2; want < floor && full >= floor {
		// Line 14's o-d sizing can degenerate to zero-or-one-object
		// refills when a defer storm pins the latent cache at its
		// limit. The merge loop cannot overflow the object cache (it
		// stops at capacity), so a floor of half a cache only trades
		// merge headroom for an order of magnitude fewer node-lock
		// crossings.
		want = floor
	}
	if want <= 0 {
		want = 1
	}
	node := c.base.NodeFor(cpu)
	moved := 0
	node.Lock()
	for want > 0 {
		s := c.selectSlab(node, cl.elapsedFn)
		if s == nil {
			break
		}
		got := cl.objs.FillFrom(s, want)
		want -= got
		moved += got
		node.Move(s, c.placement(s))
		if got == 0 {
			break
		}
	}
	node.Unlock()
	if moved > 0 {
		c.base.Ctr.Refills.Add(1)
		p := int64(0)
		if partial {
			c.base.Ctr.PartialFills.Add(1)
			p = 1
		}
		c.base.Trace(trace.KindRefill, cpu, int64(moved), p)
	}
}

// placement returns the node list a slab belongs on under Prudence's
// hint-aware policy (predicted list) or the conventional one when
// pre-movement is disabled.
func (c *Cache) placement(s *slabcore.Slab) slabcore.ListID {
	if c.alloc.opts.DisablePreMove {
		return slabcore.HomeList(s)
	}
	return slabcore.PredictedList(s)
}

// selectSlab picks the slab to refill from (lines 17-21 plus the §4.2
// "Reduces total fragmentation" policy): scan up to SlabScanLimit
// partial slabs, reconciling their latent entries, and prefer the slab
// with the most live objects, skipping slabs whose live objects are
// mostly deferred so they can drain to empty. Falls back to the free
// list. elapsed is the caller's grace-period poll (refill passes the
// CPU's cached one so a scan costs at most one shared-state read).
// Caller holds the node lock. Returns nil if nothing allocatable.
func (c *Cache) selectSlab(node *slabcore.Node, elapsed func(gsync.Cookie) bool) *slabcore.Slab {
	var best, fallback *slabcore.Slab
	var misplaced []*slabcore.Slab
	bestScore := -1
	scan := c.alloc.opts.SlabScanLimit
	node.WalkPartial(scan, func(s *slabcore.Slab) bool {
		if s.LatentCount() > 0 {
			if n := s.Reconcile(elapsed, c.base.Cfg.Poison); n > 0 {
				c.latentTotal.Add(int64(-n))
				// Reconciliation may have emptied the slab entirely;
				// re-home it after the walk or it strands on the
				// partial list where shrink never finds it.
				if c.placement(s) != s.List() {
					misplaced = append(misplaced, s)
				}
			}
		}
		if s.FreeCount() == 0 {
			return true // nothing to take; keep walking
		}
		if c.alloc.opts.DisableSlabSelection {
			best = s
			return false
		}
		// "Mostly deferred": more objects awaiting the grace period
		// than live; leave it to drain (Figure 5's slab B).
		if s.LatentCount() >= s.InUse() && s.LatentCount() > 0 {
			if fallback == nil {
				fallback = s
			}
			return true
		}
		// Fullest-first packs allocations into already-committed slabs,
		// letting sparse slabs drain — minimizing f_t.
		score := s.InUse()*1024 - s.LatentCount()
		if score > bestScore {
			bestScore = score
			best = s
		}
		return true
	})
	for _, s := range misplaced {
		if s != best && s != fallback {
			node.Move(s, c.placement(s))
		}
	}
	if best != nil {
		return best
	}
	// Free-list slabs may hold latent entries (pre-moved all-latent
	// slabs); reconcile to see if one is allocatable yet.
	for s := node.FirstFree(); s != nil; s = s.NextInList() {
		if s.LatentCount() > 0 {
			if n := s.Reconcile(elapsed, c.base.Cfg.Poison); n > 0 {
				c.latentTotal.Add(int64(-n))
			}
		}
		if s.FreeCount() > 0 {
			return s
		}
	}
	// Prefer a mostly-deferred partial slab over growing (§4.2: such
	// slabs are avoided "unless it needs to grow the slab cache").
	return fallback
}

// reconcileNode promotes elapsed latent objects in all of a node's
// slabs and fixes up placements, returning the number promoted. Called
// from the OOM-delay retry path and Drain.
func (c *Cache) reconcileNode(node *slabcore.Node) int {
	node.Lock()
	var moved []*slabcore.Slab
	total := 0
	walk := func(first *slabcore.Slab) {
		for s := first; s != nil; s = s.NextInList() {
			if s.LatentCount() > 0 {
				if n := s.Reconcile(c.elapsed, c.base.Cfg.Poison); n > 0 {
					c.latentTotal.Add(int64(-n))
					total += n
				}
			}
			// Re-home any slab whose placement drifted (e.g. it was
			// reconciled by an earlier pass that could not move it).
			if c.placement(s) != s.List() {
				moved = append(moved, s)
			}
		}
	}
	walk(node.FirstFull())
	walk(node.FirstPartial())
	walk(node.FirstFree())
	for _, s := range moved {
		node.Move(s, c.placement(s))
	}
	node.Unlock()
	return total
}

// Free implements alloc.Cache's immediate free. The flush size is
// latent-aware: more objects are flushed when the latent cache holds
// more deferred objects (§4.2 "Object cache flush").
func (c *Cache) Free(cpu int, r slabcore.Ref) {
	if d := c.base.Debugger(); d != nil {
		d.OnFree(r, cpu)
	}
	c.base.Ctr.IncFrees(cpu)
	c.base.UserFree(cpu)
	cl := c.percpu[cpu]
	cl.objs.Lock()
	cl.freesSince++
	cl.predFrees++
	cl.objs.Put(r)
	if cl.objs.Len() <= cl.objs.Size {
		cl.objs.Unlock()
		return
	}
	c.flushLocked(cpu, cl)
	cl.objs.Unlock()
	_, promoted := c.base.ShrinkNode(c.base.NodeFor(cpu), c.base.Cfg.FreeSlabLimit, c.elapsed)
	c.latentTotal.Add(int64(-promoted))
}

// flushLocked flushes the object cache to the node lists; the amount
// flushed grows with the latent backlog, and — with the prediction
// extension — shrinks when freed objects are predicted to be
// reallocated shortly. Caller owns cpu and holds cl's cache lock.
//
//prudence:requires PerCPUCache
func (c *Cache) flushLocked(cpu int, cl *cpuLocal) {
	victims := cl.objs.TakeInto(cl.own.victims[:0], c.flushSize(cl))
	cl.own.victims = victims
	cl.predAllocs, cl.predFrees = 0, 0
	if len(victims) == 0 {
		return
	}
	c.base.Ctr.Flushes.Add(1)
	c.base.Trace(trace.KindFlush, cpu, int64(len(victims)), 0)
	c.base.ReleaseRefs(victims, c.placeFn)
	clear(victims) // the scratch must not keep destroyed slabs alive
}

// flushSize is how many objects flushLocked takes from the object
// cache: half of them plus the latent term, which a merge will refill.
// Caller holds cl's cache lock.
//
//prudence:requires PerCPUCache
func (c *Cache) flushSize(cl *cpuLocal) int {
	n := cl.objs.Len()/2 + c.mergeBound(cl)
	if c.alloc.opts.EnablePrediction {
		switch {
		case cl.predAllocs > cl.predFrees:
			// Allocation-heavy window: freed objects have short
			// "free lifetimes"; keep more of them cached.
			n = cl.objs.Len()/4 + c.mergeBound(cl)
		case cl.predFrees > 2*cl.predAllocs:
			// Teardown burst: these objects will not be re-needed
			// soon; return more of them.
			n = cl.objs.Len()*3/4 + c.mergeBound(cl)
		}
	}
	return n
}

// FreeDeferred implements the paper's Listing 2 turnkey API and
// Algorithm 1's FREE_DEFERRED (lines 34-51): stamp the object with the
// grace-period state and park it in the latent ring, spilling to the
// latent slabs when the ring is at its limit.
func (c *Cache) FreeDeferred(cpu int, r slabcore.Ref) {
	if d := c.base.Debugger(); d != nil {
		d.OnFree(r, cpu)
	}
	ctr := &c.base.Ctr
	ctr.IncDeferredFrees(cpu)
	c.base.UserFree(cpu)
	cookie := c.alloc.gp.Snapshot() // line 35: GET_GRACE_PERIOD_STATE
	c.alloc.gp.NeedGP()

	cl := c.percpu[cpu]
	limit := c.latentLimit()

	cl.objs.Lock()
	cl.freesSince++
	if cl.latent.len() < limit { // line 39: fast path
		cl.latent.push(latentObj{ref: r, cookie: cookie})
		c.latentTotal.Add(1)
		if cl.objs.Len()+cl.latent.len() > limit { // lines 41-43
			c.armPreflush(cpu, cl)
		}
		cl.objs.Unlock()
		return
	}
	// Lines 45-48: flush the object cache, merge (frees latent space if
	// a grace period elapsed meanwhile), and retry the fast path.
	c.flushLocked(cpu, cl)
	c.mergeCaches(cl)
	if cl.latent.len() < limit {
		cl.latent.push(latentObj{ref: r, cookie: cookie})
		c.latentTotal.Add(1)
		cl.objs.Unlock()
		return
	}
	// Lines 49-51: overflow goes to latent slabs. Spill the oldest half
	// of the limit, at most latentSpill (more if pressure just lowered
	// the limit), in one batch — they elapse soonest and will be
	// reconciled where they lie — rather than paying a node-lock
	// round-trip per deferred object, and keep the newest, including
	// the current one, in the ring for cheap merging.
	spill := cl.latent.len() - limit + min(max(limit/2, 1), latentSpill)
	cl.own.batch = cl.latent.popInto(cl.own.batch[:0], spill)
	cl.latent.push(latentObj{ref: r, cookie: cookie})
	c.latentTotal.Add(1)
	cl.objs.Unlock()

	// Spilling means the deferred-free rate has outrun grace-period
	// progress (merge could not free latent space): expedite.
	c.alloc.gp.ExpediteGP()
	c.spillLatentBatch(cl.own)
}

// maybeShrink shrinks the node's free list at most once per completed
// grace period: latent-blocked slabs cannot become reclaimable without
// a new grace period, and scanning them repeatedly under the node lock
// would starve the other CPUs (and thereby the grace period itself).
func (c *Cache) maybeShrink(node *slabcore.Node) {
	gate := &c.shrinkGate[node.ID()]
	gp := c.alloc.gp.GPsCompleted() + 1 // +1: GP 0 state must still allow the first shrink
	for {
		last := gate.Load()
		if gp == last {
			return
		}
		if gate.CompareAndSwap(last, gp) {
			break
		}
	}
	freed, promoted := c.base.ShrinkNode(node, c.base.Cfg.FreeSlabLimit, c.elapsed)
	c.latentTotal.Add(int64(-promoted))
	if freed > 0 {
		c.base.Trace(trace.KindShrink, -1, int64(freed), 0)
	}
}

// armPreflush schedules an idle-time pre-flush for this CPU if one is
// not already queued. Caller holds cl's cache lock.
//
//prudence:requires PerCPUCache
func (c *Cache) armPreflush(cpu int, cl *cpuLocal) {
	if c.alloc.opts.DisablePreFlush || cl.preflushArmed {
		return
	}
	cl.preflushArmed = true
	c.alloc.machine.CPU(cpu).ScheduleIdle(cl.preflushFn)
}

// preflush runs on the CPU's idle worker (§4.2 "Latent cache
// pre-flush"): it moves deferred objects from the latent ring to their
// latent slabs so the eventual merge cannot overflow the object cache,
// working aggressively when frees outpace allocations and lazily
// otherwise, and stopping once object+latent counts fit the ring's
// limit.
func (c *Cache) preflush(cpu int) {
	cl := c.percpu[cpu]
	// Chaos: delay the idle-time flush of latent objects.
	//prudence:fault_point
	fault.Sleep(fault.LatentFlushDelay)
	for {
		limit := c.latentLimit()
		// The idle worker is a visitor to the workload goroutine's
		// cache: take the deferential slow path so an armed pre-flush
		// never competes with the owner's fast path for the lock.
		cl.objs.LockRemote()
		// Merge first: if a grace period completed during pre-flush the
		// safe objects go to the object cache, not the latent slab.
		c.mergeCaches(cl)
		excess := cl.objs.Len() + cl.latent.len() - limit
		if excess <= 0 {
			cl.preflushArmed = false
			cl.allocsSince, cl.freesSince = 0, 0
			cl.objs.Unlock()
			return
		}
		aggressive := cl.freesSince >= cl.allocsSince ||
			cl.latent.len() >= limit-1
		batch := excess
		if !aggressive && batch > 2 {
			// Lazy mode: a high allocation rate will drain the object
			// cache by itself; trickle small batches and yield.
			batch = 2
		}
		batch = min(batch, cl.latent.len())
		if batch == 0 {
			cl.preflushArmed = false
			cl.objs.Unlock()
			return
		}
		cl.idle.batch = cl.latent.popInto(cl.idle.batch[:0], batch)
		cl.objs.Unlock()

		c.base.Ctr.PreFlushes.Add(1)
		c.base.Trace(trace.KindPreFlush, cpu, int64(batch), 0)
		c.spillLatentBatch(cl.idle)
	}
}

// spillLatentBatch moves sc.batch's latent entries into their latent
// slabs under one node-lock acquisition per node, pre-moving each
// touched slab once. Batching is what lets pre-flush spread node-list
// work over idle time instead of adding a lock round-trip per deferred
// object. The entries stay counted in latentTotal. sc.batch is consumed.
func (c *Cache) spillLatentBatch(sc *spillScratch) {
	for _, node := range c.base.NodesArr {
		locked := false
		for _, lo := range sc.batch {
			if lo.ref.Slab.Node() != node {
				continue
			}
			if !locked {
				node.Lock()
				locked = true
			}
			lo.ref.Slab.PushLatent(lo.ref.Idx, lo.cookie)
		}
		if !locked {
			continue
		}
		if !c.alloc.opts.DisablePreMove {
			// With every push in, a slab's predicted list is final: the
			// first of its entries moves it, the rest find it in place.
			for _, lo := range sc.batch {
				s := lo.ref.Slab
				if s.Node() != node {
					continue
				}
				if want := slabcore.PredictedList(s); want != s.List() {
					node.Move(s, want)
					c.base.Ctr.PreMoves.Add(1)
					c.base.Trace(trace.KindPreMove, -1, int64(want), 0)
				}
			}
		}
		freeOver := node.FreeSlabs() > c.base.Cfg.FreeSlabLimit
		node.Unlock()
		if freeOver {
			c.maybeShrink(node)
		}
	}
	clear(sc.batch)
	sc.batch = sc.batch[:0]
}

// spillRings moves every CPU's latent ring to the latent slabs, where
// reconciliation makes the objects reachable from any CPU. Used by the
// OOM-delay path and Drain; sc must be the caller's own scratch.
func (c *Cache) spillRings(sc *spillScratch) {
	for _, cl := range c.percpu {
		cl.objs.LockRemote()
		sc.batch = cl.latent.popInto(sc.batch[:0], cl.latent.len())
		cl.objs.Unlock()
		c.spillLatentBatch(sc)
	}
}

// Drain implements alloc.Cache: merge/flush everything and return all
// reclaimable slabs, waiting out grace periods for latent objects.
func (c *Cache) Drain() {
	var sc spillScratch
	for {
		// Flush per-CPU object caches and spill latent rings to slabs.
		for _, cl := range c.percpu {
			cl.objs.LockRemote()
			c.mergeCaches(cl)
			objs := cl.objs.TakeAll()
			cl.objs.Unlock()
			if len(objs) > 0 {
				c.base.Ctr.Flushes.Add(1)
				c.base.ReleaseRefs(objs, c.placeFn)
			}
		}
		c.spillRings(&sc)
		for _, n := range c.base.NodesArr {
			c.reconcileNode(n)
			_, promoted := c.base.ShrinkNode(n, 0, c.elapsed)
			c.latentTotal.Add(int64(-promoted))
		}
		if c.latentTotal.Load() == 0 && c.percpuEmpty() {
			return
		}
		// A stopped backend can never elapse the remaining latent
		// cookies (Synchronize returns immediately once stopped), so
		// looping would spin forever. This is the teardown race a
		// long-running service's Close hits: give up on the latent
		// remainder — the arena behind it is being released anyway.
		if c.alloc.gp.Stopped() {
			return
		}
		// Latent objects remain, or a concurrent idle pre-flush merged
		// objects into a CPU cache after we flushed it; wait out a
		// grace period and retry.
		c.alloc.gp.Synchronize()
	}
}

// percpuEmpty verifies under the per-CPU locks that no objects remain
// in any object or latent cache. Needed because the idle pre-flush
// worker can merge elapsed latent objects into a CPU cache concurrently
// with Drain's flush pass.
func (c *Cache) percpuEmpty() bool {
	for _, cl := range c.percpu {
		cl.objs.LockRemote()
		empty := cl.objs.Len() == 0 && cl.latent.len() == 0
		cl.objs.Unlock()
		if !empty {
			return false
		}
	}
	return true
}

// Audit verifies the cache's structural invariants (see slabcore.Audit).
func (c *Cache) Audit() error { return c.base.Audit() }

// EnableDebug attaches SLUB_DEBUG-style red zones and owner tracking to
// this cache. Must be called before the first allocation when red zones
// are requested.
func (c *Cache) EnableDebug(cfg slabcore.DebugConfig) *slabcore.Debugger {
	return c.base.EnableDebug(cfg)
}

// SetTrace attaches an event ring to this cache (nil detaches).
func (c *Cache) SetTrace(r *trace.Ring) { c.base.SetTrace(r) }
