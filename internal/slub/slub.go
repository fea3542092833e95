// Package slub implements the baseline allocator: a SLUB-model slab
// allocator whose deferred frees go through the synchronization
// mechanism, exactly as in the paper's Listing 1.
//
// The allocator itself never sees deferred objects: FreeDeferred
// registers an RCU callback that performs an ordinary Free once the
// callback processor gets around to it. Everything the paper's §3
// attributes to this arrangement — bursty freeing when callbacks drain
// after a grace period, extended object lifetimes from throttled
// processing, the resulting object cache and slab churn, and the OOM
// of Figure 3 — emerges from this code under load.
package slub

import (
	"sync"

	"prudence/internal/alloc"
	"prudence/internal/fault"
	"prudence/internal/metrics"
	"prudence/internal/pagealloc"
	"prudence/internal/slabcore"
	"prudence/internal/stats"
	gsync "prudence/internal/sync"
	"prudence/internal/trace"
)

// Allocator is the SLUB-model allocator.
type Allocator struct {
	pages *pagealloc.Allocator
	sync  gsync.Backend
	cpus  int

	// mu guards the cache registry only; it ranks below every
	// allocation-path lock and is never held across one.
	//
	//prudence:lockorder 5
	mu     sync.Mutex
	caches []alloc.Cache //prudence:guarded_by mu
}

var _ alloc.Allocator = (*Allocator)(nil)

// New creates a SLUB allocator over the given page allocator. r is the
// reclamation backend used to defer frees — any registered scheme (rcu,
// ebr, hp, nebr) works, since the allocator only needs RetireObject and
// Barrier; cpus is the machine's CPU count.
func New(pages *pagealloc.Allocator, r gsync.Backend, cpus int) *Allocator {
	return &Allocator{pages: pages, sync: r, cpus: cpus}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "slub" }

// NewCache implements alloc.Allocator.
func (a *Allocator) NewCache(cfg slabcore.CacheConfig) alloc.Cache {
	cfg.CPUs = a.cpus
	c := &Cache{
		alloc: a,
		base:  slabcore.NewBase(a.pages, cfg),
	}
	c.cpuCaches = make([]*slabcore.PerCPUCache, a.cpus)
	for i := range c.cpuCaches {
		c.cpuCaches[i] = slabcore.NewPerCPUCache(c.base.Cfg.CacheSize)
	}
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

// RegisterMetrics implements alloc.Allocator. SLUB's reclamation lag
// (the RCU callback backlog) lives in the engine, which registers its
// own series; only the shared per-cache families are added here.
func (a *Allocator) RegisterMetrics(r *metrics.Registry) {
	alloc.RegisterCacheMetrics(r, a)
}

// Cache is one SLUB slab cache.
type Cache struct {
	alloc     *Allocator
	base      *slabcore.Base
	cpuCaches []*slabcore.PerCPUCache
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

// Malloc implements alloc.Cache. The fast path is a pop from the
// current CPU's object cache; a miss refills the cache from the node
// lists, growing the slab cache from the page allocator if needed.
func (c *Cache) Malloc(cpu int) (slabcore.Ref, error) {
	cc := c.cpuCaches[cpu]
	ctr := &c.base.Ctr
	ctr.IncAllocs(cpu)

	for attempt := 0; ; attempt++ {
		cc.Lock()
		if r := cc.TryGet(); !r.IsZero() {
			cc.Unlock()
			ctr.IncCacheHits(cpu)
			c.base.UserAlloc(cpu)
			if d := c.base.Debugger(); d != nil {
				d.OnAlloc(r, cpu)
			}
			return r, nil
		}

		// Slow path: refill from the node lists.
		c.refill(cpu, cc)
		if r := cc.TryGet(); !r.IsZero() {
			cc.Unlock()
			c.base.UserAlloc(cpu)
			if d := c.base.Debugger(); d != nil {
				d.OnAlloc(r, cpu)
			}
			return r, nil
		}

		// Slower path: grow the slab cache by one slab and refill again.
		// As in core, the stand-in grows under the cache lock and
		// accepts the page allocator's bounded zeroer wait.
		node := c.base.NodeFor(cpu)
		if _, err := c.base.NewSlab(node); err != nil { //prudence:nolint:sleepcheck grow-under-cache-lock stand-in: the zeroer wait in pagealloc is bounded
			cc.Unlock()
			ctr.OOMs.Add(1)
			c.base.Trace(trace.KindOOM, cpu, 0, 0)
			return slabcore.Ref{}, err
		}
		c.base.Trace(trace.KindGrow, cpu, 1, 0)
		c.refill(cpu, cc)
		r := cc.TryGet()
		cc.Unlock()
		if r.IsZero() {
			// The fresh slab's objects were taken by other CPUs between
			// our grow and refill; retry a bounded number of times.
			if attempt < 10 {
				continue
			}
			ctr.OOMs.Add(1)
			c.base.Trace(trace.KindOOM, cpu, 0, 0)
			return slabcore.Ref{}, pagealloc.ErrOutOfMemory
		}
		c.base.UserAlloc(cpu)
		if d := c.base.Debugger(); d != nil {
			d.OnAlloc(r, cpu)
		}
		return r, nil
	}
}

// refill moves objects from node-list slabs into the CPU cache until it
// is full or the node has nothing allocatable. Whole freelist segments
// are spliced per slab (FillFrom), so the node lock is held for one
// batched copy per slab rather than a per-object push/pop loop. Caller
// holds the cache lock.
func (c *Cache) refill(cpu int, cc *slabcore.PerCPUCache) {
	// Chaos: a failed refill sends Malloc to the grow path.
	//prudence:fault_point
	if fault.Fire(fault.RefillFail) {
		return
	}
	node := c.base.NodeFor(cpu)
	want := cc.Size - cc.Len()
	if want <= 0 {
		return
	}
	moved := 0
	node.Lock()
	for want > 0 {
		// SLUB picks the first slab on the partial list, then free
		// slabs.
		s := node.FirstPartial()
		if s == nil {
			s = node.FirstFree()
		}
		if s == nil {
			break
		}
		got := cc.FillFrom(s, want)
		want -= got
		moved += got
		node.Move(s, slabcore.HomeList(s))
		if got == 0 {
			break
		}
	}
	node.Unlock()
	if moved > 0 {
		c.base.Ctr.Refills.Add(1)
		c.base.Trace(trace.KindRefill, cpu, int64(moved), 0)
	}
}

// Free implements alloc.Cache: push to the CPU cache, flushing half of
// it to the node lists on overflow, and shrinking the slab cache when
// free slabs exceed the threshold.
func (c *Cache) Free(cpu int, r slabcore.Ref) {
	if d := c.base.Debugger(); d != nil {
		d.OnFree(r, cpu)
	}
	c.base.Ctr.IncFrees(cpu)
	c.base.UserFree(cpu)
	c.freeObj(cpu, r, false)
}

// freeObj is the accounting-free inner free used by both Free and the
// RCU callback path. remote selects the visitor lock protocol: the RCU
// callback processor is a cross-CPU visitor to the target CPU's cache
// and must defer to its owner rather than compete with it.
func (c *Cache) freeObj(cpu int, r slabcore.Ref, remote bool) {
	cc := c.cpuCaches[cpu]
	if remote {
		cc.LockRemote()
	} else {
		cc.Lock()
	}
	cc.Put(r)
	if cc.Len() <= cc.Size {
		cc.Unlock()
		return
	}
	// Overflow: flush the older half of the cache to the node lists.
	// The release runs under the cache lock, as core's flush does, so
	// the victims can use the cache's own scratch: a flush allocates
	// nothing.
	victims := cc.TakeInto(cc.Victims[:0], cc.Len()/2)
	cc.Victims = victims
	c.base.Ctr.Flushes.Add(1)
	c.base.Trace(trace.KindFlush, cpu, int64(len(victims)), 0)
	c.base.ReleaseRefs(victims, slabcore.HomeList)
	clear(victims) // the scratch must not keep destroyed slabs alive
	cc.Unlock()
	node := c.base.NodeFor(cpu)
	if freed, _ := c.base.ShrinkNode(node, c.base.Cfg.FreeSlabLimit, nil); freed > 0 {
		c.base.Trace(trace.KindShrink, cpu, int64(freed), 0)
	}
}

// FreeDeferred implements alloc.Cache using the paper's Listing 1: the
// writer retires the object through the reclamation backend and it
// stays invisible to the allocator until the backend frees it after its
// grace period (plus whatever throttling delay the backend imposes).
func (c *Cache) FreeDeferred(cpu int, r slabcore.Ref) {
	if d := c.base.Debugger(); d != nil {
		d.OnFree(r, cpu)
	}
	c.base.Ctr.IncDeferredFrees(cpu)
	c.base.UserFree(cpu)
	// Non-closure retirement: the ref travels as a (slab, idx) payload
	// in the backend's retire record. A closure here would heap-
	// allocate on every deferred free — the reclamation scheme
	// generating the very garbage it exists to manage (the BENCH_PR8
	// GC-churn finding).
	c.alloc.sync.RetireObject(cpu, c, r.Slab, uint64(r.Idx))
}

// ReclaimRetired implements sync.Reclaimer: the deferred-free landing
// point for refs retired by FreeDeferred. obj is the ref's slab and
// idx its object index. The backend's processor is a cross-CPU visitor
// to cpu's cache, hence the remote free protocol.
func (c *Cache) ReclaimRetired(cpu int, obj any, idx uint64) {
	c.freeObj(cpu, slabcore.Ref{Slab: obj.(*slabcore.Slab), Idx: uint32(idx)}, true)
}

// Drain implements alloc.Cache: wait for outstanding deferred frees to
// be processed, then flush every CPU cache and release all free slabs.
func (c *Cache) Drain() {
	// Wait for all deferred frees queued so far to be processed
	// (retirements are per-CPU FIFO, so the barrier covers this cache's).
	c.alloc.sync.Barrier()
	for _, cc := range c.cpuCaches {
		cc.LockRemote()
		objs := cc.TakeAll()
		cc.Unlock()
		if len(objs) > 0 {
			c.base.Ctr.Flushes.Add(1)
			c.base.ReleaseRefs(objs, slabcore.HomeList)
		}
	}
	for _, node := range c.base.NodesArr {
		c.base.ShrinkNode(node, 0, nil)
	}
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
