// Package slabcore provides the slab machinery shared by the SLUB
// baseline (internal/slub) and Prudence (internal/core): slab layout
// over buddy-allocated page runs, per-slab object freelists, intrusive
// full/partial/free node lists under a node lock, per-CPU object caches,
// and the sizing heuristics both allocators reuse (§4.3: Prudence
// deliberately reuses SLUB's empirically tuned cache size, slab size and
// shrink threshold so that measured differences come from deferred-object
// handling, not tuning).
package slabcore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"prudence/internal/memarena"
	"prudence/internal/pagealloc"
	"prudence/internal/stats"
	gsync "prudence/internal/sync"
	"prudence/internal/trace"
	"prudence/internal/view"
)

// PoisonByte fills freed objects when CacheConfig.Poison is set, so that
// tests can detect use-after-free writes through stale references.
const PoisonByte = 0xA5

// CacheConfig describes one slab cache (one object type/size).
type CacheConfig struct {
	// Name identifies the cache in reports (e.g. "filp", "kmalloc-64").
	Name string
	// ObjectSize is the size of each object in bytes.
	ObjectSize int
	// SlabOrder is the page order of each slab (2^SlabOrder pages).
	SlabOrder int
	// CacheSize is the capacity of each per-CPU object cache.
	CacheSize int
	// FreeSlabLimit is the number of free slabs a node keeps before the
	// cache is shrunk (SLUB's min_partial analogue).
	FreeSlabLimit int
	// Nodes is the number of NUMA nodes the cache spreads slabs over.
	Nodes int
	// CPUs is the number of CPUs (per-CPU caches).
	CPUs int
	// Poison fills freed object memory with PoisonByte so tests can
	// detect use-after-free writes.
	Poison bool
	// DisableColoring turns off slab coloring (the Bonwick cache-line
	// offset scheme both allocators reuse, §4.3).
	DisableColoring bool
}

// DefaultConfig returns SLUB-like heuristics for an object size:
// slabs sized so they hold a reasonable number of objects, and object
// caches sized down as objects get larger (the paper relies on this in
// explaining why Figure 6's improvement grows with object size: "larger
// objects are normally optimized for memory efficiency, hence have fewer
// objects in object cache and smaller slabs").
func DefaultConfig(name string, objectSize, cpus int) CacheConfig {
	if objectSize <= 0 {
		panic(fmt.Sprintf("slabcore: non-positive object size %d", objectSize))
	}
	order := 0
	for order < 3 && (memarena.PageSize<<order)/objectSize < 16 {
		order++
	}
	cacheSize := 2 * memarena.PageSize / objectSize
	if cacheSize > 120 {
		cacheSize = 120
	}
	if cacheSize < 4 {
		cacheSize = 4
	}
	return CacheConfig{
		Name:          name,
		ObjectSize:    objectSize,
		SlabOrder:     order,
		CacheSize:     cacheSize,
		FreeSlabLimit: 5,
		Nodes:         1,
		CPUs:          cpus,
	}
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.CPUs <= 0 {
		c.CPUs = 1
	}
	if c.FreeSlabLimit <= 0 {
		c.FreeSlabLimit = 5
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	return c
}

// ObjectsPerSlab returns how many objects fit in one slab.
func (c CacheConfig) ObjectsPerSlab() int {
	return (memarena.PageSize << c.SlabOrder) / c.ObjectSize
}

// ListID identifies which node list a slab is on.
type ListID uint8

// Slab list membership states.
const (
	ListNone ListID = iota // owned by nobody (being constructed/destroyed)
	ListFull
	ListPartial
	ListFree
)

func (l ListID) String() string {
	switch l {
	case ListNone:
		return "none"
	case ListFull:
		return "full"
	case ListPartial:
		return "partial"
	case ListFree:
		return "free"
	}
	return fmt.Sprintf("ListID(%d)", uint8(l))
}

// latentEntry records one deferred object resident in a latent slab,
// stamped with the grace-period cookie after which it may be reused.
type latentEntry struct {
	cookie gsync.Cookie
	idx    uint32
}

// Slab is one run of pages carved into equal-size objects.
//
// Mutable state (freelist, latent entries, list membership) is protected
// by the owning Node's lock.
type Slab struct {
	run     pagealloc.Run
	base    []byte
	objSize int
	cap     int
	// color is the cache-line offset of the first object within the
	// slab (Bonwick slab coloring): successive slabs start their
	// objects at different offsets so that the same-index objects of
	// different slabs do not all contend for the same cache lines.
	color int

	// free is the stack of free object indices.
	//prudence:guarded_by Node
	free []uint32
	//prudence:guarded_by Node
	latent []latentEntry
	// latentMin is the smallest cookie among latent entries; Reconcile
	// is O(1) when even the oldest entry has not elapsed.
	//prudence:guarded_by Node
	latentMin gsync.Cookie
	// pad is the per-side red-zone width (0 unless debugging).
	pad int

	// inUse counts objects not on the freelist and not latent: objects
	// held by users OR sitting in per-CPU object/latent caches.
	//prudence:guarded_by Node
	inUse int

	// touched is scratch state for ReleaseRefs: marks the slabs a batch
	// pushed to, so list placement runs once per slab, not per object.
	// Guarded by the node lock; always false between batches.
	//prudence:guarded_by Node
	touched bool

	node *Node
	//prudence:guarded_by Node
	list ListID
	//prudence:guarded_by Node
	prev *Slab
	//prudence:guarded_by Node
	next *Slab
}

// Capacity returns the number of objects the slab holds.
func (s *Slab) Capacity() int { return s.cap }

// FreeCount returns the number of immediately allocatable objects.
// Caller must hold the node lock.
//
//prudence:requires Node
func (s *Slab) FreeCount() int { return len(s.free) }

// LatentCount returns the number of deferred objects parked in the
// latent slab. Caller must hold the node lock.
//
//prudence:requires Node
func (s *Slab) LatentCount() int { return len(s.latent) }

// InUse returns the number of objects neither free nor latent.
// Caller must hold the node lock.
//
//prudence:requires Node
func (s *Slab) InUse() int { return s.inUse }

// Node returns the NUMA node owning this slab.
func (s *Slab) Node() *Node { return s.node }

// List returns the node list the slab currently belongs to.
// Caller must hold the node lock.
//
//prudence:requires Node
func (s *Slab) List() ListID { return s.list }

// Ref is a reference to one object within a slab. The zero Ref is
// invalid; test with IsZero.
type Ref struct {
	Slab *Slab
	Idx  uint32
}

// IsZero reports whether the Ref is the zero (invalid) reference.
func (r Ref) IsZero() bool { return r.Slab == nil }

// Bytes returns the object's backing memory.
func (r Ref) Bytes() []byte {
	s := r.Slab
	off := s.color + int(r.Idx)*(s.objSize+2*s.pad) + s.pad
	return s.base[off : off+s.objSize : off+s.objSize]
}

// ViewOf returns a typed view of the object's memory. With the mmap
// arena backend object bytes live outside the Go heap, so T must be
// pointer-free (view.Of enforces this) and must fit the cache's object
// size. This — not a hand-rolled unsafe cast — is the supported way to
// store structured data in slab objects; prudence-vet's arenaunsafe
// analyzer rejects direct unsafe access everywhere outside
// internal/view.
func ViewOf[T any](r Ref) *T {
	return view.Of[T](r.Bytes())
}

// SliceOf returns the object's memory as a typed slice of n Ts, with
// the same constraints as ViewOf.
func SliceOf[T any](r Ref, n int) []T {
	return view.Slice[T](r.Bytes(), n)
}

// PopFree removes one object from the slab freelist. Caller must hold
// the node lock and ensure FreeCount() > 0.
//
//prudence:requires Node
func (s *Slab) PopFree() Ref {
	idx := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.inUse++
	return Ref{Slab: s, Idx: idx}
}

// PushFree returns an object to the slab freelist. Caller must hold the
// node lock.
//
//prudence:requires Node
func (s *Slab) PushFree(idx uint32, poison bool) {
	if poison {
		s.poisonObject(idx)
	}
	s.free = append(s.free, idx)
	s.inUse--
	if s.inUse < 0 {
		panic(fmt.Sprintf("slabcore: slab %v inUse went negative", s.run))
	}
}

// PushLatent parks a deferred object in the latent slab with its
// grace-period cookie. Caller must hold the node lock.
//
//prudence:requires Node
func (s *Slab) PushLatent(idx uint32, cookie gsync.Cookie) {
	if len(s.latent) == 0 || cookie < s.latentMin {
		s.latentMin = cookie
	}
	s.latent = append(s.latent, latentEntry{cookie: cookie, idx: idx})
	s.inUse--
	if s.inUse < 0 {
		panic(fmt.Sprintf("slabcore: slab %v inUse went negative (latent)", s.run))
	}
}

// poisonObject fills one object's user bytes with the poison pattern.
// Caller must hold the node lock.
//
//prudence:requires Node
func (s *Slab) poisonObject(idx uint32) {
	view.Fill((Ref{Slab: s, Idx: idx}).Bytes(), PoisonByte)
}

// Reconcile promotes latent objects whose grace period has elapsed onto
// the freelist and returns how many were promoted. Caller must hold the
// node lock. This is the lazy merge of latent slab into slab: like the
// paper's design it needs no per-object tracking by the synchronization
// mechanism — the allocator polls the grace-period state when it next
// touches the slab.
//
//prudence:requires Node
func (s *Slab) Reconcile(elapsed func(gsync.Cookie) bool, poison bool) int {
	if len(s.latent) == 0 {
		return 0
	}
	// Fast path: if even the oldest deferred object has not waited out
	// its grace period, nothing can be promoted. This keeps the
	// hot-path Reconcile calls (slab selection, shrink checks) O(1).
	if !elapsed(s.latentMin) {
		return 0
	}
	kept := s.latent[:0]
	promoted := 0
	for _, e := range s.latent {
		if elapsed(e.cookie) {
			if poison {
				s.poisonObject(e.idx)
			}
			s.free = append(s.free, e.idx)
			promoted++
		} else {
			kept = append(kept, e)
		}
	}
	s.latent = kept
	s.latentMin = 0
	for i, e := range s.latent {
		if i == 0 || e.cookie < s.latentMin {
			s.latentMin = e.cookie
		}
	}
	return promoted
}

// CheckPoison reports whether the object's memory still carries the
// poison pattern (i.e. nobody wrote to it while it was free).
func CheckPoison(r Ref) bool {
	for _, b := range r.Bytes() {
		if b != PoisonByte {
			return false
		}
	}
	return true
}

// slabList is an intrusive doubly-linked list of slabs. Lists live
// inside a Node and inherit its lock.
type slabList struct {
	//prudence:guarded_by Node
	head *Slab
	//prudence:guarded_by Node
	tail *Slab
	//prudence:guarded_by Node
	n int
}

//prudence:requires Node
func (l *slabList) pushFront(s *Slab) {
	s.prev = nil
	s.next = l.head
	if l.head != nil {
		l.head.prev = s
	}
	l.head = s
	if l.tail == nil {
		l.tail = s
	}
	l.n++
}

//prudence:requires Node
func (l *slabList) remove(s *Slab) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		l.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		l.tail = s.prev
	}
	s.prev, s.next = nil, nil
	l.n--
}

//prudence:requires Node
func (l *slabList) front() *Slab { return l.head }

//prudence:requires Node
func (l *slabList) len() int { return l.n }

// Node is one NUMA node's share of a slab cache: the full, partial and
// free slab lists and the lock covering them (the "node list lock" whose
// contention the paper's pre-flush and pre-movement optimizations are
// designed to spread out).
//
//prudence:lockorder 20
type Node struct {
	mu sync.Mutex
	id int
	//prudence:guarded_by Node
	full slabList
	//prudence:guarded_by Node
	partial slabList
	//prudence:guarded_by Node
	freeL slabList
}

// ID returns the node's index.
func (n *Node) ID() int { return n.id }

// Lock acquires the node list lock.
func (n *Node) Lock() { n.mu.Lock() }

// Unlock releases the node list lock.
func (n *Node) Unlock() { n.mu.Unlock() }

// FreeSlabs returns the number of slabs on the free list.
// Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) FreeSlabs() int { return n.freeL.len() }

// PartialSlabs returns the number of slabs on the partial list.
// Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) PartialSlabs() int { return n.partial.len() }

// FullSlabs returns the number of slabs on the full list.
// Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) FullSlabs() int { return n.full.len() }

// FirstPartial returns the head of the partial list (or nil).
// Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) FirstPartial() *Slab { return n.partial.front() }

// FirstFree returns the head of the free list (or nil).
// Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) FirstFree() *Slab { return n.freeL.front() }

// WalkPartial calls fn for up to limit slabs on the partial list,
// stopping early if fn returns false. Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) WalkPartial(limit int, fn func(*Slab) bool) {
	for s := n.partial.front(); s != nil && limit > 0; s = s.next {
		limit--
		if !fn(s) {
			return
		}
	}
}

//prudence:requires Node
func (n *Node) list(id ListID) *slabList {
	switch id {
	case ListFull:
		return &n.full
	case ListPartial:
		return &n.partial
	case ListFree:
		return &n.freeL
	}
	panic(fmt.Sprintf("slabcore: no list %v", id))
}

// Attach places a slab on the given list. The slab must not currently be
// on any list, and must belong to this node (a slab's node is fixed at
// creation: callers read slab.Node() without the lock to decide which
// lock to take). Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) Attach(s *Slab, id ListID) {
	if s.list != ListNone {
		panic(fmt.Sprintf("slabcore: attach of slab already on %v", s.list))
	}
	if s.node != nil && s.node != n {
		panic("slabcore: attach of slab to foreign node")
	}
	n.list(id).pushFront(s)
	s.list = id
}

// Detach removes a slab from whatever list it is on. Caller must hold
// the node lock.
//
//prudence:requires Node
func (n *Node) Detach(s *Slab) {
	if s.list == ListNone {
		panic("slabcore: detach of unattached slab")
	}
	n.list(s.list).remove(s)
	s.list = ListNone
}

// Move transfers a slab to another list. Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) Move(s *Slab, to ListID) {
	if s.list == to {
		return
	}
	n.Detach(s)
	n.Attach(s, to)
}

// HomeList computes the list a slab belongs on from its counts, with
// latent objects counted as still occupying the slab (the conventional
// SLUB view). Caller must hold the node lock.
//
//prudence:requires Node
func HomeList(s *Slab) ListID {
	switch {
	case len(s.free) == 0:
		return ListFull
	case s.inUse == 0 && len(s.latent) == 0:
		return ListFree
	default:
		return ListPartial
	}
}

// PredictedList computes the list a slab *will* belong on once its
// latent objects become free — the hint-based placement Prudence's slab
// pre-movement uses (§4.2). Caller must hold the node lock.
//
//prudence:requires Node
func PredictedList(s *Slab) ListID {
	switch {
	case s.inUse == 0:
		// Everything is free or about-to-be-free.
		return ListFree
	case len(s.free) == 0 && len(s.latent) == 0:
		return ListFull
	default:
		return ListPartial
	}
}

// Base owns the machinery common to a slab cache in either allocator:
// configuration, the page allocator, per-node lists, and counters.
type Base struct {
	Cfg      CacheConfig
	Pages    *pagealloc.Allocator
	NodesArr []*Node
	Ctr      stats.AllocCounters

	// LatentSlabs, set before the first grow by allocators that park
	// deferred objects in latent slabs, makes NewSlab size each slab's
	// latent list up front (it never outgrows the slab's capacity), so
	// parking allocates nothing.
	LatentSlabs bool

	// colorNext cycles slab colors (atomic; NewSlab runs concurrently).
	colorNext atomic.Uint32

	// badPageFrees counts page frees the buddy allocator rejected
	// (double free / wrong order). The slab is already detached when
	// that happens, so the pages are leaked rather than double-inserted;
	// the count keeps the degradation visible to Audit and tests.
	badPageFrees atomic.Uint64

	// ring, when non-nil, receives allocator events (see SetTrace).
	ring atomic.Pointer[trace.Ring]

	// redZonePad and debugger are set by EnableDebug before first use.
	redZonePad int
	debugger   *Debugger
}

// NewBase constructs the shared state for a cache.
func NewBase(pages *pagealloc.Allocator, cfg CacheConfig) *Base {
	cfg = cfg.withDefaults()
	if cfg.ObjectSize <= 0 {
		panic(fmt.Sprintf("slabcore: cache %q has non-positive object size", cfg.Name))
	}
	if cfg.ObjectsPerSlab() < 1 {
		panic(fmt.Sprintf("slabcore: cache %q objects do not fit in slab order %d", cfg.Name, cfg.SlabOrder))
	}
	b := &Base{Cfg: cfg, Pages: pages}
	b.NodesArr = make([]*Node, cfg.Nodes)
	for i := range b.NodesArr {
		b.NodesArr[i] = &Node{id: i}
	}
	return b
}

// Debugger returns the debugging state attached with EnableDebug, or
// nil.
func (b *Base) Debugger() *Debugger { return b.debugger }

// SetTrace attaches (or, with nil, detaches) an event ring. Recording
// is wait-free; the hook costs one atomic load when no ring is set.
func (b *Base) SetTrace(r *trace.Ring) {
	b.ring.Store(r)
}

// Trace records an event if a ring is attached.
func (b *Base) Trace(kind trace.Kind, cpu int, arg1, arg2 int64) {
	if r := b.ring.Load(); r != nil {
		r.Record(kind, cpu, arg1, arg2)
	}
}

// NodeFor maps a CPU to its NUMA node.
func (b *Base) NodeFor(cpu int) *Node {
	perNode := (b.Cfg.CPUs + len(b.NodesArr) - 1) / len(b.NodesArr)
	idx := cpu / perNode
	if idx >= len(b.NodesArr) {
		idx = len(b.NodesArr) - 1
	}
	return b.NodesArr[idx]
}

// NewSlab grows the cache by one slab on node n and attaches it to the
// free list. Caller must NOT hold the node lock (page allocation may
// block on the buddy allocator's own lock). Returns pagealloc.ErrOutOfMemory
// when the machine is out of pages.
func (b *Base) NewSlab(n *Node) (*Slab, error) {
	run, zeroed, err := b.Pages.AllocZeroed(b.Cfg.SlabOrder)
	if err != nil {
		return nil, err
	}
	capObjs := b.Cfg.ObjectsPerSlab()
	if b.redZonePad > 0 {
		capObjs = b.Cfg.ObjectsPerSlabPadded(b.redZonePad)
	}
	base := b.Pages.Bytes(run)
	color := 0
	stride := b.Cfg.ObjectSize + 2*b.redZonePad
	if !b.Cfg.DisableColoring {
		// Color in 64-byte cache-line steps, bounded by the slack left
		// after packing the objects.
		const line = 64
		if slack := len(base) - capObjs*stride; slack >= line {
			colors := slack/line + 1
			color = int(b.colorNext.Add(1)-1) % colors * line
		}
	}
	// Fresh slabs hand out zeroed memory, as kernel slab pages do; the
	// memset is also what makes a slab-cache grow operation distinctly
	// more expensive than an object-cache refill (§3.3's 14x vs 4x).
	// When the run came from the known-zero pool the cost was already
	// paid by an idle worker, so the grow path skips it.
	if !zeroed {
		view.Zero(base)
	}
	s := &Slab{
		run:     run,
		base:    base,
		objSize: b.Cfg.ObjectSize,
		cap:     capObjs,
		color:   color,
		pad:     b.redZonePad,
		free:    make([]uint32, capObjs),
		node:    n,
	}
	if b.LatentSlabs {
		s.latent = make([]latentEntry, 0, capObjs)
	}
	s.paintRedZones()
	for i := 0; i < capObjs; i++ {
		// LIFO order: lowest index on top for cache-friendly reuse.
		s.free[i] = uint32(capObjs - 1 - i)
	}
	b.Ctr.SlabGrown(1)
	n.Lock()
	n.Attach(s, ListFree)
	n.Unlock()
	return s, nil
}

// DestroySlab detaches a fully free slab and returns its pages. Caller
// must hold the node lock around the detach decision but NOT around this
// call; DestroySlab re-takes the lock.
func (b *Base) DestroySlab(s *Slab) {
	n := s.node
	n.Lock()
	if s.inUse != 0 || len(s.latent) != 0 {
		// Format while still holding the lock: reading the counts after
		// Unlock would race with concurrent slab mutations and could
		// report garbage in the panic message.
		msg := fmt.Sprintf("slabcore: destroying slab with inUse=%d latent=%d", s.inUse, len(s.latent))
		n.Unlock()
		panic(msg)
	}
	n.Detach(s)
	n.Unlock()
	if b.debugger != nil {
		b.debugger.forgetSlab(s)
	}
	if err := b.Pages.Free(s.run); err != nil {
		b.badPageFrees.Add(1)
	}
	b.Ctr.SlabShrunk(1)
}

// BadPageFrees reports how many slab page frees the buddy allocator
// rejected (the pages were leaked instead of double-inserted).
func (b *Base) BadPageFrees() uint64 { return b.badPageFrees.Load() }

// UserAlloc accounts one object handed to a user on cpu. The count
// lives in the CPU's padded counter shard, so the accounting that used
// to serialize every Malloc/Free behind a global mutex is now a local
// uncontended increment.
func (b *Base) UserAlloc(cpu int) { b.Ctr.UserAlloc(cpu) }

// UserFree accounts one object returned by a user on cpu (free or
// deferred). Cross-CPU frees make individual shards go negative;
// over-freeing is only detectable on the summed value, which Audit
// checks at quiescent points.
func (b *Base) UserFree(cpu int) { b.Ctr.UserFree(cpu) }

// Requested returns the number of objects currently held by users.
func (b *Base) Requested() int64 { return b.Ctr.Requested() }

// ReleaseRefs returns a batch of objects to their slabs' freelists with
// one node-lock acquisition per node (instead of per object) and one
// list-placement decision per touched slab (instead of per push). place
// maps each touched slab to its destination list — HomeList for the
// SLUB view, PredictedList-style policies for Prudence.
func (b *Base) ReleaseRefs(refs []Ref, place func(*Slab) ListID) {
	if len(refs) == 0 {
		return
	}
	for _, n := range b.NodesArr {
		locked := false
		for _, r := range refs {
			s := r.Slab
			if s.node != n {
				continue
			}
			if !locked {
				n.Lock()
				locked = true
			}
			s.PushFree(r.Idx, b.Cfg.Poison)
			s.touched = true
		}
		if !locked {
			continue
		}
		// A second pass over the batch places each touched slab once,
		// in first-touch order, without collecting them in a slice. Slabs
		// of other nodes are skipped unread: their touched flag is guarded
		// by their own node's lock.
		for _, r := range refs {
			if s := r.Slab; s.node == n && s.touched {
				s.touched = false
				n.Move(s, place(s))
			}
		}
		n.Unlock()
	}
}

// Fragmentation returns the paper's total fragmentation metric
// f_t = allocated/requested = (slabs × slab bytes)/(objects × object
// size), and its components. When no objects are live it returns the
// allocated byte count with a fragmentation of +Inf if any slabs remain,
// or 1.0 for an empty cache.
func (b *Base) Fragmentation() (ft float64, allocatedBytes, requestedBytes int64) {
	slabBytes := int64(memarena.PageSize << b.Cfg.SlabOrder)
	allocatedBytes = int64(b.Ctr.CurrentSlabs()) * slabBytes
	requestedBytes = b.Requested() * int64(b.Cfg.ObjectSize)
	switch {
	case requestedBytes > 0:
		ft = float64(allocatedBytes) / float64(requestedBytes)
	case allocatedBytes == 0:
		ft = 1.0
	default:
		ft = float64(allocatedBytes) // degenerate; callers report bytes
	}
	return ft, allocatedBytes, requestedBytes
}

// PerCPUCache is a stack of free object references owned by one CPU,
// guarded by an owner-core lock standing in for the kernel's
// local-IRQ-disable: the owning workload goroutine takes the fast path
// (Lock), and that CPU's background processors (RCU callback
// processor, idle pre-flush worker) plus cross-CPU drains take the
// deferential slow path (LockRemote). The struct is padded to 128
// bytes so adjacent CPUs' caches never false-share a cache line (or an
// adjacent-line prefetch pair).
//
//prudence:lockorder 10 spin
//prudence:padded 128
type PerCPUCache struct {
	lock OwnerLock
	//prudence:guarded_by PerCPUCache
	Objs []Ref
	// Victims is flush scratch for a caller that takes objects with
	// TakeInto and releases them before unlocking, so a flush
	// allocates nothing. It is cleared after each flush so it keeps no
	// destroyed slab alive.
	//
	//prudence:guarded_by PerCPUCache
	Victims []Ref
	Size    int // capacity (the "object cache size" o of §4.2)
	_       [128 - 4 /* lock */ - 4 /* align */ - 24 /* Objs */ - 24 /* Victims */ - 8] /* Size */ byte
}

// NewPerCPUCache creates a cache with the given capacity.
func NewPerCPUCache(size int) *PerCPUCache {
	return &PerCPUCache{Objs: make([]Ref, 0, size), Size: size}
}

// Lock acquires the cache lock on the owner-core fast path.
func (c *PerCPUCache) Lock() { c.lock.Lock() }

// LockRemote acquires the cache lock as a cross-CPU visitor, yielding
// to the owner under contention.
func (c *PerCPUCache) LockRemote() { c.lock.LockRemote() }

// TryLock attempts a single lock acquisition without spinning.
func (c *PerCPUCache) TryLock() bool { return c.lock.TryLock() }

// Unlock releases the cache lock.
func (c *PerCPUCache) Unlock() { c.lock.Unlock() }

// TryGet pops an object, returning a zero Ref if empty. Caller must
// hold the cache lock.
//
//prudence:requires PerCPUCache
func (c *PerCPUCache) TryGet() Ref {
	if len(c.Objs) == 0 {
		return Ref{}
	}
	r := c.Objs[len(c.Objs)-1]
	c.Objs = c.Objs[:len(c.Objs)-1]
	return r
}

// Put pushes an object. Caller must hold the cache lock and ensure
// Len < Size or accept growing past Size (flushing is the caller's
// policy decision).
//
//prudence:requires PerCPUCache
func (c *PerCPUCache) Put(r Ref) {
	c.Objs = append(c.Objs, r)
}

// Len returns the number of cached objects. Caller must hold the cache
// lock.
//
//prudence:requires PerCPUCache
func (c *PerCPUCache) Len() int { return len(c.Objs) }

// FillFrom splices up to n objects from the slab's freelist into the
// cache in one operation, returning how many moved. Unlike a
// PopFree/Put loop this touches the slab's freelist once, so a whole
// refill costs one bounds-checked copy under the node lock rather than
// per-object push/pop traffic. Caller must hold both the node lock and
// the cache lock.
//
//prudence:requires Node,PerCPUCache
func (c *PerCPUCache) FillFrom(s *Slab, n int) int {
	if n > len(s.free) {
		n = len(s.free)
	}
	if n <= 0 {
		return 0
	}
	cut := len(s.free) - n
	for _, idx := range s.free[cut:] {
		c.Objs = append(c.Objs, Ref{Slab: s, Idx: idx})
	}
	s.free = s.free[:cut]
	s.inUse += n
	return n
}

// TakeAll removes and returns all objects. Caller must hold the cache
// lock.
//
//prudence:requires PerCPUCache
func (c *PerCPUCache) TakeAll() []Ref {
	out := c.Objs
	c.Objs = make([]Ref, 0, c.Size)
	return out
}

// TakeInto removes up to n objects from the bottom of the stack (the
// coldest entries) and appends them to dst, so a caller that keeps dst
// as scratch flushes without allocating. Caller must hold the cache
// lock.
//
//prudence:requires PerCPUCache
func (c *PerCPUCache) TakeInto(dst []Ref, n int) []Ref {
	n = min(n, len(c.Objs))
	if n <= 0 {
		return dst
	}
	dst = append(dst, c.Objs[:n]...)
	c.Objs = append(c.Objs[:0], c.Objs[n:]...)
	return dst
}

// ShrinkNode returns free slabs to the page allocator until the node's
// free list is at most limit slabs long. Slabs whose freedom depends on
// latent objects are first reconciled with elapsed (when non-nil); slabs
// still holding latent objects are skipped — their pages must not be
// reused until the grace period ends. Returns the number of slabs freed
// and the number of latent objects promoted during reconciliation (the
// caller's latent accounting must subtract these). Caller must NOT hold
// the node lock.
func (b *Base) ShrinkNode(n *Node, limit int, elapsed func(gsync.Cookie) bool) (freed, promoted int) {
	n.Lock()
	var victims []*Slab
	s := n.freeL.front()
	for s != nil && n.freeL.len() > limit {
		next := s.next
		if elapsed != nil {
			promoted += s.Reconcile(elapsed, b.Cfg.Poison)
		}
		if s.inUse == 0 && len(s.latent) == 0 {
			n.freeL.remove(s)
			s.list = ListNone
			victims = append(victims, s)
		}
		s = next
	}
	n.Unlock()
	for _, v := range victims {
		if b.debugger != nil {
			b.debugger.forgetSlab(v)
		}
		if err := b.Pages.Free(v.run); err != nil {
			b.badPageFrees.Add(1)
		}
		b.Ctr.SlabShrunk(1)
	}
	return len(victims), promoted
}

// NextInList returns the next slab on the same node list, for bounded
// traversals by the allocators. Caller must hold the node lock.
//
//prudence:requires Node
func (s *Slab) NextInList() *Slab { return s.next }

// FirstFull returns the head of the full list (or nil).
// Caller must hold the node lock.
//
//prudence:requires Node
func (n *Node) FirstFull() *Slab { return n.full.front() }

// Color returns the slab's coloring offset in bytes.
func (s *Slab) Color() int { return s.color }
