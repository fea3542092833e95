// Package prudence is the public API of this repository: a user-space
// reproduction of "Prudent Memory Reclamation in Procrastination-Based
// Synchronization" (ASPLOS 2016) — the Prudence dynamic memory
// allocator tightly integrated with an RCU grace-period engine, together
// with the SLUB-model baseline it is evaluated against.
//
// A System is a simulated machine: a fixed-size paged memory arena, a
// buddy page allocator, N virtual CPUs, an RCU engine, and one
// allocator (Prudence or the SLUB baseline). Caches created from the
// system hand out objects backed by real arena memory; FreeDeferred is
// the paper's turnkey deferred-free API, safe against concurrent RCU
// readers.
//
// Quickstart:
//
//	sys, err := prudence.New(prudence.Config{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	defer sys.Close()
//	cache := sys.NewCache("my-objects", 256)
//	obj, _ := cache.Malloc(0)              // on CPU 0
//	copy(obj.Bytes(), "hello")
//	cache.FreeDeferred(0, obj)             // reclaimed after a grace period
//
// Every System carries an always-on observability layer: call Metrics
// for a human-readable dump or WriteMetrics for Prometheus exposition
// text, and Trace for the system event ring recording slow-path
// allocator activity.
//
// See examples/ for runnable programs and internal/bench for the
// harness regenerating every figure of the paper.
package prudence

import (
	"fmt"
	"io"
	"os"
	"time"

	"prudence/internal/alloc"
	"prudence/internal/core"
	"prudence/internal/memarena"
	"prudence/internal/metrics"
	"prudence/internal/pagealloc"
	"prudence/internal/rcuhash"
	"prudence/internal/rculist"
	"prudence/internal/rcutree"
	"prudence/internal/slabcore"
	"prudence/internal/slub"
	"prudence/internal/stats"
	gsync "prudence/internal/sync"
	"prudence/internal/trace"
	"prudence/internal/vcpu"
	"prudence/internal/view"

	// The built-in reclamation backends register themselves with the
	// internal/sync scheme registry from their init functions; external
	// code selects them by name through Config.Reclamation.
	_ "prudence/internal/ebr"
	_ "prudence/internal/hp"
	_ "prudence/internal/rcu"
)

// AllocatorKind selects which allocator a System uses.
type AllocatorKind string

// ArenaKind selects the backing store behind the simulated physical
// memory.
type ArenaKind string

// Available arena backends. Config.Arena resolves any backend
// registered with internal/memarena on this platform; see Arenas.
const (
	// ArenaHeap backs the arena with one GC-visible Go allocation — the
	// portable default. The Go runtime accounts and paces against the
	// arena, so GC activity pollutes memory-behaviour measurements at
	// large arena sizes.
	ArenaHeap ArenaKind = "heap"
	// ArenaMmap (linux only) backs the arena with an anonymous mmap
	// outside the Go heap: the GC never sees the arena, page-frame
	// costs are hardware costs, and System.Close unmaps it.
	ArenaMmap ArenaKind = "mmap"
)

// ArenaEnv is the environment variable consulted when Config.Arena is
// empty, so benchmarks and CI can switch backends without code changes.
const ArenaEnv = "PRUDENCE_ARENA"

// Arenas lists the arena backends available on this platform, sorted;
// each is a valid Config.Arena value.
func Arenas() []string { return memarena.Backends() }

// ReclamationKind selects the procrastination-based synchronization
// mechanism detecting reader completion.
type ReclamationKind string

// Available reclamation schemes. The constants name the built-in
// backends; Config.Reclamation resolves any name registered with the
// internal scheme registry, so the set is open-ended (see Reclamations).
const (
	// RCU detects reader completion through context-switch quiescent
	// states (the paper's evaluated mechanism). Workload loops should
	// call QuiescentState between operations.
	RCU ReclamationKind = "rcu"
	// EBR detects reader completion through epochs pinned by read-side
	// critical sections; no quiescent-state calls are needed.
	EBR ReclamationKind = "ebr"
	// HP protects individual pointers through per-CPU hazard slots and
	// reclaims by scanning them; its garbage is bounded by
	// threads x slots regardless of reader behaviour.
	HP ReclamationKind = "hp"
	// NEBR is DEBRA+-style neutralizing EBR: epochs as in EBR, plus a
	// per-CPU interrupt that forcibly unpins readers stalled past a
	// bound, so one stuck reader cannot block reclamation forever.
	NEBR ReclamationKind = "nebr"
)

// Reclamations lists the registered reclamation scheme names, sorted;
// each is a valid Config.Reclamation value.
func Reclamations() []string { return gsync.Backends() }

// Available allocators.
const (
	// Prudence is the paper's contribution: deferred objects are
	// visible to and reclaimed by the allocator (latent caches/slabs).
	Prudence AllocatorKind = "prudence"
	// SLUB is the baseline: deferred frees go through RCU callbacks and
	// are invisible to the allocator until processed.
	SLUB AllocatorKind = "slub"
)

// Config configures a System. The zero value gives a Prudence system
// with 8 virtual CPUs and a 64 MiB arena.
type Config struct {
	// Allocator selects Prudence (default) or the SLUB baseline.
	Allocator AllocatorKind
	// CPUs is the number of virtual CPUs (default 8).
	CPUs int
	// MemoryPages is the arena size in 4 KiB pages (default 16384,
	// i.e. 64 MiB).
	MemoryPages int
	// GracePeriodInterval is the minimum gap between RCU grace periods
	// (default 500µs).
	GracePeriodInterval time.Duration
	// CallbackBatch bounds RCU callback batches for the SLUB baseline
	// (default 10, the kernel's blimit).
	CallbackBatch int
	// CallbackDelay is the pause between callback batches (default
	// 200µs).
	CallbackDelay time.Duration
	// DisableOptimizations turns off all of Prudence's hint-based
	// optimizations (for ablation; Prudence allocator only).
	DisableOptimizations bool
	// Reclamation selects the synchronization mechanism by registered
	// scheme name (default RCU). Every registered scheme works with
	// both allocators; see Reclamations for the available names.
	Reclamation ReclamationKind
	// TraceRingSize is the capacity of the system event ring attached to
	// every cache (rounded up to a power of two). Zero uses the default
	// of 4096 events; a negative value disables tracing entirely.
	TraceRingSize int
	// Arena selects the memory backend behind the simulated arena by
	// registered backend name (see Arenas). Empty consults the
	// PRUDENCE_ARENA environment variable, then defaults to "heap".
	Arena ArenaKind
	// PressureWatermark arms the page allocator's memory-pressure
	// notification at the given used-page count and wires it to the
	// reclamation backend (expedited grace periods and lifted drain
	// batch limits, the paper's §3.5 kernel behaviour). Zero arms it at
	// 3/4 of MemoryPages; a negative value disables pressure wiring.
	PressureWatermark int
}

// arenaName resolves the effective arena backend: explicit Config value,
// then the PRUDENCE_ARENA environment variable, then the default.
func (cfg Config) arenaName() string {
	if cfg.Arena != "" {
		return string(cfg.Arena)
	}
	if env := os.Getenv(ArenaEnv); env != "" {
		return env
	}
	return memarena.DefaultBackend
}

// Validate reports the first configuration error, or nil if cfg (with
// defaults applied for zero fields) describes a buildable System.
func (cfg Config) Validate() error {
	if cfg.CPUs < 0 {
		return fmt.Errorf("prudence: negative CPU count %d", cfg.CPUs)
	}
	if cfg.MemoryPages < 0 {
		return fmt.Errorf("prudence: negative arena size %d pages", cfg.MemoryPages)
	}
	switch cfg.Allocator {
	case "", Prudence, SLUB:
	default:
		return fmt.Errorf("prudence: unknown allocator kind %q", cfg.Allocator)
	}
	if cfg.Reclamation != "" && !gsync.Registered(string(cfg.Reclamation)) {
		return fmt.Errorf("prudence: unknown reclamation kind %q (registered: %v)",
			cfg.Reclamation, gsync.Backends())
	}
	if name := cfg.arenaName(); !memarena.BackendAvailable(name) {
		return fmt.Errorf("prudence: unknown arena backend %q (available: %v)",
			name, memarena.Backends())
	}
	return nil
}

// PageSize is the size of one simulated page frame.
const PageSize = memarena.PageSize

// ErrOutOfMemory is returned by Malloc when the simulated machine's
// memory is exhausted.
var ErrOutOfMemory = pagealloc.ErrOutOfMemory

// ErrOOM is a short alias for ErrOutOfMemory (kernel spelling).
var ErrOOM = ErrOutOfMemory

// System is a simulated machine with one allocator. The reclamation
// engine behind sync is whichever registered backend Config.Reclamation
// named; nothing else in the System is scheme-specific.
type System struct {
	arena   *memarena.Arena
	pages   *pagealloc.Allocator
	machine *vcpu.Machine
	sync    gsync.Backend
	alloc   alloc.Allocator
	scheme  string
	reg     *metrics.Registry
	ring    *trace.Ring // nil when tracing is disabled
	zeroer  *pagealloc.Zeroer
}

// New builds and starts a System. It returns an error for an invalid
// configuration (see Config.Validate).
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 8
	}
	if cfg.MemoryPages <= 0 {
		cfg.MemoryPages = 16384
	}
	if cfg.Allocator == "" {
		cfg.Allocator = Prudence
	}
	if cfg.Reclamation == "" {
		cfg.Reclamation = RCU
	}
	s := &System{reg: metrics.NewRegistry(), scheme: string(cfg.Reclamation)}
	arena, err := memarena.NewBackend(cfg.arenaName(), cfg.MemoryPages)
	if err != nil {
		return nil, fmt.Errorf("prudence: %w", err)
	}
	s.arena = arena
	s.pages = pagealloc.New(s.arena)
	s.machine = vcpu.NewMachine(cfg.CPUs)
	s.zeroer = pagealloc.StartPreZero(s.pages, s.machine)
	if cfg.TraceRingSize >= 0 {
		size := cfg.TraceRingSize
		if size == 0 {
			size = 4096
		}
		s.ring = trace.NewRing(size)
	}
	backend, err := gsync.New(string(cfg.Reclamation), s.machine, gsync.Options{
		GPInterval:  cfg.GracePeriodInterval,
		RetireBatch: cfg.CallbackBatch,
		RetireDelay: cfg.CallbackDelay,
	})
	if err != nil {
		s.zeroer.Stop()
		s.machine.Stop()
		s.arena.Close()
		return nil, err
	}
	s.sync = backend
	switch cfg.Allocator {
	case SLUB:
		s.alloc = slub.New(s.pages, s.sync, cfg.CPUs)
	case Prudence:
		opts := core.Options{}
		if cfg.DisableOptimizations {
			opts = core.Options{
				DisablePartialRefill: true,
				DisablePreFlush:      true,
				DisablePreMove:       true,
				DisableSlabSelection: true,
			}
		}
		s.alloc = core.New(s.pages, s.sync, s.machine, opts)
	}
	if cfg.PressureWatermark >= 0 {
		wm := cfg.PressureWatermark
		if wm == 0 {
			wm = cfg.MemoryPages * 3 / 4
		}
		if ps, ok := s.sync.(gsync.PressureSetter); ok {
			s.pages.OnPressure(ps.SetPressure)
		}
		s.pages.SetPressureWatermark(wm)
	}
	s.pages.RegisterMetrics(s.reg)
	s.sync.RegisterMetrics(s.reg)
	s.alloc.RegisterMetrics(s.reg)
	s.machine.RegisterMetrics(s.reg)
	return s, nil
}

// MustNew builds and starts a System, panicking on configuration error.
// It is a convenience for tests and examples where the Config is a
// literal known to be valid.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Close stops the System's background goroutines and releases the
// arena's backing store. With the mmap arena this unmaps the memory, so
// no Object or Bytes slice obtained from the system may be touched
// after Close. Close is idempotent.
func (s *System) Close() {
	s.zeroer.Stop()
	s.sync.Stop()
	s.machine.Stop()
	s.arena.Close()
}

// ArenaName reports which memory backend is behind this system's arena.
func (s *System) ArenaName() string { return s.arena.Backend() }

// NumCPU returns the number of virtual CPUs.
func (s *System) NumCPU() int { return s.machine.NumCPU() }

// AllocatorName reports which allocator backs this system.
func (s *System) AllocatorName() string { return s.alloc.Name() }

// ReclamationName returns the registered name of the reclamation
// scheme behind this system.
func (s *System) ReclamationName() string { return s.scheme }

// UsedBytes returns the simulated physical memory currently in use.
func (s *System) UsedBytes() int64 { return s.arena.UsedBytes() }

// TotalBytes returns the simulated physical memory capacity.
func (s *System) TotalBytes() int64 { return s.arena.Bytes() }

// RunOnAllCPUs invokes fn concurrently on every virtual CPU, marking
// each CPU RCU-active for the duration, and waits for completion. fn
// must use the given cpu id for all allocator and RCU calls.
func (s *System) RunOnAllCPUs(fn func(cpu int)) {
	s.machine.RunOnAll(func(c *vcpu.CPU) {
		id := c.ID()
		s.sync.ExitIdle(id)
		defer s.sync.EnterIdle(id)
		fn(id)
	})
}

// ReadLock enters an RCU read-side critical section on cpu. The caller
// must own the CPU (be inside RunOnAllCPUs for that id, or otherwise
// guarantee exclusive use).
func (s *System) ReadLock(cpu int) { s.sync.ReadLock(cpu) }

// ReadUnlock leaves the read-side critical section on cpu.
func (s *System) ReadUnlock(cpu int) { s.sync.ReadUnlock(cpu) }

// QuiescentState reports a context-switch-equivalent point on cpu;
// RCU-backed loops should call it between operations. Epoch- and
// hazard-based schemes treat it as a no-op.
func (s *System) QuiescentState(cpu int) { s.sync.QuiescentState(cpu) }

// EnterIdle marks cpu idle for the reclamation backend. A goroutine
// that owns a vCPU and is about to block for an unbounded time (a
// server worker parking on an empty request queue) must enter idle
// first, or the backend will wait forever for a quiescent state that
// never comes and grace periods will stall system-wide.
func (s *System) EnterIdle(cpu int) { s.sync.EnterIdle(cpu) }

// ExitIdle marks cpu busy again after EnterIdle, before the owning
// goroutine touches any RCU-protected state.
func (s *System) ExitIdle(cpu int) { s.sync.ExitIdle(cpu) }

// Synchronize blocks until a full RCU grace period has elapsed.
func (s *System) Synchronize() { s.sync.Synchronize() }

// ExpediteReclaim raises expedited grace-period demand on the
// reclamation backend: the next grace period is driven as fast as the
// scheme's safety protocol allows, skipping pacing gaps. Long-running
// services call it when their own backpressure signals (a deep retire
// backlog, queue saturation) show reclamation falling behind the
// update rate.
func (s *System) ExpediteReclaim() { s.sync.ExpediteGP() }

// GracePeriods returns the number of grace periods completed.
func (s *System) GracePeriods() uint64 { return s.sync.GPsCompleted() }

// Metrics returns a human-readable dump of every metric the system
// exports: per-cache allocator counters, reclamation-engine activity,
// page-allocator occupancy and vCPU idle-work accounting.
func (s *System) Metrics() string { return s.reg.String() }

// WriteMetrics writes the same metrics in Prometheus exposition text
// format (text/plain; version=0.0.4), suitable for a /metrics endpoint.
func (s *System) WriteMetrics(w io.Writer) error { return s.reg.WritePrometheus(w) }

// GatherMetrics snapshots every metric into a flat name->value map
// (labels rendered into the name), for programmatic consumers such as
// backpressure monitors and load-test reports.
func (s *System) GatherMetrics() map[string]float64 { return s.reg.Gather() }

// TraceRing is a fixed-capacity event ring recording slow-path
// allocator activity (refills, flushes, grows, shrinks, pre-moves,
// merges, grace-period waits, OOMs). Recording is wait-free and rings
// overwrite their oldest entries when full.
type TraceRing struct{ r *trace.Ring }

// NewTraceRing creates a standalone ring holding up to capacity events
// (rounded up to a power of two, minimum 16) for use with
// Cache.SetTrace.
func NewTraceRing(capacity int) *TraceRing {
	return &TraceRing{r: trace.NewRing(capacity)}
}

// Trace returns the system-wide event ring every cache records into by
// default, or nil when the system was configured with a negative
// TraceRingSize.
func (s *System) Trace() *TraceRing {
	if s.ring == nil {
		return nil
	}
	return &TraceRing{r: s.ring}
}

// Dump renders the trailing max events, oldest first (all retained
// events when max <= 0).
func (t *TraceRing) Dump(max int) string { return t.r.Dump(max) }

// Counts tallies the retained events by kind name.
func (t *TraceRing) Counts() map[string]int {
	out := make(map[string]int)
	for k, n := range t.r.CountByKind() {
		out[k.String()] = n
	}
	return out
}

// Len returns how many events have ever been recorded (not the number
// retained).
func (t *TraceRing) Len() int { return t.r.Len() }

// Cap returns the ring's capacity.
func (t *TraceRing) Cap() int { return t.r.Cap() }

// Object is a handle to allocated memory inside the simulated arena.
type Object struct {
	ref slabcore.Ref
}

// IsZero reports whether the Object is the invalid zero handle.
func (o Object) IsZero() bool { return o.ref.IsZero() }

// Bytes returns the object's memory. The slice aliases arena memory and
// must not be used after the object is freed (after a deferred free it
// may be read until the surrounding read-side critical section ends,
// per RCU rules).
func (o Object) Bytes() []byte { return o.ref.Bytes() }

// View returns a typed view of the object's memory: a *T aliasing the
// same arena bytes as o.Bytes(). T must be free of Go pointers and fit
// the cache's object size; violations panic (they are layout bugs in
// the caller, and — with the mmap arena — pointer-bearing types would
// hide references from the garbage collector). The lifetime rules of
// Bytes apply unchanged.
func View[T any](o Object) *T { return view.Of[T](o.Bytes()) }

// ViewSlice returns the object's memory as a slice of n Ts, with the
// same constraints as View.
func ViewSlice[T any](o Object, n int) []T { return view.Slice[T](o.Bytes(), n) }

// CacheStats is a snapshot of a cache's counters, matching the
// attributes reported in the paper's evaluation.
type CacheStats = stats.AllocSnapshot

// Cache is a named pool of fixed-size objects.
type Cache struct {
	c   alloc.Cache
	sys *System
}

// NewCache creates a slab cache with SLUB-style default sizing for the
// object size. The system's trace ring is attached unless tracing was
// disabled; use SetTrace to attach a dedicated ring instead.
func (s *System) NewCache(name string, objectSize int) *Cache {
	cfg := slabcore.DefaultConfig(name, objectSize, s.machine.NumCPU())
	c := &Cache{c: s.alloc.NewCache(cfg), sys: s}
	if s.ring != nil {
		c.c.SetTrace(s.ring)
	}
	return c
}

// SetTrace attaches a dedicated event ring to this cache, replacing the
// system-wide ring (nil detaches tracing from the cache entirely).
func (c *Cache) SetTrace(t *TraceRing) {
	if t == nil {
		c.c.SetTrace(nil)
		return
	}
	c.c.SetTrace(t.r)
}

// Name returns the cache name.
func (c *Cache) Name() string { return c.c.Name() }

// ObjectSize returns the object size in bytes.
func (c *Cache) ObjectSize() int { return c.c.ObjectSize() }

// Malloc allocates an object on the calling CPU.
func (c *Cache) Malloc(cpu int) (Object, error) {
	ref, err := c.c.Malloc(cpu)
	return Object{ref: ref}, err
}

// Free immediately returns an object to the cache.
func (c *Cache) Free(cpu int, o Object) { c.c.Free(cpu, o.ref) }

// FreeDeferred defers the freeing of an object until every RCU reader
// that might hold a reference has finished — the paper's Listing 2
// turnkey API. The allocator (not the caller, not an RCU callback)
// reclaims the memory at the right time.
func (c *Cache) FreeDeferred(cpu int, o Object) { c.c.FreeDeferred(cpu, o.ref) }

// Stats snapshots the cache's counters.
func (c *Cache) Stats() CacheStats { return c.c.Counters().Snapshot() }

// Fragmentation returns the paper's total fragmentation metric
// (allocated bytes / requested bytes) with its components.
func (c *Cache) Fragmentation() (ft float64, allocatedBytes, requestedBytes int64) {
	return c.c.Fragmentation()
}

// Drain flushes all cached and deferred objects back to the arena,
// waiting out grace periods as needed. Use at teardown or between
// measurement phases.
func (c *Cache) Drain() { c.c.Drain() }

// List is an RCU-protected linked list (the paper's Figure 1 structure)
// whose element payloads live in a Cache.
type List struct{ l *rculist.List }

// NewList creates an RCU-protected list backed by cache.
func (s *System) NewList(cache *Cache) *List {
	return &List{l: rculist.New(cache.c, s.sync)}
}

// Insert adds key with value at the head.
func (l *List) Insert(cpu int, key uint64, value []byte) error {
	return l.l.Insert(cpu, key, value)
}

// Lookup copies key's value into buf inside a read-side critical
// section.
func (l *List) Lookup(cpu int, key uint64, buf []byte) (int, bool) {
	return l.l.Lookup(cpu, key, buf)
}

// Update performs the Figure 1 copy-update: new allocation, publish,
// defer-free the old version.
func (l *List) Update(cpu int, key uint64, value []byte) (bool, error) {
	return l.l.Update(cpu, key, value)
}

// Delete unlinks key and defer-frees its payload.
func (l *List) Delete(cpu int, key uint64) (bool, error) {
	return l.l.Delete(cpu, key)
}

// Walk visits each element inside a read-side critical section.
func (l *List) Walk(cpu int, fn func(key uint64, value []byte) bool) {
	l.l.Walk(cpu, fn)
}

// Len returns the element count.
func (l *List) Len() int { return l.l.Len() }

// Map is an RCU-protected hash table over list buckets.
type Map struct{ m *rcuhash.Map }

// NewMap creates an RCU-protected hash map with the given power-of-two
// bucket count, backed by cache.
func (s *System) NewMap(cache *Cache, buckets int) *Map {
	return &Map{m: rcuhash.New(cache.c, s.sync, buckets)}
}

// Put inserts or copy-updates key.
func (m *Map) Put(cpu int, key uint64, value []byte) error {
	return m.m.Put(cpu, key, value)
}

// Get copies key's value into buf inside a read-side critical section.
func (m *Map) Get(cpu int, key uint64, buf []byte) (int, bool) {
	return m.m.Get(cpu, key, buf)
}

// Delete removes key, defer-freeing its payload.
func (m *Map) Delete(cpu int, key uint64) (bool, error) {
	return m.m.Delete(cpu, key)
}

// ForEach visits every entry.
func (m *Map) ForEach(cpu int, fn func(key uint64, value []byte) bool) {
	m.m.ForEach(cpu, fn)
}

// Resize rebuilds the table with a new power-of-two bucket count.
func (m *Map) Resize(cpu, buckets int) error { return m.m.Resize(cpu, buckets) }

// Len returns the entry count.
func (m *Map) Len() int { return m.m.Len() }

// Buckets returns the current bucket count.
func (m *Map) Buckets() int { return m.m.Buckets() }

// Tree is an RCU-protected ordered map (a copy-on-update treap, the
// §3.1 structure whose rebalancing defers multiple objects per update).
type Tree struct{ t *rcutree.Tree }

// NewTree creates an RCU-protected ordered map backed by cache.
func (s *System) NewTree(cache *Cache) *Tree {
	return &Tree{t: rcutree.New(cache.c, s.sync)}
}

// Put inserts or copy-updates key; the rebuilt path's old payloads are
// defer-freed.
func (t *Tree) Put(cpu int, key uint64, value []byte) error {
	return t.t.Put(cpu, key, value)
}

// Get copies key's value into buf inside a read-side critical section.
func (t *Tree) Get(cpu int, key uint64, buf []byte) (int, bool) {
	return t.t.Get(cpu, key, buf)
}

// Delete removes key, defer-freeing its payload and the rebuilt path's.
func (t *Tree) Delete(cpu int, key uint64) (bool, error) {
	return t.t.Delete(cpu, key)
}

// Range visits keys in [from, to] in ascending order.
func (t *Tree) Range(cpu int, from, to uint64, fn func(key uint64, value []byte) bool) {
	t.t.Range(cpu, from, to, fn)
}

// Min returns the smallest key, if any.
func (t *Tree) Min(cpu int) (uint64, bool) { return t.t.Min(cpu) }

// Max returns the largest key, if any.
func (t *Tree) Max(cpu int) (uint64, bool) { return t.t.Max(cpu) }

// Len returns the number of keys.
func (t *Tree) Len() int { return t.t.Len() }

// Kmalloc is a size-class allocation front (kmalloc-64 … kmalloc-4096)
// like the kernel's kmalloc, routing each request to the smallest class
// that fits.
type Kmalloc struct {
	k   *alloc.Kmalloc
	sys *System
}

// NewKmalloc creates the kmalloc size-class caches on this system.
func (s *System) NewKmalloc() *Kmalloc {
	return &Kmalloc{k: alloc.NewKmalloc(s.alloc, s.machine.NumCPU()), sys: s}
}

// Malloc allocates size bytes on cpu. The returned object's Bytes() is
// the full size class, which may exceed the request.
func (k *Kmalloc) Malloc(cpu, size int) (Object, error) {
	ref, err := k.k.Malloc(cpu, size)
	return Object{ref: ref}, err
}

// Free immediately returns an object allocated by this front.
func (k *Kmalloc) Free(cpu int, o Object) { k.k.Free(cpu, o.ref) }

// FreeDeferred defers the freeing of an object allocated by this front
// until a grace period has elapsed.
func (k *Kmalloc) FreeDeferred(cpu int, o Object) { k.k.FreeDeferred(cpu, o.ref) }

// Drain flushes all size-class caches back to the arena.
func (k *Kmalloc) Drain() {
	for _, c := range k.k.Caches() {
		c.Drain()
	}
}

// DebugConfig selects allocator debugging features (SLUB_DEBUG-style).
type DebugConfig = slabcore.DebugConfig

// Debugger inspects a debug-enabled cache: red-zone scans and leak
// reports.
type Debugger struct{ d *slabcore.Debugger }

// EnableDebug attaches red zones and/or allocation owner tracking to
// the cache. Red zones change the object layout, so they must be
// enabled before the cache's first allocation. Both built-in allocators
// (Prudence and SLUB) support debugging; an error is returned if the
// cache's backing allocator does not.
func (c *Cache) EnableDebug(cfg DebugConfig) (*Debugger, error) {
	type enabler interface {
		EnableDebug(slabcore.DebugConfig) *slabcore.Debugger
	}
	e, ok := c.c.(enabler)
	if !ok {
		return nil, fmt.Errorf("prudence: allocator %q does not support debugging on cache %q",
			c.sys.AllocatorName(), c.Name())
	}
	return &Debugger{d: e.EnableDebug(cfg)}, nil
}

// CheckRedZones scans all guard bytes and returns descriptions of
// corrupted objects (empty when clean).
func (d *Debugger) CheckRedZones() []string { return d.d.CheckRedZones() }

// Leaks reports objects allocated but never freed, attributed to the
// allocating CPU.
func (d *Debugger) Leaks() string { return d.d.Leaks().String() }
