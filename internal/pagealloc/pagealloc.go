// Package pagealloc implements a binary buddy page allocator over a
// memarena.Arena.
//
// It is the analogue of the Linux buddy page allocator that SLUB and
// Prudence grow slabs from and shrink slabs back to. Allocations are in
// power-of-two page runs ("orders"); freed runs are coalesced with
// their buddies. The allocator exposes a memory-pressure watermark with
// subscriber notification: the RCU callback machinery uses it to
// expedite deferred processing under pressure (as the Linux kernel does,
// observed around the 70 s mark of the paper's Figure 3), and Prudence
// uses it to decide when the OOM path should wait for a grace period.
//
// Two scalability mechanisms keep slab grow/shrink off a single global
// lock:
//
//   - The free lists are sharded by order group (orders 0-3, 4-6,
//     7-10), each group under its own lock. Allocations and frees that
//     stay within one group — the overwhelming majority, since slab
//     orders cluster at the low end — touch one lock. Split and
//     coalesce escalate across groups by acquiring group locks in
//     strictly ascending order, so cross-shard paths are deadlock-free
//     without a global fallback lock.
//   - Every free block is tracked as known-zero or dirty. Freshly
//     seeded arena memory is zero; blocks freed by the slab layer are
//     dirty; an idle-time zeroer (see prezero.go) launders dirty blocks
//     back to the zero pool. AllocZeroed prefers known-zero blocks so
//     slab growth can skip its dominant memset cost (§3.3's 14x
//     grow-vs-hit ratio), while plain Alloc prefers dirty blocks to
//     conserve the zero pool.
package pagealloc

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prudence/internal/fault"
	"prudence/internal/memarena"
	"prudence/internal/metrics"
)

// MaxOrder is the largest supported allocation order: a single
// allocation can span at most 2^MaxOrder pages (matching the Linux
// default MAX_ORDER-1 = 10, i.e. 4 MiB runs of 4 KiB pages).
const MaxOrder = 10

// numShards is the number of order-group shards. Slab allocations
// cluster in orders 0-3, so that group gets its own lock; mid and max
// orders (buddy escalation targets) get the other two.
const numShards = 3

// groupMax[g] is the highest order belonging to shard g.
var groupMax = [numShards]int{3, 6, MaxOrder}

// groupOf maps an order to its shard index.
func groupOf(order int) int {
	switch {
	case order <= 3:
		return 0
	case order <= 6:
		return 1
	default:
		return 2
	}
}

// ErrOutOfMemory is returned when no page run of the requested order can
// be assembled.
var ErrOutOfMemory = errors.New("pagealloc: out of memory")

// ErrDoubleFree is returned by Free for a run that is not currently
// allocated: a double free, or a free of a never-allocated run.
var ErrDoubleFree = errors.New("pagealloc: free of non-allocated run")

// ErrWrongOrder is returned by Free when the run's order does not match
// the order it was allocated with.
var ErrWrongOrder = errors.New("pagealloc: free with mismatched order")

// Run identifies an allocated run of 2^Order contiguous pages starting
// at page Start.
type Run struct {
	Start int
	Order int
}

// Pages returns the number of pages in the run.
func (r Run) Pages() int { return 1 << r.Order }

// Stats counts allocator activity since construction.
type Stats struct {
	Allocs    uint64 // successful allocations
	Frees     uint64 // frees
	Splits    uint64 // buddy splits performed
	Coalesces uint64 // buddy merges performed
	Failures  uint64 // allocations that returned ErrOutOfMemory
	PreZeroed uint64 // dirty free blocks laundered to zero by idle workers
	ZeroHits  uint64 // AllocZeroed calls served from the known-zero pool
	BadFrees  uint64 // frees rejected as double-free or wrong-order
}

// shard is one order group's lock plus the allocated-block index for
// runs allocated at this group's orders. Padded so the shards in the
// array do not false-share (128 bytes covers the adjacent-line
// prefetcher's pairs).
//
// The rank sits below slabcore.Node (20) deliberately: taking a buddy
// shard lock while holding a node lock is the contract violation the
// paper's design rules out (page allocation must never run under the
// node list lock), and lockorder flags it.
//
//prudence:lockorder 15 spin
//prudence:padded 128
type shard struct {
	mu sync.Mutex
	// blockOrd maps start page of an allocated block to its order.
	//prudence:guarded_by shard
	blockOrd map[int]int
	_        [112]byte
}

// freeList is one order's free blocks, split by content state. Guarded
// by shards[groupOf(order)].mu.
type freeList struct {
	// dirty holds start pages of free blocks with unknown content.
	//prudence:guarded_by shard
	dirty map[int]struct{}
	// zeroed holds start pages of free blocks known to be all-zero.
	//prudence:guarded_by shard
	zeroed map[int]struct{}
}

// Allocator is a binary buddy allocator. It is safe for concurrent use.
type Allocator struct {
	arena *memarena.Arena

	shards [numShards]shard
	// lists[o] is guarded by shards[groupOf(o)].mu.
	//prudence:guarded_by shard
	lists [MaxOrder + 1]freeList

	freePages atomic.Int64
	allocs    atomic.Uint64
	frees     atomic.Uint64
	splits    atomic.Uint64
	coalesces atomic.Uint64
	failures  atomic.Uint64
	preZeroed atomic.Uint64
	zeroHits  atomic.Uint64
	badFrees  atomic.Uint64

	// debugPanic restores the pre-error-API behavior of panicking on
	// double-free / wrong-order frees, for debug builds and tests that
	// want bugs loud rather than degraded.
	debugPanic atomic.Bool

	// zeroInFlight counts blocks temporarily absent from the free lists
	// while an idle worker zeroes them. The OOM decision consults it:
	// such blocks are still free memory and will reappear, so Alloc
	// retries instead of failing while any are outstanding.
	zeroInFlight atomic.Int32

	// onDirtyFree, when set, is invoked (outside all locks) after a free
	// inserts a dirty block — the pre-zeroing arm hook.
	onDirtyFree atomic.Pointer[func()]

	//prudence:lockorder 60
	pressMu sync.Mutex
	// pressureAt is the used-page watermark above which pressure holds.
	//prudence:guarded_by pressMu
	pressureAt int
	//prudence:guarded_by pressMu
	underPress bool
	//prudence:guarded_by pressMu
	pressureSub []func(under bool)
}

// New creates a buddy allocator managing all frames of arena.
//
// The arena size does not have to be a power of two: the allocator seeds
// its free lists with the largest aligned power-of-two blocks that fit,
// exactly as physical memory banks are carved into MAX_ORDER blocks.
// Fresh arena memory is zero (the arena is newly-made Go memory), so
// the seed blocks enter the known-zero pool.
func New(arena *memarena.Arena) *Allocator {
	a := &Allocator{
		arena:      arena,
		pressureAt: arena.Pages(), // pressure disabled until configured
	}
	for g := range a.shards {
		a.shards[g].blockOrd = make(map[int]int)
	}
	for o := range a.lists {
		a.lists[o] = freeList{
			dirty:  make(map[int]struct{}),
			zeroed: make(map[int]struct{}),
		}
	}
	// Seed free lists greedily with maximal aligned blocks.
	page := 0
	remaining := arena.Pages()
	for remaining > 0 {
		o := MaxOrder
		for o > 0 && ((1<<o) > remaining || page%(1<<o) != 0) {
			o--
		}
		a.lists[o].zeroed[page] = struct{}{}
		page += 1 << o
		remaining -= 1 << o
	}
	a.freePages.Store(int64(arena.Pages()))
	return a
}

// Arena returns the underlying arena.
func (a *Allocator) Arena() *memarena.Arena { return a.arena }

// FreePages returns the number of pages currently free (including
// blocks momentarily checked out for idle-time zeroing).
func (a *Allocator) FreePages() int {
	return int(a.freePages.Load())
}

// Stats returns a snapshot of the allocator's counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		Allocs:    a.allocs.Load(),
		Frees:     a.frees.Load(),
		Splits:    a.splits.Load(),
		Coalesces: a.coalesces.Load(),
		Failures:  a.failures.Load(),
		PreZeroed: a.preZeroed.Load(),
		ZeroHits:  a.zeroHits.Load(),
		BadFrees:  a.badFrees.Load(),
	}
}

// SetDebugPanic controls whether invalid frees (double free, wrong
// order) panic instead of returning an error. Off by default: a
// misbehaving caller degrades (the error is counted and returned)
// rather than killing the process.
func (a *Allocator) SetDebugPanic(on bool) { a.debugPanic.Store(on) }

// SetPressureWatermark configures the used-page count at or above which
// the allocator reports memory pressure. Subscribers are notified on
// every transition. Setting the watermark to arena.Pages() (the default)
// effectively disables pressure reporting.
func (a *Allocator) SetPressureWatermark(usedPages int) {
	a.pressMu.Lock()
	a.pressureAt = usedPages
	a.pressMu.Unlock()
	a.checkPressure()
}

// OnPressure registers fn to be called with true when the system enters
// memory pressure and false when it leaves. fn runs synchronously under
// allocation/free paths and must be fast.
func (a *Allocator) OnPressure(fn func(under bool)) {
	a.pressMu.Lock()
	defer a.pressMu.Unlock()
	a.pressureSub = append(a.pressureSub, fn)
}

// UnderPressure reports whether used pages are at or above the
// watermark.
func (a *Allocator) UnderPressure() bool {
	a.pressMu.Lock()
	defer a.pressMu.Unlock()
	return a.underPress
}

// takeFreeAt removes one free block of order o, preferring the zeroed
// or dirty pool per preferZeroed but falling back to the other. Caller
// holds shards[groupOf(o)].mu.
//
//prudence:requires shard
func (a *Allocator) takeFreeAt(o int, preferZeroed bool) (start int, zeroed, ok bool) {
	l := &a.lists[o]
	first, second := l.dirty, l.zeroed
	if preferZeroed {
		first, second = l.zeroed, l.dirty
	}
	if len(first) > 0 {
		for s := range first {
			start = s
			break
		}
		delete(first, start)
		return start, preferZeroed, true
	}
	if len(second) > 0 {
		for s := range second {
			start = s
			break
		}
		delete(second, start)
		return start, !preferZeroed, true
	}
	return 0, false, false
}

// insertFree adds a free block at order o. Caller holds
// shards[groupOf(o)].mu.
//
//prudence:requires shard
func (a *Allocator) insertFree(o, start int, zeroed bool) {
	if zeroed {
		a.lists[o].zeroed[start] = struct{}{}
	} else {
		a.lists[o].dirty[start] = struct{}{}
	}
}

// removeIfFree removes the block at (o, start) from the free lists if
// present, reporting whether it was there and whether it was zeroed.
// Caller holds shards[groupOf(o)].mu.
//
//prudence:requires shard
func (a *Allocator) removeIfFree(o, start int) (zeroed, ok bool) {
	if _, in := a.lists[o].dirty[start]; in {
		delete(a.lists[o].dirty, start)
		return false, true
	}
	if _, in := a.lists[o].zeroed[start]; in {
		delete(a.lists[o].zeroed, start)
		return true, true
	}
	return false, false
}

// lockThrough acquires shard locks (locked, g] in ascending order,
// updating *locked. Lock-order discipline: group locks are only ever
// taken ascending, so split/coalesce escalation across shards cannot
// deadlock against concurrent escalations.
//
//prudence:requires shard
func (a *Allocator) lockThrough(locked *int, g int) {
	for *locked < g {
		*locked++
		a.shards[*locked].mu.Lock()
	}
}

// unlockFrom releases shard locks [g, locked], highest first.
//
//prudence:requires shard
func (a *Allocator) unlockFrom(g, locked int) {
	for i := locked; i >= g; i-- {
		a.shards[i].mu.Unlock()
	}
}

// Alloc allocates a run of 2^order contiguous pages. The content of the
// run is unspecified; it prefers dirty blocks so known-zero blocks stay
// available for AllocZeroed.
func (a *Allocator) Alloc(order int) (Run, error) {
	r, _, err := a.alloc(order, false)
	return r, err
}

// AllocZeroed allocates a run of 2^order contiguous pages, preferring
// the known-zero pool. The boolean reports whether the returned run is
// known to be all-zero, letting the caller skip its own memset.
func (a *Allocator) AllocZeroed(order int) (Run, bool, error) {
	return a.alloc(order, true)
}

// zeroWaitSpins is how many Gosched yields alloc spends waiting for a
// checked-out block before switching to timed sleeps, and zeroWaitMax
// bounds the total wait. A healthy zeroer returns a block in
// microseconds; a stalled one must not convert allocation into a hang.
const (
	zeroWaitSpins = 64
	zeroWaitSleep = 20 * time.Microsecond
	zeroWaitMax   = 50 * time.Millisecond
)

func (a *Allocator) alloc(order int, preferZeroed bool) (Run, bool, error) {
	if order < 0 || order > MaxOrder {
		return Run{}, false, fmt.Errorf("pagealloc: order %d out of range [0,%d]", order, MaxOrder)
	}
	//prudence:fault_point
	if fault.Fire(fault.PageAllocFail) {
		a.failures.Add(1)
		return Run{}, false, ErrOutOfMemory
	}
	var deadline time.Time
	for attempt := 0; ; attempt++ {
		run, zeroed, ok := a.tryAlloc(order, preferZeroed)
		if ok {
			a.allocs.Add(1)
			if zeroed && preferZeroed {
				a.zeroHits.Add(1)
			}
			a.arena.Acquire(1 << order)
			a.checkPressure()
			return run, zeroed, nil
		}
		if a.zeroInFlight.Load() == 0 {
			a.failures.Add(1)
			return Run{}, false, ErrOutOfMemory
		}
		// Free memory exists but is momentarily checked out for idle
		// zeroing; it will be reinserted, so wait for it rather than
		// reporting a spurious OOM. The wait is bounded: a zeroer that
		// never returns its block (stalled, wedged, killed) must surface
		// as an allocation failure, not a hang.
		if attempt < zeroWaitSpins {
			runtime.Gosched()
			continue
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(zeroWaitMax)
		} else if now.After(deadline) {
			a.failures.Add(1)
			return Run{}, false, ErrOutOfMemory
		}
		time.Sleep(zeroWaitSleep)
	}
}

// tryAlloc performs one allocation attempt under the shard locks.
func (a *Allocator) tryAlloc(order int, preferZeroed bool) (Run, bool, bool) {
	g := groupOf(order)
	a.shards[g].mu.Lock()
	locked := g

	// Find the smallest order >= requested with a free block, extending
	// the locked group range as the search escalates.
	var (
		start  int
		zeroed bool
		found  bool
		o      int
	)
	for o = order; o <= MaxOrder; o++ {
		a.lockThrough(&locked, groupOf(o))
		if s, z, ok := a.takeFreeAt(o, preferZeroed); ok {
			start, zeroed, found = s, z, true
			break
		}
	}
	if !found {
		a.unlockFrom(g, locked)
		return Run{}, false, false
	}
	// Split down to the requested order, returning upper halves. The
	// halves of a known-zero block are known zero. All insertion orders
	// lie in [order, o], whose groups are all locked.
	for o > order {
		o--
		a.splits.Add(1)
		a.insertFree(o, start+(1<<o), zeroed)
	}
	a.shards[g].blockOrd[start] = order
	a.freePages.Add(-(1 << order))
	a.unlockFrom(g, locked)
	return Run{Start: start, Order: order}, zeroed, true
}

// coalesceInsert merges the block with free buddies as far as possible
// and inserts the result, escalating shard locks as the merged block's
// order crosses group boundaries. The merged block is zeroed only if
// every constituent was. Caller holds shards[groupOf(order)].mu (and
// nothing higher); *locked tracks the highest group locked and is
// updated as locks are taken.
//
//prudence:requires shard
func (a *Allocator) coalesceInsert(start, order int, zeroed bool, locked *int) {
	o := order
	for o < MaxOrder {
		buddy := start ^ (1 << o)
		z, free := a.removeIfFree(o, buddy)
		if !free {
			break
		}
		a.coalesces.Add(1)
		zeroed = zeroed && z
		if buddy < start {
			start = buddy
		}
		o++
		a.lockThrough(locked, groupOf(o))
	}
	a.insertFree(o, start, zeroed)
}

// Free returns a run obtained from Alloc. Double frees, frees of
// never-allocated runs, and order mismatches are bugs in the slab
// layer (the only client); they are counted and returned as
// ErrDoubleFree / ErrWrongOrder so the caller degrades instead of
// dying — unless SetDebugPanic(true) asked for them loud. The freed
// block is dirty (its content is whatever the slab left); the
// pre-zeroing hook, when attached, is poked so an idle worker can
// launder it.
func (a *Allocator) Free(r Run) error {
	g := groupOf(r.Order)
	a.shards[g].mu.Lock()
	order, ok := a.shards[g].blockOrd[r.Start]
	if !ok {
		a.shards[g].mu.Unlock()
		a.badFrees.Add(1)
		if a.debugPanic.Load() {
			panic(fmt.Sprintf("pagealloc: free of non-allocated run starting at %d", r.Start))
		}
		return fmt.Errorf("%w: start %d", ErrDoubleFree, r.Start)
	}
	if order != r.Order {
		a.shards[g].mu.Unlock()
		a.badFrees.Add(1)
		if a.debugPanic.Load() {
			panic(fmt.Sprintf("pagealloc: free of run at %d with order %d, allocated as order %d", r.Start, r.Order, order))
		}
		return fmt.Errorf("%w: start %d freed as order %d, allocated as order %d", ErrWrongOrder, r.Start, r.Order, order)
	}
	delete(a.shards[g].blockOrd, r.Start)
	locked := g
	a.coalesceInsert(r.Start, r.Order, false, &locked)
	a.freePages.Add(1 << r.Order)
	a.frees.Add(1)
	// Release before the unlock: once the shards are unlocked the run
	// can be reallocated, and its Acquire must not land before this
	// Release or a full arena transiently reads as over-committed.
	a.arena.Release(1 << r.Order)
	a.unlockFrom(g, locked)

	a.checkPressure()
	if fn := a.onDirtyFree.Load(); fn != nil {
		(*fn)()
	}
	return nil
}

// takeDirty checks out the largest dirty free block for laundering,
// counting it in zeroInFlight. Used by the idle zeroer; the block MUST
// be returned via reinsertZeroed.
func (a *Allocator) takeDirty() (Run, bool) {
	for g := numShards - 1; g >= 0; g-- {
		a.shards[g].mu.Lock()
		lo := 0
		if g > 0 {
			lo = groupMax[g-1] + 1
		}
		for o := groupMax[g]; o >= lo; o-- {
			if len(a.lists[o].dirty) == 0 {
				continue
			}
			var start int
			for s := range a.lists[o].dirty {
				start = s
				break
			}
			delete(a.lists[o].dirty, start)
			a.zeroInFlight.Add(1)
			a.shards[g].mu.Unlock()
			return Run{Start: start, Order: o}, true
		}
		a.shards[g].mu.Unlock()
	}
	return Run{}, false
}

// hasDirty reports whether any dirty free block exists.
func (a *Allocator) hasDirty() bool {
	for g := 0; g < numShards; g++ {
		a.shards[g].mu.Lock()
		lo := 0
		if g > 0 {
			lo = groupMax[g-1] + 1
		}
		for o := lo; o <= groupMax[g]; o++ {
			if len(a.lists[o].dirty) > 0 {
				a.shards[g].mu.Unlock()
				return true
			}
		}
		a.shards[g].mu.Unlock()
	}
	return false
}

// reinsertZeroed returns a block checked out with takeDirty to the
// free lists as known-zero, coalescing normally (a merge with a dirty
// buddy yields a dirty block — the zeroer will find it again).
func (a *Allocator) reinsertZeroed(r Run) {
	g := groupOf(r.Order)
	a.shards[g].mu.Lock()
	locked := g
	a.coalesceInsert(r.Start, r.Order, true, &locked)
	a.unlockFrom(g, locked)
	a.preZeroed.Add(1)
	a.zeroInFlight.Add(-1)
}

// Bytes returns the backing memory of the run.
func (a *Allocator) Bytes(r Run) []byte {
	return a.arena.Range(r.Start, r.Pages())
}

func (a *Allocator) checkPressure() {
	used := a.arena.UsedPages()
	a.pressMu.Lock()
	under := used >= a.pressureAt
	changed := under != a.underPress
	a.underPress = under
	subs := a.pressureSub
	a.pressMu.Unlock()
	if !changed {
		return
	}
	for _, fn := range subs {
		fn(under)
	}
}

// RegisterMetrics registers the buddy allocator's occupancy gauges and
// activity counters. All series are func-backed reads of state the
// allocator already maintains, so scraping is the only cost.
func (a *Allocator) RegisterMetrics(r *metrics.Registry) {
	r.GaugeFunc("prudence_pages_free", "Pages currently free in the buddy allocator.",
		func() float64 { return float64(a.FreePages()) })
	r.GaugeFunc("prudence_pages_used", "Pages currently allocated from the arena.",
		func() float64 { return float64(a.arena.UsedPages()) })
	r.CounterFunc("prudence_page_allocs_total", "Successful page-run allocations.",
		func() float64 { return float64(a.allocs.Load()) })
	r.CounterFunc("prudence_page_frees_total", "Page-run frees.",
		func() float64 { return float64(a.frees.Load()) })
	r.CounterFunc("prudence_page_splits_total", "Buddy splits performed.",
		func() float64 { return float64(a.splits.Load()) })
	r.CounterFunc("prudence_page_coalesces_total", "Buddy merges performed.",
		func() float64 { return float64(a.coalesces.Load()) })
	r.CounterFunc("prudence_page_alloc_failures_total", "Allocations that returned out-of-memory.",
		func() float64 { return float64(a.failures.Load()) })
	r.CounterFunc("prudence_pages_prezeroed_total", "Dirty free blocks zeroed by idle workers.",
		func() float64 { return float64(a.preZeroed.Load()) })
	r.CounterFunc("prudence_page_zero_hits_total", "Zeroed allocations served from the known-zero pool.",
		func() float64 { return float64(a.zeroHits.Load()) })
	r.CounterFunc("prudence_page_bad_frees_total", "Frees rejected as double-free or wrong-order.",
		func() float64 { return float64(a.badFrees.Load()) })
	r.CollectGauges("prudence_pages_free_blocks", "Free blocks per buddy order.",
		func(emit metrics.Emit) {
			counts := a.FreeBlockCounts()
			for o, n := range counts {
				emit(float64(n), metrics.L("order", strconv.Itoa(o)))
			}
		})
}

// FreeBlockCounts returns, for each order, how many free blocks exist
// (dirty and zeroed combined). It is used by tests and by the
// fragmentation report.
func (a *Allocator) FreeBlockCounts() [MaxOrder + 1]int {
	var out [MaxOrder + 1]int
	for g := 0; g < numShards; g++ {
		a.shards[g].mu.Lock()
		lo := 0
		if g > 0 {
			lo = groupMax[g-1] + 1
		}
		for o := lo; o <= groupMax[g]; o++ {
			out[o] = len(a.lists[o].dirty) + len(a.lists[o].zeroed)
		}
		a.shards[g].mu.Unlock()
	}
	return out
}

// ZeroedBlockCounts returns, for each order, how many known-zero free
// blocks exist. Used by the pre-zeroing tests.
func (a *Allocator) ZeroedBlockCounts() [MaxOrder + 1]int {
	var out [MaxOrder + 1]int
	for g := 0; g < numShards; g++ {
		a.shards[g].mu.Lock()
		lo := 0
		if g > 0 {
			lo = groupMax[g-1] + 1
		}
		for o := lo; o <= groupMax[g]; o++ {
			out[o] = len(a.lists[o].zeroed)
		}
		a.shards[g].mu.Unlock()
	}
	return out
}
