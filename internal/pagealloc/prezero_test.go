package pagealloc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prudence/internal/memarena"
	"prudence/internal/vcpu"
)

// Zeroed-state bookkeeping, no machine needed: seeds are zeroed, splits
// inherit the parent's state, a freed block is dirty, and a merge of a
// zeroed half with a dirty half is dirty.
func TestZeroStateTracking(t *testing.T) {
	a := newAlloc(8) // one order-3 seed block, known zero
	if z := a.ZeroedBlockCounts(); z[3] != 1 {
		t.Fatalf("seed not zeroed: %v", z)
	}
	r, zeroed, err := a.AllocZeroed(0)
	if err != nil || !zeroed {
		t.Fatalf("AllocZeroed from fresh arena: zeroed=%v err=%v", zeroed, err)
	}
	if got := a.Stats().ZeroHits; got != 1 {
		t.Fatalf("ZeroHits = %d, want 1", got)
	}
	// The split remainders (orders 0,1,2) must all still be known zero.
	z := a.ZeroedBlockCounts()
	if z[0] != 1 || z[1] != 1 || z[2] != 1 {
		t.Fatalf("split remainders lost zeroed state: %v", z)
	}
	// Freeing makes the block dirty, and coalescing it into its zeroed
	// buddies taints the merged block.
	a.Free(r)
	z = a.ZeroedBlockCounts()
	c := a.FreeBlockCounts()
	if c[3] != 1 || z[3] != 0 {
		t.Fatalf("after dirty free: counts=%v zeroed=%v, want one dirty order-3 block", c, z)
	}
}

// At the same order, plain Alloc prefers dirty blocks (conserving the
// zero pool for AllocZeroed callers) and AllocZeroed prefers zeroed.
func TestAllocPrefersDirty(t *testing.T) {
	a := newAlloc(4)
	var runs [4]Run
	for i := range runs {
		runs[i], _ = a.Alloc(0)
	}
	// Free pages whose buddies stay allocated, so nothing coalesces:
	// order 0 now holds two dirty blocks.
	a.Free(runs[1])
	a.Free(runs[3])
	// Launder one of them, as the idle zeroer would.
	taken, ok := a.takeDirty()
	if !ok {
		t.Fatal("takeDirty found nothing")
	}
	a.reinsertZeroed(taken)

	got, zeroed, err := a.AllocZeroed(0)
	if err != nil || !zeroed || got.Start != taken.Start {
		t.Fatalf("AllocZeroed = %v zeroed=%v err=%v, want the laundered block %v", got, zeroed, err, taken)
	}
	a.Free(got)
	// One dirty and one (just-freed, also dirty) block remain; both
	// Alloc results must be dirty-pool blocks, i.e. no zero hits.
	before := a.Stats().ZeroHits
	if _, err := a.Alloc(0); err != nil {
		t.Fatal(err)
	}
	if a.Stats().ZeroHits != before {
		t.Fatal("plain Alloc consumed a zero hit")
	}
}

// While a block is checked out for idle zeroing, allocation must wait
// for it rather than reporting a spurious OOM.
func TestZeroInFlightBlocksSpuriousOOM(t *testing.T) {
	a := newAlloc(1)
	r, _ := a.Alloc(0)
	a.Free(r) // the only block, now dirty
	taken, ok := a.takeDirty()
	if !ok {
		t.Fatal("takeDirty found nothing")
	}
	done := make(chan Run)
	go func() {
		got, err := a.Alloc(0) // must retry until reinsert, not OOM
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	time.Sleep(2 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Alloc completed while the only block was in flight")
	default:
	}
	a.reinsertZeroed(taken)
	got := <-done
	if a.Stats().Failures != 0 {
		t.Fatalf("Failures = %d, want 0", a.Stats().Failures)
	}
	a.Free(got)
}

// End to end with real idle workers: dirty frees are laundered back to
// the zero pool, and the laundered memory is actually zero.
func TestPreZeroLaunders(t *testing.T) {
	arena := memarena.New(16)
	defer arena.Close()
	a := New(arena)
	m := vcpu.NewMachine(2)
	defer m.Stop()
	z := StartPreZero(a, m)
	defer z.Stop()

	r, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Bytes(r)
	for i := range b {
		b[i] = 0xAB
	}
	a.Free(r)

	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().PreZeroed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle workers never zeroed the dirty block")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Everything free must converge back to known zero (the laundered
	// block coalesces with its zeroed neighbours).
	for {
		zc, fc := a.ZeroedBlockCounts(), a.FreeBlockCounts()
		if zc == fc {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dirty blocks remain: counts=%v zeroed=%v", fc, zc)
		}
		time.Sleep(100 * time.Microsecond)
	}
	r2, zeroed, err := a.AllocZeroed(2)
	if err != nil || !zeroed {
		t.Fatalf("AllocZeroed after laundering: zeroed=%v err=%v", zeroed, err)
	}
	for i, v := range a.Bytes(r2) {
		if v != 0 {
			t.Fatalf("byte %d = %#x after laundering, want 0", i, v)
		}
	}
}

// Property test for the sharded allocator under real concurrency: no
// page is ever owned by two live runs (checked with atomic ownership
// claims, so overlap is caught at allocation time, not post hoc), and
// once everything is freed the free lists coalesce back to the initial
// seeding — all while the idle zeroer churns blocks through the
// dirty->zeroed cycle.
func TestPropertyConcurrentNoDoubleAllocAndFullCoalesce(t *testing.T) {
	const pages = 512
	arena := memarena.New(pages)
	defer arena.Close()
	a := New(arena)
	initial := a.FreeBlockCounts()
	m := vcpu.NewMachine(4)
	defer m.Stop()
	z := StartPreZero(a, m)
	defer z.Stop()

	var owner [pages]atomic.Int32
	claim := func(r Run, id int32) {
		for p := r.Start; p < r.Start+r.Pages(); p++ {
			if !owner[p].CompareAndSwap(0, id) {
				t.Errorf("page %d handed to worker %d while owned by %d", p, id, owner[p].Load())
			}
		}
	}
	release := func(r Run) {
		for p := r.Start; p < r.Start+r.Pages(); p++ {
			owner[p].Store(0)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int32) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			var live []Run
			for i := 0; i < 800; i++ {
				if rng.Intn(2) == 0 || len(live) == 0 {
					order := rng.Intn(4)
					var r Run
					var err error
					if rng.Intn(2) == 0 {
						r, _, err = a.AllocZeroed(order)
					} else {
						r, err = a.Alloc(order)
					}
					if err == nil {
						claim(r, id)
						live = append(live, r)
					}
				} else {
					j := rng.Intn(len(live))
					release(live[j])
					a.Free(live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, r := range live {
				release(r)
				a.Free(r)
			}
		}(int32(w + 1))
	}
	wg.Wait()

	// In-flight zeroing momentarily holds blocks out of the free lists,
	// and the zeroer may still check out the final coalesced dirty block
	// after zeroInFlight first reads 0: wait until no dirty block is left
	// and then none is in flight (takeDirty moves a block from one to the
	// other under the shard lock, so that order cannot miss it).
	deadline := time.Now().Add(5 * time.Second)
	for a.hasDirty() || a.zeroInFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("zeroer never went quiet")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := a.FreePages(); got != pages {
		t.Fatalf("FreePages = %d after balanced ops, want %d", got, pages)
	}
	if final := a.FreeBlockCounts(); final != initial {
		t.Fatalf("free lists did not coalesce back:\n  initial %v\n  final   %v", initial, final)
	}
}
