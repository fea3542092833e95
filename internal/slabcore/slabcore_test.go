package slabcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prudence/internal/memarena"
	"prudence/internal/pagealloc"
	gsync "prudence/internal/sync"
)

func newBase(t *testing.T, cfg CacheConfig) *Base {
	t.Helper()
	pa := pagealloc.New(memarena.New(512))
	return NewBase(pa, cfg)
}

func smallCfg() CacheConfig {
	return CacheConfig{
		Name:       "test",
		ObjectSize: 512,
		SlabOrder:  0, // 8 objects per slab
		CacheSize:  4,
		CPUs:       2,
	}
}

func TestDefaultConfigHeuristics(t *testing.T) {
	cases := []struct {
		size      int
		wantOrder int
		wantCache int
	}{
		{64, 0, 120},   // 64 objects/page, big object cache
		{512, 1, 16},   // needs order 1 for >=16 objects
		{4096, 3, 4},   // big objects: order capped at 3, tiny cache
		{100000, 3, 4}, // absurd size still yields valid config (checked below)
	}
	for _, c := range cases {
		cfg := DefaultConfig("k", c.size, 4)
		if cfg.SlabOrder != c.wantOrder {
			t.Errorf("DefaultConfig(%d).SlabOrder = %d, want %d", c.size, cfg.SlabOrder, c.wantOrder)
		}
		if cfg.CacheSize != c.wantCache {
			t.Errorf("DefaultConfig(%d).CacheSize = %d, want %d", c.size, cfg.CacheSize, c.wantCache)
		}
	}
	// Monotonic: larger objects never get bigger caches (paper's Figure 6
	// explanation depends on this).
	prev := 1 << 30
	for size := 64; size <= 4096; size *= 2 {
		cs := DefaultConfig("k", size, 4).CacheSize
		if cs > prev {
			t.Errorf("cache size grew from %d to %d at object size %d", prev, cs, size)
		}
		prev = cs
	}
}

func TestDefaultConfigPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive object size")
		}
	}()
	DefaultConfig("bad", 0, 1)
}

func TestNewBaseRejectsOversizedObjects(t *testing.T) {
	pa := pagealloc.New(memarena.New(16))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when objects do not fit slab")
		}
	}()
	NewBase(pa, CacheConfig{Name: "huge", ObjectSize: 5 * memarena.PageSize, SlabOrder: 0})
}

func TestNewSlabLayout(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, err := b.NewSlab(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() != 8 {
		t.Fatalf("Capacity = %d, want 8", s.Capacity())
	}
	n.Lock()
	defer n.Unlock()
	if s.FreeCount() != 8 || s.InUse() != 0 || s.LatentCount() != 0 {
		t.Fatalf("fresh slab free=%d inUse=%d latent=%d", s.FreeCount(), s.InUse(), s.LatentCount())
	}
	if s.List() != ListFree {
		t.Fatalf("fresh slab on list %v, want free", s.List())
	}
	if got := b.Ctr.CurrentSlabs(); got != 1 {
		t.Fatalf("CurrentSlabs = %d, want 1", got)
	}
}

func TestPopPushFreeRoundTrip(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	defer n.Unlock()
	seen := map[uint32]bool{}
	var refs []Ref
	for s.FreeCount() > 0 {
		r := s.PopFree()
		if seen[r.Idx] {
			t.Fatalf("index %d popped twice", r.Idx)
		}
		seen[r.Idx] = true
		refs = append(refs, r)
	}
	if len(refs) != 8 || s.InUse() != 8 {
		t.Fatalf("popped %d, inUse %d", len(refs), s.InUse())
	}
	for _, r := range refs {
		s.PushFree(r.Idx, false)
	}
	if s.FreeCount() != 8 || s.InUse() != 0 {
		t.Fatalf("after push-back free=%d inUse=%d", s.FreeCount(), s.InUse())
	}
}

func TestRefBytesDisjointAndSized(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	r0 := s.PopFree()
	r1 := s.PopFree()
	n.Unlock()
	b0, b1 := r0.Bytes(), r1.Bytes()
	if len(b0) != 512 || len(b1) != 512 {
		t.Fatalf("object sizes %d, %d; want 512", len(b0), len(b1))
	}
	for i := range b0 {
		b0[i] = 0xFF
	}
	for _, x := range b1 {
		if x == 0xFF {
			t.Fatal("objects overlap")
		}
	}
}

func TestPoisoning(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	r := s.PopFree()
	n.Unlock()
	copy(r.Bytes(), []byte("hello"))
	n.Lock()
	s.PushFree(r.Idx, true)
	n.Unlock()
	if !CheckPoison(r) {
		t.Fatal("freed object not poisoned")
	}
	r.Bytes()[0] = 1 // simulate use-after-free write
	if CheckPoison(r) {
		t.Fatal("poison check missed a stale write")
	}
}

func TestLatentReconcile(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	defer n.Unlock()
	r1, r2, r3 := s.PopFree(), s.PopFree(), s.PopFree()
	s.PushLatent(r1.Idx, gsync.Cookie(5))
	s.PushLatent(r2.Idx, gsync.Cookie(7))
	s.PushLatent(r3.Idx, gsync.Cookie(6))
	if s.LatentCount() != 3 || s.InUse() != 0 {
		t.Fatalf("latent=%d inUse=%d", s.LatentCount(), s.InUse())
	}
	// Only cookies <= 6 elapsed; note r2 (cookie 7) is in the middle of
	// FIFO order and must be retained.
	promoted := s.Reconcile(func(c gsync.Cookie) bool { return c <= 6 }, false)
	if promoted != 2 {
		t.Fatalf("promoted %d, want 2", promoted)
	}
	if s.LatentCount() != 1 || s.FreeCount() != 7 {
		t.Fatalf("after reconcile latent=%d free=%d", s.LatentCount(), s.FreeCount())
	}
	promoted = s.Reconcile(func(gsync.Cookie) bool { return true }, false)
	if promoted != 1 || s.LatentCount() != 0 || s.FreeCount() != 8 {
		t.Fatalf("final reconcile promoted=%d latent=%d free=%d", promoted, s.LatentCount(), s.FreeCount())
	}
}

func TestListTransitions(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	defer n.Unlock()
	if n.FreeSlabs() != 1 {
		t.Fatalf("FreeSlabs = %d, want 1", n.FreeSlabs())
	}
	n.Move(s, ListPartial)
	if n.FreeSlabs() != 0 || n.PartialSlabs() != 1 || s.List() != ListPartial {
		t.Fatal("move to partial failed")
	}
	n.Move(s, ListFull)
	if n.PartialSlabs() != 0 || n.FullSlabs() != 1 {
		t.Fatal("move to full failed")
	}
	n.Move(s, ListFull) // no-op move
	if n.FullSlabs() != 1 {
		t.Fatal("self-move broke list")
	}
	n.Detach(s)
	if n.FullSlabs() != 0 || s.List() != ListNone {
		t.Fatal("detach failed")
	}
	n.Attach(s, ListFree)
}

func TestDoubleAttachPanics(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	defer n.Unlock()
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	n.Attach(s, ListPartial)
}

func TestWalkPartialLimit(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	var slabs []*Slab
	for i := 0; i < 5; i++ {
		s, err := b.NewSlab(n)
		if err != nil {
			t.Fatal(err)
		}
		slabs = append(slabs, s)
	}
	n.Lock()
	defer n.Unlock()
	for _, s := range slabs {
		n.Move(s, ListPartial)
	}
	count := 0
	n.WalkPartial(3, func(*Slab) bool { count++; return true })
	if count != 3 {
		t.Fatalf("WalkPartial visited %d, want 3", count)
	}
	count = 0
	n.WalkPartial(100, func(*Slab) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early-stop walk visited %d, want 2", count)
	}
}

func TestHomeAndPredictedList(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	defer n.Unlock()

	if HomeList(s) != ListFree || PredictedList(s) != ListFree {
		t.Fatal("fresh slab should be free by both views")
	}
	r := s.PopFree()
	if HomeList(s) != ListPartial || PredictedList(s) != ListPartial {
		t.Fatal("slab with one object out should be partial")
	}
	var refs []Ref
	for s.FreeCount() > 0 {
		refs = append(refs, s.PopFree())
	}
	if HomeList(s) != ListFull || PredictedList(s) != ListFull {
		t.Fatal("exhausted slab should be full")
	}
	// Defer-free one object: conventionally still full-ish (no free
	// objects), but the prediction says partial — the premove hint.
	s.PushLatent(refs[0].Idx, gsync.Cookie(1))
	if HomeList(s) != ListFull {
		t.Fatalf("HomeList with latent = %v, want full", HomeList(s))
	}
	if PredictedList(s) != ListPartial {
		t.Fatalf("PredictedList with latent = %v, want partial", PredictedList(s))
	}
	// Defer-free everything else: prediction says entirely free.
	s.PushLatent(r.Idx, gsync.Cookie(1))
	for _, rr := range refs[1:] {
		s.PushLatent(rr.Idx, gsync.Cookie(1))
	}
	if PredictedList(s) != ListFree {
		t.Fatalf("PredictedList all-latent = %v, want free", PredictedList(s))
	}
	if HomeList(s) != ListFull {
		t.Fatalf("HomeList all-latent = %v, want full (latent hidden)", HomeList(s))
	}
}

func TestDestroySlabReturnsPages(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	used0 := b.Pages.Arena().UsedPages()
	s, _ := b.NewSlab(n)
	if b.Pages.Arena().UsedPages() != used0+1 {
		t.Fatal("slab did not consume a page")
	}
	b.DestroySlab(s)
	if b.Pages.Arena().UsedPages() != used0 {
		t.Fatal("destroy did not return pages")
	}
	if b.Ctr.CurrentSlabs() != 0 {
		t.Fatalf("CurrentSlabs = %d, want 0", b.Ctr.CurrentSlabs())
	}
}

func TestDestroyNonEmptySlabPanics(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	s.PopFree()
	n.Unlock()
	defer func() {
		if recover() == nil {
			t.Fatal("destroying non-empty slab did not panic")
		}
	}()
	b.DestroySlab(s)
}

func TestFragmentationMetric(t *testing.T) {
	b := newBase(t, smallCfg()) // 512B objects, order-0 slabs: 4096B
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	s.PopFree()
	s.PopFree()
	n.Unlock()
	b.UserAlloc(0)
	b.UserAlloc(1)
	ft, allocated, requested := b.Fragmentation()
	if allocated != 4096 || requested != 1024 {
		t.Fatalf("allocated=%d requested=%d", allocated, requested)
	}
	if ft != 4.0 {
		t.Fatalf("fragmentation = %v, want 4.0", ft)
	}
	b.UserFree(1)
	b.UserFree(0)
	ft, _, _ = b.Fragmentation()
	if ft != 4096 {
		t.Fatalf("degenerate fragmentation = %v, want allocated bytes", ft)
	}
}

// TestUserAccountingCrossCPU checks the sharded requested counter: an
// individual shard may go negative when objects are freed on a CPU
// other than the one that allocated them, but the summed value stays
// exact, and Audit flags a genuinely negative sum (more frees than
// allocations).
func TestUserAccountingCrossCPU(t *testing.T) {
	b := newBase(t, smallCfg())
	b.UserAlloc(0)
	b.UserAlloc(0)
	b.UserFree(1) // cross-CPU free: shard 1 goes to -1, sum stays 1
	if got := b.Requested(); got != 1 {
		t.Fatalf("Requested = %d, want 1", got)
	}
	b.UserFree(1)
	if got := b.Requested(); got != 0 {
		t.Fatalf("Requested = %d, want 0", got)
	}
	if err := b.Audit(); err != nil {
		t.Fatalf("balanced accounting failed audit: %v", err)
	}
	b.UserFree(2) // underflow: sum goes negative
	if err := b.Audit(); err == nil {
		t.Fatal("audit did not flag user-free underflow")
	}
}

func TestNodeForSpreadsCPUs(t *testing.T) {
	cfg := smallCfg()
	cfg.CPUs = 8
	cfg.Nodes = 2
	b := newBase(t, cfg)
	if b.NodeFor(0) != b.NodeFor(3) {
		t.Fatal("CPUs 0-3 should share node 0")
	}
	if b.NodeFor(0) == b.NodeFor(4) {
		t.Fatal("CPUs 0 and 4 should be on different nodes")
	}
	if b.NodeFor(7).ID() != 1 {
		t.Fatalf("CPU 7 on node %d, want 1", b.NodeFor(7).ID())
	}
}

func TestPerCPUCacheOps(t *testing.T) {
	c := NewPerCPUCache(4)
	c.Lock()
	defer c.Unlock()
	if !c.TryGet().IsZero() {
		t.Fatal("empty cache returned object")
	}
	mk := func(i uint32) Ref { return Ref{Slab: &Slab{}, Idx: i} }
	for i := uint32(0); i < 4; i++ {
		c.Put(mk(i))
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// LIFO
	if got := c.TryGet(); got.Idx != 3 {
		t.Fatalf("TryGet = %d, want 3 (LIFO)", got.Idx)
	}
	// TakeInto removes from the bottom (coldest).
	taken := c.TakeInto(nil, 2)
	if len(taken) != 2 || taken[0].Idx != 0 || taken[1].Idx != 1 {
		t.Fatalf("TakeInto(nil, 2) = %v", taken)
	}
	if c.Len() != 1 || c.Objs[0].Idx != 2 {
		t.Fatalf("cache after take = %v", c.Objs)
	}
	all := c.TakeAll()
	if len(all) != 1 || c.Len() != 0 {
		t.Fatal("TakeAll failed")
	}
	if got := c.TakeInto(nil, 5); got != nil {
		t.Fatalf("TakeInto(nil, 5) on empty = %v, want nil", got)
	}
	if got := c.TakeInto(nil, -1); got != nil {
		t.Fatalf("TakeInto(nil, -1) = %v, want nil", got)
	}
}

// Property: arbitrary pop/push/latent/reconcile sequences keep the slab
// accounting identity: free + latent + inUse == capacity, and no index
// is ever in two places.
func TestPropertySlabAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBase(pagealloc.New(memarena.New(512)), smallCfg())
		n := b.NodeFor(0)
		s, err := b.NewSlab(n)
		if err != nil {
			return false
		}
		n.Lock()
		defer n.Unlock()
		var held []Ref
		cookie := gsync.Cookie(1)
		elapsed := gsync.Cookie(0)
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0: // pop
				if s.FreeCount() > 0 {
					held = append(held, s.PopFree())
				}
			case 1: // push free
				if len(held) > 0 {
					i := rng.Intn(len(held))
					s.PushFree(held[i].Idx, false)
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			case 2: // push latent
				if len(held) > 0 {
					i := rng.Intn(len(held))
					cookie++
					s.PushLatent(held[i].Idx, cookie)
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			case 3: // reconcile up to a random elapsed point
				elapsed = gsync.Cookie(rng.Intn(int(cookie) + 1))
				s.Reconcile(func(c gsync.Cookie) bool { return c <= elapsed }, false)
			}
			if s.FreeCount()+s.LatentCount()+s.InUse() != s.Capacity() {
				return false
			}
			if s.InUse() != len(held) {
				return false
			}
			seen := map[uint32]bool{}
			for _, idx := range s.free {
				if seen[idx] {
					return false
				}
				seen[idx] = true
			}
			for _, e := range s.latent {
				if seen[e.idx] {
					return false
				}
				seen[e.idx] = true
			}
			for _, r := range held {
				if seen[r.Idx] {
					return false
				}
				seen[r.Idx] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSlabColoringCyclesOffsets(t *testing.T) {
	cfg := CacheConfig{
		Name:       "color",
		ObjectSize: 192, // 21 objects per 4096-byte page, 64 bytes slack
		SlabOrder:  0,
		CPUs:       1,
	}
	b := NewBase(pagealloc.New(memarena.New(64)), cfg)
	n := b.NodeFor(0)
	colors := map[int]bool{}
	for i := 0; i < 4; i++ {
		s, err := b.NewSlab(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Color()%64 != 0 {
			t.Fatalf("color %d not cache-line aligned", s.Color())
		}
		if s.Color()+s.Capacity()*cfg.ObjectSize > memarena.PageSize {
			t.Fatalf("color %d pushes objects past the slab end", s.Color())
		}
		colors[s.Color()] = true
		// Objects remain in-bounds and disjoint under coloring.
		n.Lock()
		r0, r1 := s.PopFree(), s.PopFree()
		n.Unlock()
		r0.Bytes()[0] = 0xEE
		if r1.Bytes()[0] == 0xEE {
			t.Fatal("colored objects overlap")
		}
	}
	if len(colors) < 2 {
		t.Fatalf("coloring never varied: %v", colors)
	}
}

func TestSlabColoringDisabled(t *testing.T) {
	cfg := CacheConfig{
		Name:            "nocolor",
		ObjectSize:      192,
		SlabOrder:       0,
		CPUs:            1,
		DisableColoring: true,
	}
	b := NewBase(pagealloc.New(memarena.New(64)), cfg)
	n := b.NodeFor(0)
	for i := 0; i < 3; i++ {
		s, err := b.NewSlab(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Color() != 0 {
			t.Fatalf("slab colored (%d) with coloring disabled", s.Color())
		}
	}
}

func TestColoringNeverWhenNoSlack(t *testing.T) {
	cfg := CacheConfig{
		Name:       "tight",
		ObjectSize: 512, // 8 objects exactly fill the page: no slack
		SlabOrder:  0,
		CPUs:       1,
	}
	b := NewBase(pagealloc.New(memarena.New(64)), cfg)
	n := b.NodeFor(0)
	for i := 0; i < 3; i++ {
		s, err := b.NewSlab(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Color() != 0 {
			t.Fatalf("slab colored (%d) with zero slack", s.Color())
		}
	}
}
