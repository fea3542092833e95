package ebr_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prudence/internal/alloctest"
	"prudence/internal/core"
	"prudence/internal/ebr"
	"prudence/internal/memarena"
	"prudence/internal/pagealloc"
	"prudence/internal/rcuhash"
	"prudence/internal/rculist"
	"prudence/internal/rcutree"
	"prudence/internal/slabcore"
	gsync "prudence/internal/sync"
	"prudence/internal/sync/synctest"
	"prudence/internal/vcpu"
)

func fastOpts() ebr.Options {
	return ebr.Options{
		AdvanceInterval: 50 * time.Microsecond,
		PollInterval:    10 * time.Microsecond,
	}
}

func newEngine(t *testing.T, cpus int) (*vcpu.Machine, *ebr.EBR) {
	t.Helper()
	m := vcpu.NewMachine(cpus)
	e := ebr.New(m, fastOpts())
	t.Cleanup(func() {
		e.Stop()
		m.Stop()
	})
	return m, e
}

var _ gsync.Backend = (*ebr.EBR)(nil)

func TestSynchronizeAdvancesEpochs(t *testing.T) {
	_, e := newEngine(t, 2)
	before := e.Epoch()
	e.Synchronize()
	if e.Epoch() < before+2 {
		t.Fatalf("epoch advanced %d -> %d; a grace period needs two advances", before, e.Epoch())
	}
	if e.GPsCompleted() == 0 {
		t.Fatal("no grace periods recorded")
	}
}

func TestPinnedReaderBlocksGracePeriod(t *testing.T) {
	_, e := newEngine(t, 2)
	e.ReadLock(0)
	cookie := e.Snapshot()
	done := make(chan struct{})
	go func() {
		e.WaitElapsedOnTimeout(1, cookie, time.Minute)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("grace period elapsed despite pinned reader")
	case <-time.After(20 * time.Millisecond):
	}
	e.ReadUnlock(0)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("grace period stalled after reader exit")
	}
}

func TestNestedSections(t *testing.T) {
	_, e := newEngine(t, 1)
	e.ReadLock(0)
	e.ReadLock(0)
	e.ReadUnlock(0)
	if !e.Held(0) {
		t.Fatal("outer section lost")
	}
	e.ReadUnlock(0)
	if e.Held(0) {
		t.Fatal("section not closed")
	}
}

func TestUnbalancedExitPanics(t *testing.T) {
	_, e := newEngine(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Exit did not panic")
		}
	}()
	e.ReadUnlock(0)
}

func TestWaitInsideSectionPanics(t *testing.T) {
	_, e := newEngine(t, 1)
	e.ReadLock(0)
	defer e.ReadUnlock(0)
	defer func() {
		if recover() == nil {
			t.Fatal("WaitElapsedOnTimeout inside section did not panic")
		}
	}()
	e.WaitElapsedOnTimeout(0, e.Snapshot(), time.Minute)
}

func TestCookieSemantics(t *testing.T) {
	_, e := newEngine(t, 1)
	c := e.Snapshot()
	if e.Elapsed(c) {
		t.Fatal("fresh cookie already elapsed")
	}
	e.Synchronize()
	if !e.Elapsed(c) {
		t.Fatal("cookie not elapsed after Synchronize")
	}
	if e.Elapsed(e.Snapshot()) {
		t.Fatal("new cookie elapsed without new grace period")
	}
}

// Prudence runs unchanged over EBR: deferred objects are not reused
// while a reader is pinned, become reusable after a grace period, and
// drain to zero — the turnkey-generality claim of the paper.
func TestPrudenceOverEBR(t *testing.T) {
	arena := memarena.New(2048)
	defer arena.Close()
	pages := pagealloc.New(arena)
	machine := vcpu.NewMachine(4)
	e := ebr.New(machine, fastOpts())
	defer machine.Stop()
	defer e.Stop()

	a := core.New(pages, e, machine, core.Options{})
	cache := a.NewCache(alloctest.TestCacheConfig("over-ebr")).(*core.Cache)

	// Reader pins the epoch; a deferred object must not be reused.
	e.ReadLock(1)
	r, err := cache.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(r.Bytes(), []byte("EBR-LIVE"))
	cache.FreeDeferred(0, r)
	for i := 0; i < 100; i++ {
		nr, err := cache.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if nr.Slab == r.Slab && nr.Idx == r.Idx {
			t.Fatalf("deferred object reused while reader pinned (iteration %d)", i)
		}
		cache.Free(0, nr)
	}
	if string(r.Bytes()[:8]) != "EBR-LIVE" {
		t.Fatal("deferred object memory overwritten while reader pinned")
	}
	e.ReadUnlock(1)

	// After a grace period the object must come back.
	e.Synchronize()
	found := false
	deadline := time.Now().Add(5 * time.Second)
	for !found {
		var batch []slabcore.Ref
		for i := 0; i < 10; i++ {
			nr, err := cache.Malloc(0)
			if err != nil {
				t.Fatal(err)
			}
			if nr.Slab == r.Slab && nr.Idx == r.Idx {
				found = true
			}
			batch = append(batch, nr)
		}
		for _, nr := range batch {
			cache.Free(0, nr)
		}
		if time.Now().After(deadline) {
			t.Fatal("deferred object never reusable over EBR")
		}
	}
	cache.Drain()
	if err := cache.Audit(); err != nil {
		t.Fatal(err)
	}
	if used := arena.UsedPages(); used != 0 {
		t.Fatalf("%d pages leaked", used)
	}
}

// A concurrent smoke: per-CPU writers defer-freeing under EBR while
// readers pin/unpin; everything drains.
func TestPrudenceOverEBRConcurrent(t *testing.T) {
	arena := memarena.New(4096)
	defer arena.Close()
	pages := pagealloc.New(arena)
	machine := vcpu.NewMachine(4)
	e := ebr.New(machine, fastOpts())
	defer machine.Stop()
	defer e.Stop()
	a := core.New(pages, e, machine, core.Options{})
	cache := a.NewCache(alloctest.TestCacheConfig("ebr-conc")).(*core.Cache)

	var fail atomic.Bool
	var wg sync.WaitGroup
	machine.RunOnAll(func(c *vcpu.CPU) {
		cpu := c.ID()
		for i := 0; i < 3000; i++ {
			e.ReadLock(cpu)
			r, err := cache.Malloc(cpu)
			if err != nil {
				e.ReadUnlock(cpu)
				fail.Store(true)
				return
			}
			r.Bytes()[0] = byte(i)
			e.ReadUnlock(cpu)
			cache.FreeDeferred(cpu, r)
		}
	})
	wg.Wait()
	if fail.Load() {
		t.Fatal("allocation failed under concurrent EBR load")
	}
	cache.Drain()
	if err := cache.Audit(); err != nil {
		t.Fatal(err)
	}
	if used := arena.UsedPages(); used != 0 {
		t.Fatalf("%d pages leaked", used)
	}
}

// The full data-structure stack (list, hash map, tree) runs over EBR:
// the same read-side interface serves both engines.
func TestDataStructuresOverEBR(t *testing.T) {
	arena := memarena.New(4096)
	defer arena.Close()
	pages := pagealloc.New(arena)
	machine := vcpu.NewMachine(4)
	e := ebr.New(machine, fastOpts())
	defer machine.Stop()
	defer e.Stop()
	a := core.New(pages, e, machine, core.Options{})

	lcache := a.NewCache(alloctest.TestCacheConfig("ebr-list"))
	l := rculist.New(lcache, e)
	if err := l.Insert(0, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if ok, err := l.Update(0, 1, []byte("uno")); err != nil || !ok {
		t.Fatalf("list update over EBR: %v %v", ok, err)
	}
	buf := make([]byte, 8)
	if _, ok := l.Lookup(0, 1, buf); !ok || string(buf[:3]) != "uno" {
		t.Fatalf("list lookup over EBR: %q", buf[:3])
	}

	mcache := a.NewCache(alloctest.TestCacheConfig("ebr-map"))
	m := rcuhash.New(mcache, e, 8)
	for k := uint64(0); k < 100; k++ {
		if err := m.Put(0, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Resize(0, 32); err != nil {
		t.Fatalf("map resize over EBR (uses SynchronizeOn): %v", err)
	}
	if m.Len() != 100 {
		t.Fatalf("map lost entries over EBR: %d", m.Len())
	}

	tcache := a.NewCache(alloctest.TestCacheConfig("ebr-tree"))
	tr := rcutree.New(tcache, e)
	for k := uint64(0); k < 64; k++ {
		if err := tr.Put(0, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tr.Get(0, 42, buf); !ok || buf[0] != 42 {
		t.Fatal("tree get over EBR")
	}

	// Teardown everything and verify zero residual memory.
	if ok, err := l.Delete(0, 1); err != nil || !ok {
		t.Fatal("list delete")
	}
	for k := uint64(0); k < 100; k++ {
		if ok, err := m.Delete(0, k); err != nil || !ok {
			t.Fatal("map delete")
		}
	}
	for k := uint64(0); k < 64; k++ {
		if ok, err := tr.Delete(0, k); err != nil || !ok {
			t.Fatal("tree delete")
		}
	}
	for _, c := range a.Caches() {
		c.Drain()
	}
	if used := arena.UsedPages(); used != 0 {
		t.Fatalf("%d pages leaked over EBR", used)
	}
}

// RetireObject parks objects in the engine's limbo bags until a full grace
// period passes; a pinned reader holds them there and Barrier observes
// the eventual drain. (The queue mechanics themselves are tested in
// internal/sync; this pins the ebr wiring.)
func TestRetireAndBarrier(t *testing.T) {
	_, e := newEngine(t, 2)
	entered := make(chan struct{})
	release := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		e.ReadLock(1)
		close(entered)
		<-release
		e.ReadUnlock(1)
	}()
	<-entered
	var freed atomic.Bool
	e.RetireObject(0, synctest.Func, func() { freed.Store(true) }, 0)
	if e.RetireBacklog() != 1 {
		t.Fatalf("RetireBacklog = %d, want 1", e.RetireBacklog())
	}
	time.Sleep(5 * time.Millisecond)
	if freed.Load() {
		t.Fatal("retired object reclaimed under a pinned reader")
	}
	close(release)
	<-readerDone
	e.Barrier()
	if !freed.Load() {
		t.Fatal("Barrier returned before the retirement ran")
	}
	if e.RetireBacklog() != 0 {
		t.Fatalf("RetireBacklog = %d after Barrier", e.RetireBacklog())
	}
}
