package core

import (
	"testing"

	"prudence/internal/alloc"
	"prudence/internal/alloctest"
	"prudence/internal/slabcore"
	gsync "prudence/internal/sync"
)

// The latent ring is a FIFO across head wrap-around and across growth
// while wrapped: entries come out in push order, so the elapsed prefix
// the merge pops is always the oldest.
func TestLatentRingWrapsAndGrows(t *testing.T) {
	r := newLatentRing(3)
	if len(r.buf) != 4 {
		t.Fatalf("initial buffer %d, want 4 (the size rounded up to a power of two)", len(r.buf))
	}
	next, want := gsync.Cookie(1), gsync.Cookie(1)
	push := func(k int) {
		for ; k > 0; k-- {
			r.push(latentObj{cookie: next})
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			if got := r.pop().cookie; got != want {
				t.Fatalf("popped cookie %d, want %d", got, want)
			}
			want++
		}
	}
	push(3)
	pop(2)
	push(3) // wraps: head is 2 of 4
	if r.head == 0 || len(r.buf) != 4 {
		t.Fatalf("head %d buffer %d, want a wrapped ring of 4", r.head, len(r.buf))
	}
	push(3) // grows twice while wrapped
	if len(r.buf) != 8 || r.len() != 7 {
		t.Fatalf("buffer %d len %d, want 8 and 7", len(r.buf), r.len())
	}
	for i := 0; i < r.len(); i++ {
		if got := r.at(i).cookie; got != want+gsync.Cookie(i) {
			t.Fatalf("at(%d) = %d, want %d", i, got, want+gsync.Cookie(i))
		}
	}
	got := r.popInto(nil, 4)
	for i, lo := range got {
		if lo.cookie != want+gsync.Cookie(i) {
			t.Fatalf("popInto[%d] = %d, want %d", i, lo.cookie, want+gsync.Cookie(i))
		}
	}
	want += 4
	push(20)
	pop(r.len())
	if want != next {
		t.Fatalf("drained up to cookie %d, pushed up to %d", want, next)
	}
}

// The flush's latent term is the ring depth clamped to the object cache
// size: a merge can add no more than that, so a deep ring must not
// inflate the flush. Up to that depth the sizing is unchanged.
func TestFlushSizeClampsDeepRing(t *testing.T) {
	s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), func(s *alloctest.Stack) alloc.Allocator {
		return New(s.Pages, s.RCU, s.Machine, Options{})
	})
	cfg := alloctest.TestCacheConfig("flushsize")
	c := s.Alloc.NewCache(cfg).(*Cache)

	s.RCU.ExitIdle(1)
	s.RCU.ReadLock(1)
	defer func() {
		s.RCU.ReadUnlock(1)
		s.RCU.QuiescentState(1)
		s.RCU.EnterIdle(1)
		c.Drain()
	}()

	var refs []slabcore.Ref
	for i := 0; i < 4*cfg.CacheSize; i++ {
		r, err := c.Malloc(0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	cl := c.percpu[0]
	size := func() (objs, ring, n int) {
		cl.objs.Lock()
		defer cl.objs.Unlock()
		return cl.objs.Len(), cl.latent.len(), c.flushSize(cl)
	}
	for i, r := range refs {
		c.FreeDeferred(0, r)
		objs, ring, n := size()
		if want := objs/2 + min(ring, cfg.CacheSize); n != want {
			t.Fatalf("after %d deferred frees: flush size %d, want %d (objects %d, ring %d)", i+1, n, want, objs, ring)
		}
	}
	if _, ring, _ := size(); ring <= cfg.CacheSize {
		t.Fatalf("ring depth %d, the test needs it deeper than %d", ring, cfg.CacheSize)
	}
}
