package sync_test

import (
	"testing"
	"unsafe"

	gsync "prudence/internal/sync"
)

// frontier elapses every cookie at or below its value.
type frontier uint64

func (f *frontier) Elapsed(c gsync.Cookie) bool { return uint64(c) <= uint64(*f) }

// TestRetireRingWrapAndGrowth drives the ring through wrapped takes and
// several doublings, with cookies rising every few entries, and checks
// that each take returns exactly the ready prefix, bounded by its
// limit, in FIFO order.
func TestRetireRingWrapAndGrowth(t *testing.T) {
	var (
		ring     gsync.RetireRing
		f        frontier
		scratch  []gsync.Retired
		next     uint64 // idx of the next push
		expected uint64 // idx the next take must start at
	)
	cookieOf := func(idx uint64) gsync.Cookie { return gsync.Cookie(idx/5 + 1) }
	push := func(n int) {
		for i := 0; i < n; i++ {
			ring.Push(gsync.Retired{Cookie: cookieOf(next), Idx: next})
			next++
		}
	}
	take := func(limit int) {
		t.Helper()
		ready := 0
		for i := expected; i < next && f.Elapsed(cookieOf(i)); i++ {
			ready++
		}
		want := min(ready, limit)
		scratch = ring.TakeReady(scratch, limit, &f)
		if len(scratch) != want {
			t.Fatalf("took %d entries at frontier %d (limit %d), want the ready prefix of %d", len(scratch), f, limit, want)
		}
		for i, r := range scratch {
			if r.Idx != expected+uint64(i) {
				t.Fatalf("take[%d] = idx %d, want %d: FIFO order broken", i, r.Idx, expected+uint64(i))
			}
		}
		expected += uint64(len(scratch))
		ring.Done(len(scratch))
		if got, want := ring.Len(), int64(next-expected); got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
	}

	push(40) // first capacity is 64
	f = 3    // idx 0..14 ready
	take(100)
	take(100) // nothing new ready
	push(30)  // 55 queued past head 15: wraps the 64-slot ring
	f = 8     // idx ..39 ready
	take(7)   // limit binds
	take(100)
	push(200) // 215 queued: doubles twice, from a wrapped head
	f = 30    // idx ..149 ready
	take(50)
	take(1000)
	f = 1 << 40
	take(1 << 30)
	if ring.Len() != 0 || ring.Pending() != 0 {
		t.Fatalf("drained ring reports Len %d, Pending %d", ring.Len(), ring.Pending())
	}
	if ring.Queued() != next || ring.Invoked() != next {
		t.Fatalf("Queued %d, Invoked %d, want %d each", ring.Queued(), ring.Invoked(), next)
	}
}

// Entries taken but not yet reported with Done stay pending.
func TestRetireRingPendingUntilDone(t *testing.T) {
	var ring gsync.RetireRing
	f := frontier(1)
	for i := 0; i < 3; i++ {
		ring.Push(gsync.Retired{Cookie: 1})
	}
	batch := ring.TakeReady(nil, 2, &f)
	if ring.Len() != 1 || ring.Pending() != 3 {
		t.Fatalf("after taking 2 of 3: Len %d, Pending %d, want 1 and 3", ring.Len(), ring.Pending())
	}
	ring.Done(len(batch))
	if ring.Pending() != 1 {
		t.Fatalf("after Done: Pending %d, want 1", ring.Pending())
	}
}

// A warm ring pushes and takes without allocating: the enqueue side of
// every RetireObject and the drain side of every batch.
func TestRetireRingWarmDoesNotAllocate(t *testing.T) {
	var ring gsync.RetireRing
	f := frontier(0)
	obj := new(int)
	scratch := make([]gsync.Retired, 0, 16)
	cycle := func() {
		for i := 0; i < 16; i++ {
			ring.Push(gsync.Retired{Cookie: gsync.Cookie(f + 1), Obj: obj})
		}
		f++
		scratch = ring.TakeReady(scratch, 16, &f)
		clear(scratch)
		ring.Done(len(scratch))
	}
	cycle() // warm the ring's capacity
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("warm push/take cycle allocates %v times, want 0", avg)
	}
}

// TestRetireRingPadding pins the ring to 128 bytes (a cache line pair,
// covering adjacent-line prefetch): every enqueue writes it, so
// neighbouring CPUs' rings must not false-share.
func TestRetireRingPadding(t *testing.T) {
	if s := unsafe.Sizeof(gsync.RetireRing{}); s != 128 {
		t.Fatalf("RetireRing is %d bytes, want 128 — resize its pad field", s)
	}
}
