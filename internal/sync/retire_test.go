package sync_test

import (
	"sync/atomic"
	"testing"
	"time"

	gsync "prudence/internal/sync"
	"prudence/internal/sync/synctest"
)

// fakePoller is a hand-cranked grace-period source: cookies are epoch+1
// and elapse when Advance has been called past them. needGP and expedite
// count demand so tests can assert the queue keeps raising it and
// escalates past the qhimark.
type fakePoller struct {
	epoch    atomic.Uint64
	needGP   atomic.Uint64
	expedite atomic.Uint64
}

func (f *fakePoller) Snapshot() gsync.Cookie      { return gsync.Cookie(f.epoch.Load() + 1) }
func (f *fakePoller) Elapsed(c gsync.Cookie) bool { return f.epoch.Load() >= uint64(c) }
func (f *fakePoller) NeedGP()                     { f.needGP.Add(1) }
func (f *fakePoller) ExpediteGP()                 { f.expedite.Add(1) }
func (f *fakePoller) Advance()                    { f.epoch.Add(1) }

func TestRetireQueueDrainsInOrder(t *testing.T) {
	fp := &fakePoller{}
	q := gsync.NewRetireQueue(fp, 2, gsync.QueueOptions{Batch: 4, Poll: 100 * time.Microsecond})
	defer q.Stop()

	var order []int
	done := make(chan int, 10)
	for i := 0; i < 10; i++ {
		i := i
		q.RetireObject(0, synctest.Func, func() { done <- i }, 0)
	}
	if got := q.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	// Nothing may drain before the grace period elapses.
	time.Sleep(5 * time.Millisecond)
	select {
	case i := <-done:
		t.Fatalf("entry %d drained before its cookie elapsed", i)
	default:
	}
	fp.Advance() // epoch 1 >= cookie 1
	q.Barrier()
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Barrier", got)
	}
	close(done)
	for i := range done {
		order = append(order, i)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("drain order %v not FIFO", order)
		}
	}
	if q.MaxBacklog() != 10 {
		t.Fatalf("MaxBacklog = %d, want 10", q.MaxBacklog())
	}
	if fp.needGP.Load() == 0 {
		t.Fatal("queue never raised grace-period demand")
	}
}

// Entries stamped after an advance need a later epoch than entries from
// before it; the drainer frees exactly the elapsed prefix.
func TestRetireQueuePartialElapse(t *testing.T) {
	fp := &fakePoller{}
	q := gsync.NewRetireQueue(fp, 1, gsync.QueueOptions{Poll: 100 * time.Microsecond})
	defer q.Stop()

	var early, late atomic.Bool
	q.RetireObject(0, synctest.Func, func() { early.Store(true) }, 0) // cookie 1
	fp.Advance()                                                      // epoch 1
	q.RetireObject(0, synctest.Func, func() { late.Store(true) }, 0)  // cookie 2

	deadline := time.Now().Add(5 * time.Second)
	for !early.Load() {
		if time.Now().After(deadline) {
			t.Fatal("elapsed entry never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if late.Load() {
		t.Fatal("un-elapsed entry drained")
	}
	fp.Advance() // epoch 2
	q.Barrier()
	if !late.Load() {
		t.Fatal("second entry not drained after its epoch")
	}
}

// Past the qhimark, RetireObject escalates to expedited grace-period demand
// and drains run above the throttled batch size (batch limits come off
// entirely), so a deferred-free storm cannot grow the bags unboundedly.
func TestRetireQueueQhimarkEscalation(t *testing.T) {
	fp := &fakePoller{}
	q := gsync.NewRetireQueue(fp, 1, gsync.QueueOptions{
		Batch:   4,
		Qhimark: 16,
		Delay:   time.Hour, // throttled drains would be glacial
		Poll:    100 * time.Microsecond,
	})
	defer q.Stop()

	var invoked atomic.Int64
	for i := 0; i < 64; i++ {
		q.RetireObject(0, synctest.Func, func() { invoked.Add(1) }, 0)
	}
	if fp.expedite.Load() == 0 {
		t.Fatal("backlog past qhimark never raised expedited demand")
	}
	fp.Advance()
	q.Barrier()
	if got := invoked.Load(); got != 64 {
		t.Fatalf("invoked = %d, want 64", got)
	}
	if q.ExpeditedDrains() == 0 {
		t.Fatal("deep backlog drained without any expedited bursts")
	}
}

// Below the qhimark the queue raises plain demand, not expedited.
func TestRetireQueueBelowQhimarkPlainDemand(t *testing.T) {
	fp := &fakePoller{}
	q := gsync.NewRetireQueue(fp, 1, gsync.QueueOptions{
		Batch:   4,
		Qhimark: 1000,
		Poll:    time.Hour, // drainer parked: only RetireObject raises demand
	})
	defer q.Stop()
	for i := 0; i < 8; i++ {
		q.RetireObject(0, synctest.Func, func() {}, 0)
	}
	if fp.expedite.Load() != 0 {
		t.Fatalf("expedited demand raised %d times below the qhimark", fp.expedite.Load())
	}
	if fp.needGP.Load() == 0 {
		t.Fatal("queue never raised plain demand")
	}
}

// Stop invokes already-elapsed entries (reclaimable memory must not be
// stranded) and drops the rest.
func TestRetireQueueStopDrainsElapsed(t *testing.T) {
	fp := &fakePoller{}
	q := gsync.NewRetireQueue(fp, 1, gsync.QueueOptions{Poll: time.Hour}) // drainer effectively parked
	var elapsed, pinned atomic.Bool
	q.RetireObject(0, synctest.Func, func() { elapsed.Store(true) }, 0) // cookie 1
	fp.Advance()                                                        // epoch 1: first entry elapsed
	q.RetireObject(0, synctest.Func, func() { pinned.Store(true) }, 0)  // cookie 2: never elapses
	q.Stop()
	if !elapsed.Load() {
		t.Fatal("Stop stranded an elapsed entry")
	}
	if pinned.Load() {
		t.Fatal("Stop invoked an un-elapsed entry")
	}
}

// chanReclaimer signals each RetireObject delivery so tests can assert
// the payload arrives intact and in FIFO order.
type chanReclaimer struct {
	got chan [2]uint64 // {idx, cpu}
}

func (r *chanReclaimer) ReclaimRetired(cpu int, obj any, idx uint64) {
	if obj == nil {
		panic("retire_test: RetireObject payload lost its obj")
	}
	r.got <- [2]uint64{idx, uint64(cpu)}
}

func TestRetireQueueRetireObject(t *testing.T) {
	fp := &fakePoller{}
	q := gsync.NewRetireQueue(fp, 2, gsync.QueueOptions{Poll: 100 * time.Microsecond})
	defer q.Stop()

	rec := &chanReclaimer{got: make(chan [2]uint64, 8)}
	payload := new(int)
	for i := 0; i < 4; i++ {
		q.RetireObject(1, rec, payload, uint64(i))
	}
	if got := q.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
	fp.Advance()
	q.Barrier()
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Barrier", got)
	}
	close(rec.got)
	i := uint64(0)
	for g := range rec.got {
		if g[0] != i || g[1] != 1 {
			t.Fatalf("delivery %d = {idx %d, cpu %d}, want {idx %d, cpu 1}", i, g[0], g[1], i)
		}
		i++
	}
	if i != 4 {
		t.Fatalf("reclaimer saw %d deliveries, want 4", i)
	}
}
