// Package synctest is the shared conformance suite for reclamation
// backends: every scheme registered with internal/sync must pass it
// (under -race) before the facade will treat it as interchangeable with
// the others. The suite pins down the contracts the allocator and the
// RCU-protected structures actually rely on:
//
//   - Snapshot cookies elapse after Synchronize, and GPsCompleted never
//     moves backwards.
//   - Demand raised through NeedGP survives a lost wakeup kick: the
//     driver's timer fallback must finish the grace period anyway (the
//     lost-demand bug class PR 2 and PR 5 fixed in rcu/ebr).
//   - WaitElapsedOnTimeout returns within a bounded multiple of its
//     deadline even when a pinned reader blocks the grace period.
//   - An object retired while a reader is inside a read-side critical
//     section is not reclaimed until that reader finishes; Barrier then
//     observes the reclamation.
//
// Backends with designed deviations construct themselves accordingly:
// nebr, whose whole point is that a stalled reader eventually STOPS
// blocking reclamation, must run the suite with its neutralization
// bound set far above the suite's hold windows.
package synctest

import (
	stdsync "sync"
	"testing"
	"time"

	"prudence/internal/fault"
	gsync "prudence/internal/sync"
)

// Func is a Reclaimer that runs the func() carried as a retirement's
// obj: the test idiom for "run this once its grace period has elapsed"
// over RetireObject.
var Func gsync.Reclaimer = funcReclaimer{}

type funcReclaimer struct{}

func (funcReclaimer) ReclaimRetired(_ int, obj any, _ uint64) { obj.(func())() }

// recordingReclaimer captures RetireObject deliveries for the
// conformance check of the retirement payload.
type recordingReclaimer struct {
	mu  stdsync.Mutex
	got []reclaimed // under mu
}

type reclaimed struct {
	cpu int
	obj any
	idx uint64
}

func (r *recordingReclaimer) ReclaimRetired(cpu int, obj any, idx uint64) {
	r.mu.Lock()
	r.got = append(r.got, reclaimed{cpu: cpu, obj: obj, idx: idx})
	r.mu.Unlock()
}

// Factory builds a fresh backend for one subtest; the suite calls Stop
// when the subtest ends. Implementations should use a short
// grace-period interval (~1ms) so the suite runs quickly.
type Factory func(t *testing.T) gsync.Backend

// Run executes the conformance suite against fresh backends from
// factory. cpus is the CPU count the factory's machines use (the suite
// needs at least 2).
func Run(t *testing.T, cpus int, factory Factory) {
	if cpus < 2 {
		t.Fatalf("synctest: need >= 2 CPUs, got %d", cpus)
	}
	fresh := func(t *testing.T) gsync.Backend {
		b := factory(t)
		t.Cleanup(b.Stop)
		return b
	}

	t.Run("SnapshotElapses", func(t *testing.T) {
		b := fresh(t)
		c := b.Snapshot()
		b.Synchronize()
		if !b.Elapsed(c) {
			t.Fatal("cookie taken before Synchronize has not elapsed after it")
		}
		// A later cookie is never "more elapsed" than an earlier one.
		c2 := b.Snapshot()
		if b.Elapsed(c2) && !b.Elapsed(c) {
			t.Fatal("later cookie elapsed before earlier one")
		}
	})

	t.Run("GPsCompletedMonotone", func(t *testing.T) {
		b := fresh(t)
		prev := b.GPsCompleted()
		for i := 0; i < 3; i++ {
			b.Synchronize()
			cur := b.GPsCompleted()
			if cur < prev {
				t.Fatalf("GPsCompleted went backwards: %d -> %d", prev, cur)
			}
			prev = cur
		}
		if prev == 0 {
			t.Fatal("no grace periods completed across three Synchronize calls")
		}
	})

	t.Run("LostDemandRecovers", func(t *testing.T) {
		// Every NeedGP kick is dropped; only the driver's timer
		// fallback remains. Synchronize must still complete.
		fault.Enable(fault.Config{Seed: 1, Rules: map[fault.Point]fault.Rule{
			fault.LostWakeup: {Rate: 1.0},
		}})
		defer fault.Disable()
		b := fresh(t)
		done := make(chan struct{})
		go func() {
			defer close(done)
			b.Synchronize()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("Synchronize hung with NeedGP kicks suppressed — timer fallback missing")
		}
	})

	t.Run("TimeoutBounded", func(t *testing.T) {
		b := fresh(t)
		held := make(chan struct{})
		release := make(chan struct{})
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			b.ExitIdle(1)
			b.ReadLock(1)
			close(held)
			<-release //prudence:nolint:sleepcheck the harness pins a reader on purpose: it parks inside the read-side section until the test releases it
			b.ReadUnlock(1)
			b.EnterIdle(1)
		}()
		<-held
		c := b.Snapshot()
		const d = 30 * time.Millisecond
		start := time.Now()
		b.WaitElapsedOnTimeout(0, c, d)
		if took := time.Since(start); took > 100*d {
			t.Fatalf("WaitElapsedOnTimeout(%v) blocked for %v with a pinned reader", d, took)
		}
		close(release)
		<-readerDone
		if !b.WaitElapsedOnTimeout(0, c, 30*time.Second) {
			t.Fatal("WaitElapsedOnTimeout failed after the reader released")
		}
	})

	t.Run("RetireBlockedByReader", func(t *testing.T) {
		b := fresh(t)
		held := make(chan struct{})
		release := make(chan struct{})
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			b.ExitIdle(1)
			b.ReadLock(1)
			close(held)
			<-release //prudence:nolint:sleepcheck the harness pins a reader on purpose: it parks inside the read-side section until the test releases it
			b.ReadUnlock(1)
			b.EnterIdle(1)
		}()
		<-held
		freed := make(chan struct{})
		b.RetireObject(0, Func, func() { close(freed) }, 0)
		select {
		case <-freed:
			t.Fatal("retired object reclaimed while a reader was pinned")
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		<-readerDone
		b.Barrier()
		select {
		case <-freed:
		default:
			t.Fatal("Barrier returned before the retired object was reclaimed")
		}
	})

	t.Run("RetireObjectRuns", func(t *testing.T) {
		// Payloads survive the trip through the backend's retire
		// machinery intact and arrive at the reclaimer after their
		// grace period, covered by Barrier.
		b := fresh(t)
		rec := &recordingReclaimer{}
		objs := make([]int, 4)
		for i := range objs {
			b.RetireObject(0, rec, &objs[i], uint64(i))
		}
		b.Synchronize()
		b.Barrier()
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.got) != len(objs) {
			t.Fatalf("reclaimer saw %d retirements, want %d", len(rec.got), len(objs))
		}
		for i, g := range rec.got {
			if g.cpu != 0 {
				t.Errorf("retirement %d arrived with cpu %d, want 0", i, g.cpu)
			}
			if g.obj != any(&objs[g.idx]) {
				t.Errorf("retirement idx %d arrived with wrong obj pointer", g.idx)
			}
		}
	})

	t.Run("ExpeditedDemandCompletes", func(t *testing.T) {
		// The expedited contract: ExpediteGP raised while a reader is
		// pinned must drive a grace period to completion within a
		// bounded number of poll passes once the reader releases — the
		// demand may not be lost to the pacing machinery it bypasses.
		b := fresh(t)
		held := make(chan struct{})
		release := make(chan struct{})
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			b.ExitIdle(1)
			b.ReadLock(1)
			close(held)
			<-release //prudence:nolint:sleepcheck the harness pins a reader on purpose: it parks inside the read-side section until the test releases it
			b.ReadUnlock(1)
			b.EnterIdle(1)
		}()
		<-held
		c := b.Snapshot()
		b.ExpediteGP()
		close(release)
		<-readerDone
		const passes = 2000
		for i := 0; i < passes; i++ {
			if b.Elapsed(c) {
				return
			}
			b.QuiescentState(0)
			time.Sleep(100 * time.Microsecond)
		}
		t.Fatalf("cookie not elapsed within %d poll passes of expedited demand", passes)
	})

	t.Run("ExpediteImpliesNeedGP", func(t *testing.T) {
		// ExpediteGP alone (no NeedGP, no waiter) must complete a grace
		// period: it implies plain demand.
		b := fresh(t)
		c := b.Snapshot()
		b.ExpediteGP()
		deadline := time.Now().Add(30 * time.Second)
		for !b.Elapsed(c) {
			if time.Now().After(deadline) {
				t.Fatal("ExpediteGP without other demand never completed a grace period")
			}
			b.QuiescentState(0)
			time.Sleep(100 * time.Microsecond)
		}
	})

	t.Run("NestedReadLock", func(t *testing.T) {
		b := fresh(t)
		done := make(chan struct{})
		go func() {
			defer close(done)
			b.ExitIdle(0)
			b.ReadLock(0)
			b.ReadLock(0)
			b.ReadUnlock(0)
			b.ReadUnlock(0)
			b.QuiescentState(0)
			b.EnterIdle(0)
		}()
		<-done
		b.Synchronize()
	})
}
