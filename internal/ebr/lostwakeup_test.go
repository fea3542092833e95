package ebr_test

import (
	"testing"
	"time"

	"prudence/internal/fault"
	gsync "prudence/internal/sync"
)

// Seed-pinned regression for the lost-demand hang in the grace-period
// wait loop (sync.Driver's, shared by every backend): a cookie
// snapshotted at an odd epoch outlives the advance pair in progress, so
// its waiter depends on demand that survives that pair. The fault layer
// drops every wake-up kick (LostWakeup at rate 1.0), so recovery may
// rely only on the recorded demand flag, the waiter re-raising it on
// every pass, and the driver's timer fallback.
func TestWaitElapsedSurvivesLostDemand(t *testing.T) {
	inj := fault.Enable(fault.Config{
		Seed:  7,
		Rules: map[fault.Point]fault.Rule{fault.LostWakeup: {Rate: 1.0}},
	})
	defer fault.Disable()

	_, e := newEngine(t, 2)

	// Pin a reader at epoch 0. The first advance (0 -> 1) waits only for
	// CPUs pinned at older epochs, so it proceeds; the second (1 -> 2)
	// sees the reader as a straggler and stalls — parking the epoch at
	// an odd value.
	e.ReadLock(1)
	e.NeedGP()
	deadline := time.Now().Add(2 * time.Second)
	for e.Epoch() != 1 {
		if time.Now().After(deadline) {
			e.ReadUnlock(1)
			t.Fatalf("epoch never reached 1 (at %d); advancer stuck before the scenario even started", e.Epoch())
		}
		time.Sleep(50 * time.Microsecond)
	}

	// Snapshot at the odd epoch: cookie 3 needs one more advance than
	// the pair that will clear demand.
	c := e.Snapshot()
	if c != gsync.Cookie(3) {
		t.Fatalf("cookie = %d, want 3 (snapshot at odd epoch)", c)
	}

	done := make(chan bool, 1)
	go func() { done <- e.WaitElapsedOnTimeout(0, c, time.Minute) }()
	// Let the waiter block before releasing the reader, so it sleeps
	// through the demand-clearing advance to 2.
	time.Sleep(2 * time.Millisecond)
	e.ReadUnlock(1)

	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitElapsedOnTimeout returned without the cookie elapsing")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitElapsedOnTimeout hung: lost-demand regression (waiter must re-raise NeedGP on every wakeup)")
	}

	// The schedule must have been hostile: every kick dropped.
	if a, f := inj.Arrivals(fault.LostWakeup), inj.Fired(fault.LostWakeup); a == 0 || a != f {
		t.Fatalf("lost-wakeup injection not total: %d arrivals, %d dropped", a, f)
	}
}
