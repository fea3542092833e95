package rcu

import (
	"sync/atomic"
	"testing"
	"time"

	"prudence/internal/vcpu"
)

// Over qhimark, a quiescent state drains the whole ready backlog even
// though the normal batch limit is tiny.
func TestQhimarkRemovesBatchLimit(t *testing.T) {
	m := vcpu.NewMachine(1)
	defer m.Stop()
	r := New(m, Options{
		Blimit:         2,
		ThrottleDelay:  50 * time.Millisecond, // normal path would take ~minutes
		Qhimark:        100,
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	})
	defer r.Stop()

	r.ExitIdle(0)
	defer r.EnterIdle(0)

	const n = 500 // 5x qhimark
	var invoked atomic.Int32
	for i := 0; i < n; i++ {
		r.call(0, func() { invoked.Add(1) })
	}
	// Let the grace period elapse while CPU 0 stays active (so the idle
	// offload processor does not run).
	cookie := r.Snapshot()
	deadline := time.Now().Add(5 * time.Second)
	for !r.Elapsed(cookie) {
		r.QuiescentState(0)
		if time.Now().After(deadline) {
			t.Fatal("grace period never elapsed")
		}
	}
	// One quiescent state must now drain everything ready: the backlog
	// exceeds qhimark so the limit comes off.
	r.QuiescentState(0)
	if got := invoked.Load(); got != n {
		t.Fatalf("drained %d/%d callbacks at quiescent state over qhimark", got, n)
	}
}

// Under qhimark the blimit cap stays in force at quiescent states.
func TestUnderQhimarkKeepsBatchLimit(t *testing.T) {
	m := vcpu.NewMachine(1)
	defer m.Stop()
	r := New(m, Options{
		Blimit:         3,
		ThrottleDelay:  time.Nanosecond, // no time gate, only the batch cap
		Qhimark:        1000,
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	})
	defer r.Stop()
	r.ExitIdle(0)
	defer r.EnterIdle(0)

	const n = 30
	var invoked atomic.Int32
	for i := 0; i < n; i++ {
		r.call(0, func() { invoked.Add(1) })
	}
	cookie := r.Snapshot()
	deadline := time.Now().Add(5 * time.Second)
	for !r.Elapsed(cookie) {
		r.QuiescentState(0)
		if time.Now().After(deadline) {
			t.Fatal("grace period never elapsed")
		}
	}
	before := invoked.Load()
	time.Sleep(time.Millisecond) // pass the (1ns) throttle window
	r.QuiescentState(0)
	after := invoked.Load()
	if after-before > 3 {
		t.Fatalf("one quiescent state invoked %d callbacks, batch limit is 3", after-before)
	}
}

// Negative qhimark disables the unbounded drain entirely.
func TestQhimarkDisabled(t *testing.T) {
	m := vcpu.NewMachine(1)
	defer m.Stop()
	r := New(m, Options{
		Blimit:         2,
		ThrottleDelay:  time.Nanosecond,
		Qhimark:        -1,
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	})
	defer r.Stop()
	r.ExitIdle(0)
	defer r.EnterIdle(0)

	const n = 50
	var invoked atomic.Int32
	for i := 0; i < n; i++ {
		r.call(0, func() { invoked.Add(1) })
	}
	cookie := r.Snapshot()
	deadline := time.Now().Add(5 * time.Second)
	for !r.Elapsed(cookie) {
		r.QuiescentState(0)
		if time.Now().After(deadline) {
			t.Fatal("grace period never elapsed")
		}
	}
	before := invoked.Load()
	time.Sleep(time.Millisecond)
	r.QuiescentState(0)
	if d := invoked.Load() - before; d > 2 {
		t.Fatalf("disabled qhimark still drained %d callbacks in one batch", d)
	}
}

// A stalled grace period (reader held open) keeps the backlog intact;
// releasing the reader lets the engine drain it.
func TestBacklogSurvivesGPStall(t *testing.T) {
	m := vcpu.NewMachine(2)
	defer m.Stop()
	r := New(m, fastOpts())
	defer r.Stop()

	r.ExitIdle(1)
	r.ReadLock(1)

	var invoked atomic.Int32
	const n = 100
	for i := 0; i < n; i++ {
		r.call(0, func() { invoked.Add(1) })
	}
	time.Sleep(10 * time.Millisecond)
	if got := invoked.Load(); got != 0 {
		t.Fatalf("%d callbacks invoked during grace-period stall", got)
	}
	if got := r.PendingCallbacks(); got != n {
		t.Fatalf("backlog = %d during stall, want %d", got, n)
	}
	r.ReadUnlock(1)
	r.QuiescentState(1)
	r.EnterIdle(1)
	deadline := time.Now().Add(5 * time.Second)
	for invoked.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callbacks after stall released", invoked.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}
