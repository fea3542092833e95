package ebr_test

import (
	"sync/atomic"
	"testing"
	"time"

	"prudence/internal/ebr"
	"prudence/internal/fault"
	"prudence/internal/metrics"
	"prudence/internal/sync/synctest"
	"prudence/internal/vcpu"
)

func newPolicy(t *testing.T, cpus int, opts ebr.Options) (*vcpu.Machine, *ebr.EBR) {
	t.Helper()
	m := vcpu.NewMachine(cpus)
	t.Cleanup(m.Stop)
	e := ebr.New(m, opts)
	t.Cleanup(e.Stop)
	return m, e
}

// The straggler step is the one place the policies differ, so both face
// the same reader stalled inside a critical section. Plain EBR waits:
// the epoch never advances past the pin, nothing is neutralized and no
// interrupt handler is installed. nebr neutralizes the reader after the
// bound, the grace period completes, the retirement is reclaimed, and
// the reader's next ReadLock counts the restart it owes.
func TestStragglerStep(t *testing.T) {
	for _, p := range []struct {
		name            string
		neutralizeAfter time.Duration
	}{{"ebr", 0}, {"nebr", 2 * time.Millisecond}} {
		t.Run(p.name, func(t *testing.T) {
			m, e := newPolicy(t, 2, ebr.Options{
				AdvanceInterval: 200 * time.Microsecond,
				NeutralizeAfter: p.neutralizeAfter,
			})
			reg := metrics.NewRegistry()
			e.RegisterMetrics(reg)
			entered := make(chan struct{})
			release := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				e.ReadLock(1)
				close(entered)
				<-release // stalled far past any bound
				e.ReadUnlock(1)
				e.ReadLock(1) // the restart
				e.ReadUnlock(1)
			}()
			<-entered
			pinnedAt := e.Epoch()

			var freed atomic.Bool
			e.RetireObject(0, synctest.Func, func() { freed.Store(true) }, 0)
			if p.neutralizeAfter == 0 {
				if e.WaitElapsedOnTimeout(0, e.Snapshot(), 50*time.Millisecond) {
					t.Fatal("grace period completed past a pinned reader")
				}
				if got := e.Epoch(); got > pinnedAt+1 {
					t.Fatalf("epoch advanced %d -> %d past the pin", pinnedAt, got)
				}
				if freed.Load() {
					t.Fatal("retirement reclaimed under a pinned reader")
				}
				if n := e.Neutralizations(); n != 0 {
					t.Fatalf("%d neutralizations under plain EBR", n)
				}
				if m.Interrupt(1) {
					t.Fatal("plain EBR installed an interrupt handler")
				}
			} else {
				if !e.WaitElapsedOnTimeout(0, e.Snapshot(), 10*time.Second) {
					t.Fatal("grace period blocked behind a stalled reader — neutralization never fired")
				}
				if e.Neutralizations() == 0 {
					t.Fatal("grace period completed but no neutralization was recorded")
				}
				e.Barrier()
				if !freed.Load() {
					t.Fatal("retirement not reclaimed after neutralization")
				}
			}
			close(release)
			<-readerDone
			restarts := reg.Gather()["prudence_nebr_restarts_total"]
			if want := float64(e.Neutralizations()); restarts != want {
				t.Fatalf("prudence_nebr_restarts_total = %v, want %v (one per neutralization)", restarts, want)
			}
			if p.neutralizeAfter > 0 && restarts == 0 {
				t.Fatal("re-entry after neutralization counted no restart")
			}
		})
	}
}

// A healthy reader — one that exits within the bound — is never
// neutralized, and re-entry clears any stale mark.
func TestHealthyReaderNotNeutralized(t *testing.T) {
	_, e := newPolicy(t, 2, ebr.Options{
		AdvanceInterval: 200 * time.Microsecond,
		NeutralizeAfter: 30 * time.Second,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			e.ReadLock(1)
			e.ReadUnlock(1)
			if e.Neutralized(1) {
				t.Error("healthy reader neutralized")
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		e.Synchronize()
	}
	<-done
	if e.Neutralizations() != 0 {
		t.Fatalf("%d neutralizations with no stalled readers", e.Neutralizations())
	}
}

// SafeEpoch is min(global epoch, pinned entry epochs - 1): a pinned
// reader holds the frontier at its entry epoch; with no readers the
// frontier is the global epoch itself.
func TestSafeEpoch(t *testing.T) {
	_, e := newPolicy(t, 2, ebr.Options{
		AdvanceInterval: 200 * time.Microsecond,
		NeutralizeAfter: time.Minute,
	})
	e.Synchronize()
	if got, want := e.SafeEpoch(), e.Epoch(); got != want {
		t.Fatalf("idle SafeEpoch = %d, epoch = %d", got, want)
	}
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
	pinnedAt := e.SafeEpoch()
	// Epoch advances are blocked by the straggler (neutralization is a
	// minute away), so the frontier must hold at the reader's entry.
	c := e.Snapshot()
	e.WaitElapsedOnTimeout(0, c, 20*time.Millisecond)
	if got := e.SafeEpoch(); got != pinnedAt {
		t.Fatalf("SafeEpoch moved %d -> %d under a pinned reader", pinnedAt, got)
	}
	close(release)
	<-readerDone
	if !e.WaitElapsedOnTimeout(0, c, time.Minute) {
		t.Fatal("cookie did not elapse after release")
	}
}

// The nebr_neutralize_lost fault point models a dropped signal: with
// every delivery suppressed, the advancer must keep retrying without
// advancing unsafely — and once the fault clears (Max firings
// exhausted), neutralization goes through and reclamation completes.
func TestNeutralizeSignalLost(t *testing.T) {
	fault.Enable(fault.Config{Seed: 7, Rules: map[fault.Point]fault.Rule{
		fault.NeutralizeLost: {Rate: 1.0, Max: 5},
	}})
	defer fault.Disable()

	_, e := newPolicy(t, 2, ebr.Options{
		AdvanceInterval: 200 * time.Microsecond,
		PollInterval:    200 * time.Microsecond,
		NeutralizeAfter: time.Millisecond,
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		e.ReadLock(1)
		close(entered)
		<-release
		e.ReadUnlock(1)
		e.Neutralized(1) // consume the mark
	}()
	<-entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Synchronize()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Synchronize hung: lost neutralize signals were never retried")
	}
	inj := fault.Current()
	if inj.Fired(fault.NeutralizeLost) == 0 {
		t.Fatal("fault point never fired — test exercised nothing")
	}
	if e.Neutralizations() == 0 {
		t.Fatal("neutralization never went through after the fault cleared")
	}
	close(release)
	<-readerDone
}
