package hp_test

import (
	"sync/atomic"
	"testing"
	"time"

	"prudence/internal/hp"
	gsync "prudence/internal/sync"
	"prudence/internal/sync/synctest"
	"prudence/internal/vcpu"
)

var _ gsync.Backend = (*hp.HP)(nil)

func newHP(t *testing.T, cpus int, opts hp.Options) *hp.HP {
	t.Helper()
	m := vcpu.NewMachine(cpus)
	t.Cleanup(m.Stop)
	h := hp.New(m, opts)
	t.Cleanup(h.Stop)
	return h
}

func TestConformance(t *testing.T) {
	synctest.Run(t, 4, func(t *testing.T) gsync.Backend {
		m := vcpu.NewMachine(4)
		t.Cleanup(m.Stop)
		return hp.New(m, hp.Options{AdvanceInterval: time.Millisecond})
	})
}

// A token published in a hazard slot blocks reclamation of exactly the
// entries retired with that token; Release unblocks them.
func TestTokenProtection(t *testing.T) {
	h := newHP(t, 2, hp.Options{AdvanceInterval: 200 * time.Microsecond})
	const token = 42
	h.Protect(1, 0, token)

	var protectedFreed, plainFreed atomic.Bool
	h.RetireToken(0, token, synctest.Func, func() { protectedFreed.Store(true) }, 0)
	h.RetireToken(0, 7, synctest.Func, func() { plainFreed.Store(true) }, 0)

	deadline := time.Now().Add(5 * time.Second)
	for !plainFreed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("unprotected retirement never reclaimed")
		}
		h.NeedGP()
		time.Sleep(time.Millisecond)
	}
	if protectedFreed.Load() {
		t.Fatal("retirement reclaimed while its token was published")
	}

	h.Release(1, 0)
	h.Barrier()
	if !protectedFreed.Load() {
		t.Fatal("retirement not reclaimed after Release + Barrier")
	}
}

func TestProtectZeroTokenPanics(t *testing.T) {
	h := newHP(t, 1, hp.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Protect(0) did not panic")
		}
	}()
	h.Protect(0, 0, 0)
}

// The classic hazard-pointer garbage bound: with every slot on every
// CPU protecting a distinct token, retiring a large batch of
// unprotected objects still drains to at most the protected count —
// the backlog is bounded by CPUs × slots + what a single in-flight scan
// has not yet covered, independent of retirement volume.
func TestGarbageBound(t *testing.T) {
	const cpus, slots = 4, 2
	h := newHP(t, cpus, hp.Options{
		Slots:           slots,
		AdvanceInterval: 100 * time.Microsecond,
		ScanThreshold:   32,
	})
	// Protect one distinct token per slot machine-wide.
	token := uint64(1)
	for cpu := 0; cpu < cpus; cpu++ {
		for s := 0; s < slots; s++ {
			h.Protect(cpu, s, token)
			token++
		}
	}
	// Retire the protected tokens plus a large unprotected volume.
	var freed atomic.Int64
	for tk := uint64(1); tk < token; tk++ {
		h.RetireToken(0, tk, synctest.Func, func() { freed.Add(1) }, 0)
	}
	const volume = 10_000
	for i := 0; i < volume; i++ {
		h.RetireToken(i%cpus, 0, synctest.Func, func() { freed.Add(1) }, 0)
	}
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < volume {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d unprotected retirements reclaimed", freed.Load(), volume)
		}
		h.NeedGP()
		time.Sleep(time.Millisecond)
	}
	if got, want := h.RetireBacklog(), int64(cpus*slots); got != want {
		t.Fatalf("backlog = %d, want exactly the %d protected entries", got, want)
	}
	// Releasing everything lets the backlog drain to zero.
	for cpu := 0; cpu < cpus; cpu++ {
		for s := 0; s < slots; s++ {
			h.Release(cpu, s)
		}
	}
	h.Barrier()
	if got := h.RetireBacklog(); got != 0 {
		t.Fatalf("backlog = %d after releasing all slots", got)
	}
}

// Unlike ebr's advancer, which waits for stragglers before every
// advance, the era moves freely past a stalled reader: safety lives in
// the per-entry coverage checks, so GPsCompleted keeps growing while
// the pinned cookie simply stays un-elapsed until the reader exits.
func TestEraAdvancesPastStalledReader(t *testing.T) {
	h := newHP(t, 2, hp.Options{AdvanceInterval: 100 * time.Microsecond})
	release := make(chan struct{})
	readerDone := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		defer close(readerDone)
		h.ReadLock(1)
		close(entered)
		<-release
		h.ReadUnlock(1)
	}()
	<-entered

	c := h.Snapshot()
	start := h.GPsCompleted()
	deadline := time.Now().Add(5 * time.Second)
	for h.GPsCompleted() < start+3 {
		if time.Now().After(deadline) {
			t.Fatalf("era stuck at %d grace periods behind a stalled reader", h.GPsCompleted())
		}
		h.NeedGP()
		time.Sleep(time.Millisecond)
	}
	if h.Elapsed(c) {
		t.Fatal("cookie elapsed while the reader from before it was still pinned")
	}
	close(release)
	<-readerDone
	if !h.WaitElapsedOnTimeout(0, c, time.Minute) {
		t.Fatal("cookie did not elapse after the reader exited")
	}
}
