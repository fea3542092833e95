package core_test

import (
	"runtime"
	"testing"
	"time"

	"prudence/internal/alloctest"
	"prudence/internal/core"
	"prudence/internal/slabcore"
)

// TestDeferredPathsZeroAllocs pins the deferred-free and merge paths off
// the Go heap. Each measured FreeDeferred run overflows the latent ring
// at least once (a reader pinned on CPU 1 holds every grace period) and,
// with an object in the object cache, arms a pre-flush, so a per-spill
// allocation — a fresh spill batch, flush victims, a pre-flush closure —
// shows up as at least one alloc per run, which testing.AllocsPerRun's
// integer floor cannot hide. The Malloc run then serves allocations
// only from the object cache and the latent merge.
func TestDeferredPathsZeroAllocs(t *testing.T) {
	// A long quiescent-state poll keeps the grace-period driver's own
	// timer churn (time.After allocates) out of the measurement window
	// while the pinned reader holds it polling.
	scfg := alloctest.DefaultStackConfig()
	scfg.RCU.QSPollInterval = 20 * time.Millisecond
	s := alloctest.NewStack(t, scfg, build)
	cfg := alloctest.TestCacheConfig("allocs")
	c := s.Alloc.NewCache(cfg).(*core.Cache)
	capacity := core.LatentCapacity(c)

	malloc := func(n int) []slabcore.Ref {
		refs := make([]slabcore.Ref, n)
		for i := range refs {
			r, err := c.Malloc(0)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = r
		}
		return refs
	}

	t.Run("FreeDeferredSpill", func(t *testing.T) {
		s.RCU.ExitIdle(1)
		s.RCU.ReadLock(1)
		defer func() {
			s.RCU.ReadUnlock(1)
			s.RCU.QuiescentState(1)
			s.RCU.EnterIdle(1)
			c.Drain()
		}()
		const runs, warm = 8, 8
		// A run uses at most a spill batch (half the ring) plus two.
		refs := malloc(capacity + (runs+1+warm)*(capacity/2+2))
		cached := malloc(runs + 1 + warm)
		next := func() slabcore.Ref {
			r := refs[0]
			refs = refs[1:]
			return r
		}
		idle := func() {
			for s.Machine.CPU(0).IdleBusy() {
				runtime.Gosched()
			}
		}
		run := func() {
			// With an object cached, the free that fills the ring arms a
			// pre-flush; once it has run, frees refill the ring until one
			// flushes and spills.
			c.Free(0, cached[0])
			cached = cached[1:]
			c.FreeDeferred(0, next())
			idle()
			for f := c.Counters().Flushes.Load(); c.Counters().Flushes.Load() == f; {
				c.FreeDeferred(0, next())
			}
			for core.LatentLen(c, 0) < capacity-1 {
				c.FreeDeferred(0, next())
			}
			idle()
		}
		// Warm up unmeasured: fill the ring and grow the scratch.
		for core.LatentLen(c, 0) < capacity-1 {
			c.FreeDeferred(0, next())
		}
		for i := 0; i < warm; i++ {
			run()
		}
		avg := testing.AllocsPerRun(runs, run)
		if got := core.LatentLen(c, 0); got > capacity || int64(got) >= c.LatentTotal() {
			t.Fatalf("ring holds %d of %d deferred objects: the runs did not spill", got, c.LatentTotal())
		}
		if avg != 0 {
			t.Fatalf("FreeDeferred through the spill path allocates %v times per spill, want 0", avg)
		}
	})

	t.Run("MallocMerge", func(t *testing.T) {
		const runs = 200
		refs := malloc(runs + 1)
		for _, r := range refs {
			c.FreeDeferred(0, r)
		}
		s.RCU.Synchronize()
		before := c.Counters().Snapshot()
		i := 0
		avg := testing.AllocsPerRun(runs, func() {
			r, err := c.Malloc(0)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = r
			i++
		})
		d := c.Counters().Snapshot().Sub(before)
		if d.LatentHits == 0 || d.Refills != 0 {
			t.Fatalf("allocations were not served by the merge: %d latent hits, %d refills", d.LatentHits, d.Refills)
		}
		if avg != 0 {
			t.Fatalf("Malloc through the merge path allocates %v times per call, want 0", avg)
		}
		for _, r := range refs[:i] {
			c.Free(0, r)
		}
		c.Drain()
	})
}
