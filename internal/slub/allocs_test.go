package slub_test

import (
	"testing"
	"time"

	"prudence/internal/memarena"
	"prudence/internal/pagealloc"
	"prudence/internal/slabcore"
	"prudence/internal/slub"
	gsync "prudence/internal/sync"
	"prudence/internal/vcpu"

	// Register every scheme so the regression pins all four retire
	// paths, not just the one the other tests happen to link.
	_ "prudence/internal/ebr"
	_ "prudence/internal/hp"
)

// TestFreeDeferredZeroAllocs pins the BENCH_PR8 fix: the steady-state
// deferred-free path must not allocate. Before the non-closure
// RetireObject variant, every FreeDeferred heap-allocated a closure
// capturing (cache, ref) — the reclamation scheme generating the very
// garbage it exists to manage, visible as 4× the GC count on the SLUB
// endurance runs. The assertion is exact: testing.AllocsPerRun floors
// at integer granularity, so amortized background work (slice growth,
// batch copies, drain bursts) is allowed, but a per-call allocation on
// the enqueue path fails immediately.
func TestFreeDeferredZeroAllocs(t *testing.T) {
	for _, scheme := range gsync.Backends() {
		t.Run(scheme, func(t *testing.T) {
			const (
				cpus = 2
				runs = 2000
			)
			arena, err := memarena.NewBackend("heap", 4096)
			if err != nil {
				t.Fatal(err)
			}
			defer arena.Close()
			pages := pagealloc.New(arena)
			m := vcpu.NewMachine(cpus)
			defer m.Stop()
			// Long poll/GP intervals keep the backends' own timer churn
			// (time.After allocates) negligible inside the measurement
			// window; the limbo backlog that builds up instead is
			// covered by the pre-grown slab cache below.
			b, err := gsync.New(scheme, m, gsync.Options{
				GPInterval:   2 * time.Millisecond,
				PollInterval: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()
			a := slub.New(pages, b, cpus)
			c := a.NewCache(slabcore.CacheConfig{
				Name:          "allocs",
				ObjectSize:    64,
				SlabOrder:     0,
				CacheSize:     512,
				FreeSlabLimit: 1 << 20, // never shrink: a shrink-regrow cycle allocates slab metadata
			})

			// Pre-grow the slab cache so Malloc never takes the grow
			// path while we measure, even with every measured free
			// sitting unreclaimed in limbo.
			refs := make([]slabcore.Ref, 0, 3*runs)
			for i := 0; i < cap(refs); i++ {
				r, err := c.Malloc(0)
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, r)
			}
			for _, r := range refs {
				c.Free(0, r)
			}
			// Warm the deferred path once at full depth so the limbo
			// bags' backing arrays reach steady-state capacity.
			for i := 0; i < runs; i++ {
				r, err := c.Malloc(0)
				if err != nil {
					t.Fatal(err)
				}
				c.FreeDeferred(0, r)
			}
			b.Synchronize()
			b.Barrier()

			avg := testing.AllocsPerRun(runs, func() {
				r, err := c.Malloc(0)
				if err != nil {
					t.Fatal(err)
				}
				c.FreeDeferred(0, r)
			})
			if avg != 0 {
				t.Fatalf("Malloc+FreeDeferred allocates %v allocs/op on %s, want 0", avg, scheme)
			}
		})
	}
}
