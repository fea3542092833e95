package bench

import (
	"fmt"
	"time"

	"prudence/internal/slabcore"
	"prudence/internal/stats"
)

// CostResult reports the relative cost of the three allocation paths
// (§3.3: "object allocation cost, compared to cache hit, is 4x
// expensive if it involves object cache refill and 14x expensive if it
// involves slab cache grow").
type CostResult struct {
	Hit    time.Duration // allocation served from the object cache
	Refill time.Duration // allocation requiring an object cache refill
	Grow   time.Duration // allocation requiring a slab cache grow
}

// RefillFactor returns Refill/Hit.
func (c CostResult) RefillFactor() float64 { return ratio(c.Refill, c.Hit) }

// GrowFactor returns Grow/Hit.
func (c CostResult) GrowFactor() float64 { return ratio(c.Grow, c.Hit) }

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RunCostTable measures the three allocation paths on the baseline
// allocator with single-CPU access, isolating path cost from
// contention.
func RunCostTable(cfg Config) (CostResult, error) {
	cfg.CPUs = 1
	s := NewStack(KindSLUB, cfg)
	defer s.Close()
	ccfg := slabcore.DefaultConfig("cost", 256, 1)
	cache := s.Alloc.NewCache(ccfg)
	var res CostResult

	const rounds = 3000

	// Path 1 — cache hit: free then immediately allocate; the object
	// cache never empties.
	warm, err := cache.Malloc(0)
	if err != nil {
		return res, err
	}
	cache.Free(0, warm)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		r, err := cache.Malloc(0)
		if err != nil {
			return res, err
		}
		cache.Free(0, r)
	}
	res.Hit = time.Since(start) / (2 * rounds) // per malloc+free pair, halved

	// Path 2 — refill: drain the object cache fully each round so the
	// timed allocation must refill from the node partial list.
	batch := make([]slabcore.Ref, 0, ccfg.CacheSize+1)
	// Pre-populate node lists with enough partial slabs.
	var prime []slabcore.Ref
	for i := 0; i < ccfg.ObjectsPerSlab()*4; i++ {
		r, err := cache.Malloc(0)
		if err != nil {
			return res, err
		}
		prime = append(prime, r)
	}
	for _, r := range prime {
		cache.Free(0, r)
	}
	var refillTotal time.Duration
	refills := 0
	for i := 0; i < rounds/10; i++ {
		// Empty the per-CPU cache (these are hits).
		batch = batch[:0]
		for {
			before := cache.Counters().Refills.Load()
			t0 := time.Now()
			r, err := cache.Malloc(0)
			dt := time.Since(t0)
			if err != nil {
				return res, err
			}
			batch = append(batch, r)
			if cache.Counters().Refills.Load() > before {
				refillTotal += dt
				refills++
				break
			}
			if len(batch) > 4*ccfg.CacheSize {
				break
			}
		}
		for _, r := range batch {
			cache.Free(0, r)
		}
	}
	if refills > 0 {
		res.Refill = refillTotal / time.Duration(refills)
	}

	// Path 3 — grow: drain the whole cache so allocation must get fresh
	// pages from the buddy allocator.
	cache.Drain()
	var growTotal time.Duration
	grows := 0
	for i := 0; i < rounds/10; i++ {
		before := cache.Counters().Grows.Load()
		t0 := time.Now()
		r, err := cache.Malloc(0)
		dt := time.Since(t0)
		if err != nil {
			return res, err
		}
		if cache.Counters().Grows.Load() > before {
			growTotal += dt
			grows++
		}
		cache.Free(0, r)
		cache.Drain() // force the next allocation to grow again
	}
	if grows > 0 {
		res.Grow = growTotal / time.Duration(grows)
	}
	return res, nil
}

// Table renders the §3.3 cost comparison.
func (c CostResult) Table() string {
	t := stats.NewTable("path", "latency", "vs hit", "paper")
	t.AddRow("object cache hit", c.Hit.String(), "1.0x", "1x")
	t.AddRow("object cache refill", c.Refill.String(), fmt.Sprintf("%.1fx", c.RefillFactor()), "4x")
	t.AddRow("slab cache grow", c.Grow.String(), fmt.Sprintf("%.1fx", c.GrowFactor()), "14x")
	return "§3.3 allocation path costs\n" + t.String()
}

// Records flattens the table for -json.
func (c CostResult) Records() []Record {
	rec := func(path string, d time.Duration) Record {
		return Record{Exp: "cost", Metric: "alloc_path_ns{path=" + path + "}", Value: float64(d.Nanoseconds()), Unit: "ns"}
	}
	return []Record{rec("hit", c.Hit), rec("refill", c.Refill), rec("grow", c.Grow)}
}
