package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"prudence/internal/stats"
	"prudence/internal/workload"
)

// AppComparison holds one profile's results under both allocators.
type AppComparison struct {
	Profile  workload.AppProfile
	SLUB     workload.AppResult
	Prudence workload.AppResult
}

// AppsResult holds every profile's comparison; Figures 7-13 are all
// views over it.
type AppsResult struct {
	Comparisons []AppComparison
	TxnsPerCPU  int
}

// RunApps runs every application profile under both allocators on
// identical machines. One run feeds Figures 7, 8, 9, 10, 11, 12 and 13.
func RunApps(cfg Config, txnsPerCPU int) (AppsResult, error) {
	res := AppsResult{TxnsPerCPU: txnsPerCPU}
	for _, p := range workload.Profiles() {
		cmp := AppComparison{Profile: p}
		for _, kind := range []Kind{KindSLUB, KindPrudence} {
			s := NewStack(kind, cfg)
			r, err := workload.RunApp(s.Env(), s.Alloc, p, txnsPerCPU)
			if err != nil {
				s.Close()
				return res, fmt.Errorf("%s/%s: %w", p.Name, kind, err)
			}
			switch kind {
			case KindSLUB:
				cmp.SLUB = r
			case KindPrudence:
				cmp.Prudence = r
			}
			for _, c := range s.Alloc.Caches() {
				c.Drain()
			}
			s.Close()
		}
		res.Comparisons = append(res.Comparisons, cmp)
	}
	return res, nil
}

// RunAppsMedian runs the application comparison `repeats` times and
// returns the run whose per-benchmark throughput ratios are the
// element-wise medians — the paper's own methodology of averaging three
// runs, adapted to medians for robustness on noisy hosts. The returned
// AppsResult carries the medianized throughputs; per-cache counters come
// from the final run (they are far less noisy than wall-clock rates).
func RunAppsMedian(cfg Config, txnsPerCPU, repeats int) (AppsResult, error) {
	if repeats < 1 {
		repeats = 1
	}
	var last AppsResult
	slubRates := map[string][]float64{}
	pruRates := map[string][]float64{}
	for i := 0; i < repeats; i++ {
		res, err := RunApps(cfg, txnsPerCPU)
		if err != nil {
			return res, err
		}
		for _, cmp := range res.Comparisons {
			slubRates[cmp.Profile.Name] = append(slubRates[cmp.Profile.Name], cmp.SLUB.TxnPerSec())
			pruRates[cmp.Profile.Name] = append(pruRates[cmp.Profile.Name], cmp.Prudence.TxnPerSec())
		}
		last = res
	}
	// Rewrite the last run's elapsed times so TxnPerSec reports medians.
	for i := range last.Comparisons {
		cmp := &last.Comparisons[i]
		if m := stats.Median(slubRates[cmp.Profile.Name]); m > 0 {
			cmp.SLUB.Elapsed = time.Duration(float64(cmp.SLUB.Transactions) / m * float64(time.Second))
		}
		if m := stats.Median(pruRates[cmp.Profile.Name]); m > 0 {
			cmp.Prudence.Elapsed = time.Duration(float64(cmp.Prudence.Transactions) / m * float64(time.Second))
		}
	}
	return last, nil
}

// Records flattens the Figure 13 throughputs for -json.
func (r AppsResult) Records() []Record {
	var out []Record
	for _, cmp := range r.Comparisons {
		metric := func(kind Kind) string {
			return fmt.Sprintf("txn_per_sec{profile=%s,alloc=%s}", cmp.Profile.Name, kind)
		}
		out = append(out,
			Record{Exp: "apps", Metric: metric(KindSLUB), Value: cmp.SLUB.TxnPerSec(), Unit: "txn/s"},
			Record{Exp: "apps", Metric: metric(KindPrudence), Value: cmp.Prudence.TxnPerSec(), Unit: "txn/s"},
		)
	}
	return out
}

// cacheNames returns the sorted cache names present in a comparison.
func (c AppComparison) cacheNames() []string {
	names := make([]string, 0, len(c.SLUB.PerCache))
	for n := range c.SLUB.PerCache {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// perCacheTable renders one Figure 7-11 style table using metric to
// extract the value from a cache report.
func (r AppsResult) perCacheTable(title, unit string, metric func(workload.CacheReport) float64, higherIsBetter bool) string {
	t := stats.NewTable("benchmark", "cache", "slub "+unit, "prudence "+unit, "change")
	for _, cmp := range r.Comparisons {
		for _, name := range cmp.cacheNames() {
			sv := metric(cmp.SLUB.PerCache[name])
			pv := metric(cmp.Prudence.PerCache[name])
			change := "n/a"
			if sv != 0 {
				delta := (pv - sv) / sv * 100
				change = fmt.Sprintf("%+.1f%%", delta)
			}
			t.AddRow(cmp.Profile.Name, name, fmt.Sprintf("%.2f", sv), fmt.Sprintf("%.2f", pv), change)
		}
	}
	direction := "lower is better"
	if higherIsBetter {
		direction = "higher is better"
	}
	return title + " (" + direction + ")\n" + t.String()
}

// Table renders Figures 7-13.
func (r AppsResult) Table() string {
	return strings.Join([]string{r.Fig7Table(), r.Fig8Table(), r.Fig9Table(),
		r.Fig10Table(), r.Fig11Table(), r.Fig12Table(), r.Fig13Table()}, "\n")
}

// Fig7Table reports the object cache hit rate per benchmark and cache.
func (r AppsResult) Fig7Table() string {
	return r.perCacheTable("Figure 7: % allocations served from object cache", "hit%",
		func(c workload.CacheReport) float64 { return c.Snapshot.CacheHitRate() * 100 }, true)
}

// Fig8Table reports object cache churns (refill/flush pairs).
func (r AppsResult) Fig8Table() string {
	return r.perCacheTable("Figure 8: object cache churns", "churns",
		func(c workload.CacheReport) float64 { return float64(c.Snapshot.ObjectCacheChurns()) }, false)
}

// Fig9Table reports slab churns (grow/shrink pairs).
func (r AppsResult) Fig9Table() string {
	return r.perCacheTable("Figure 9: slab churns", "churns",
		func(c workload.CacheReport) float64 { return float64(c.Snapshot.SlabChurns()) }, false)
}

// Fig10Table reports peak slab usage.
func (r AppsResult) Fig10Table() string {
	return r.perCacheTable("Figure 10: peak slab usage", "slabs",
		func(c workload.CacheReport) float64 { return float64(c.Snapshot.PeakSlabs) }, false)
}

// Fig11Table reports total fragmentation after each run.
func (r AppsResult) Fig11Table() string {
	return r.perCacheTable("Figure 11: total fragmentation (allocated/requested)", "f_t",
		func(c workload.CacheReport) float64 { return c.Fragmentation }, false)
}

// Fig12Table reports the deferred share of free operations.
func (r AppsResult) Fig12Table() string {
	t := stats.NewTable("benchmark", "deferred frees %", "paper %")
	paper := map[string]float64{"postmark": 24.4, "netperf": 14, "apache": 18, "postgresql": 4.4}
	for _, cmp := range r.Comparisons {
		var frees, defers float64
		for _, rep := range cmp.Prudence.PerCache {
			frees += float64(rep.Snapshot.Frees + rep.Snapshot.DeferredFrees)
			defers += float64(rep.Snapshot.DeferredFrees)
		}
		pct := 0.0
		if frees > 0 {
			pct = defers / frees * 100
		}
		t.AddRow(cmp.Profile.Name, fmt.Sprintf("%.1f", pct), fmt.Sprintf("%.1f", paper[cmp.Profile.Name]))
	}
	return "Figure 12: deferred frees out of total frees\n" + t.String()
}

// Fig13Table reports overall throughput improvement.
func (r AppsResult) Fig13Table() string {
	t := stats.NewTable("benchmark", "slub txn/s", "prudence txn/s", "improvement", "paper")
	paper := map[string]string{"postmark": "+18%", "netperf": "+4.2%", "apache": "+5.6%", "postgresql": "+4.6%"}
	for _, cmp := range r.Comparisons {
		sv, pv := cmp.SLUB.TxnPerSec(), cmp.Prudence.TxnPerSec()
		t.AddRow(cmp.Profile.Name, fmt.Sprintf("%.0f", sv), fmt.Sprintf("%.0f", pv),
			stats.Ratio(sv, pv), paper[cmp.Profile.Name])
	}
	return "Figure 13: overall throughput (higher is better)\n" + t.String()
}
