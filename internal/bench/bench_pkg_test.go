package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// smallConfig keeps package tests fast; the full-scale runs live in the
// repository-root bench_test.go and cmd/prudence-bench.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.CPUs = 4
	cfg.ArenaPages = 4096
	return cfg
}

func TestNewStackKinds(t *testing.T) {
	for _, kind := range []Kind{KindSLUB, KindPrudence} {
		s := NewStack(kind, smallConfig())
		if s.Alloc.Name() != string(kind) {
			t.Errorf("stack %s has allocator %s", kind, s.Alloc.Name())
		}
		s.Close()
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic")
		}
	}()
	NewStack(Kind("bogus"), smallConfig())
}

func TestRunFig6ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	if RaceEnabled {
		t.Skip("timing-sensitive comparison; race detector changes the rate balance")
	}
	cfg := smallConfig()
	// Individual sizes (and under host load, even aggregates) are noisy
	// on small machines; this guards against persistent regressions, so
	// a failing sweep gets one retry before it counts.
	var lastMsg string
	for attempt := 0; attempt < 2; attempt++ {
		res, err := RunSweep(cfg, Fig6(), 8000)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 2*len(Fig6Sizes) {
			t.Fatalf("%d cells, want a slub and a prudence cell for each of %d sizes", len(res.Cells), len(Fig6Sizes))
		}
		if !strings.Contains(res.Table(), "Figure 6") {
			t.Fatal("table missing title")
		}
		rates := map[Kind]float64{}
		bigRates := map[Kind]float64{}
		for _, c := range res.Cells {
			if c.OpsPerSec <= 0 {
				t.Fatalf("zero rate in cell %+v", c)
			}
			rates[c.Kind] += c.OpsPerSec
			if c.Size >= 1024 {
				bigRates[c.Kind] += c.OpsPerSec
			}
		}
		slubAll, pruAll := rates[KindSLUB], rates[KindPrudence]
		slubBig, pruBig := bigRates[KindSLUB], bigRates[KindPrudence]
		switch {
		case pruAll <= slubAll:
			lastMsg = fmt.Sprintf("Prudence behind overall (%.0f vs %.0f):\n%s", pruAll, slubAll, res.Table())
		case pruBig < 0.9*slubBig:
			lastMsg = fmt.Sprintf("Prudence regressed on large objects (%.0f vs %.0f):\n%s", pruBig, slubBig, res.Table())
		default:
			return // shape holds
		}
	}
	t.Error(lastMsg)
}

func TestRunFig3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	if RaceEnabled {
		t.Skip("timing-sensitive comparison; race detector changes the rate balance")
	}
	cfg := smallConfig()
	cfg.ArenaPages = 2048 // 8 MiB
	f3 := DefaultFig3Config()
	f3.UpdatesPerCPU = 40000
	res, err := RunFig3(cfg, f3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SLUB.Result.OOM {
		t.Errorf("SLUB did not OOM:\n%s", res.Table())
	}
	if res.Prudence.Result.OOM {
		t.Errorf("Prudence OOMed:\n%s", res.Table())
	}
	if res.Prudence.Series.Len() == 0 || res.SLUB.Series.Len() == 0 {
		t.Error("missing used-memory series")
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "sample,slub_bytes,prudence_bytes\n") {
		t.Error("CSV header wrong")
	}
}

func TestRunCostTableOrdering(t *testing.T) {
	res, err := RunCostTable(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Hit < res.Refill && res.Refill < res.Grow) {
		t.Errorf("cost ordering violated: hit=%v refill=%v grow=%v", res.Hit, res.Refill, res.Grow)
	}
	if res.RefillFactor() < 1.5 {
		t.Errorf("refill only %.1fx a hit (paper: 4x)", res.RefillFactor())
	}
	if res.GrowFactor() < 3 {
		t.Errorf("grow only %.1fx a hit (paper: 14x)", res.GrowFactor())
	}
	if !strings.Contains(res.Table(), "slab cache grow") {
		t.Error("table incomplete")
	}
}

func TestRunDoSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	if RaceEnabled {
		t.Skip("timing-sensitive comparison; race detector changes the rate balance")
	}
	// Sizing: the baseline's callback backlog grows without bound, so
	// it exhausts any arena; Prudence's steady-state backlog is about
	// one grace period's worth of deferred objects (~0.75 MiB at this
	// rate), which must fit.
	cfg := smallConfig()
	cfg.ArenaPages = 512 // 2 MiB
	cfg.RCU.Blimit = 4
	cfg.RCU.ThrottleDelay = 2 * time.Millisecond
	res, err := RunDoS(cfg, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SLUB.OOM {
		t.Errorf("SLUB survived the DoS flood:\n%s", res.Table())
	}
	if res.Prudence.OOM {
		t.Errorf("Prudence died under the DoS flood:\n%s", res.Table())
	}
}

func TestRunAppsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	cfg := smallConfig()
	res, err := RunApps(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Comparisons) != 4 {
		t.Fatalf("%d comparisons, want 4", len(res.Comparisons))
	}
	for _, tbl := range []string{
		res.Fig7Table(), res.Fig8Table(), res.Fig9Table(),
		res.Fig10Table(), res.Fig11Table(), res.Fig12Table(), res.Fig13Table(),
	} {
		if !strings.Contains(tbl, "postmark") {
			t.Errorf("table missing postmark rows:\n%s", tbl)
		}
	}
}

func TestRunAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	res, err := RunSweep(smallConfig(), Ablation(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 7 {
		t.Fatalf("%d ablation cells, want 7", len(res.Cells))
	}
	if res.Cells[0].Variant != "full" || res.Cells[0].Speedup != 1 {
		t.Fatalf("first cell should be the full design: %+v", res.Cells[0])
	}
}

func TestRunGPSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	cfg := smallConfig()
	res, err := RunSweep(cfg, GPSweep(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*len(GPSweepIntervals) {
		t.Fatalf("%d cells", len(res.Cells))
	}
	// Memory footprints grow with the grace-period interval for both
	// allocators (more in-flight deferred objects per GP).
	var prudence []Cell
	for _, c := range res.Cells {
		if c.Kind == KindPrudence {
			prudence = append(prudence, c)
		}
	}
	first, last := prudence[0], prudence[len(prudence)-1]
	if last.PeakPages < first.PeakPages {
		t.Errorf("Prudence peak shrank with longer GPs:\n%s", res.Table())
	}
	if !strings.Contains(res.Table(), "Grace-period") {
		t.Error("table title missing")
	}
	for _, c := range res.Cells {
		if c.OpsPerSec <= 0 {
			t.Fatalf("zero rate: %+v", c)
		}
	}
}

func TestRunAppsMedianAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	cfg := smallConfig()
	res, err := RunAppsMedian(cfg, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Comparisons) != 4 {
		t.Fatalf("%d comparisons", len(res.Comparisons))
	}
	for _, cmp := range res.Comparisons {
		if cmp.SLUB.TxnPerSec() <= 0 || cmp.Prudence.TxnPerSec() <= 0 {
			t.Fatalf("%s: non-positive median rate", cmp.Profile.Name)
		}
	}
	// repeats < 1 clamps to one run.
	if _, err := RunAppsMedian(cfg, 100, 0); err != nil {
		t.Fatal(err)
	}
}
