package bench

import (
	"slices"
	"strings"
	"testing"
)

func TestDefaultScalingCPUs(t *testing.T) {
	points := func(maxCPUs int) []int {
		sw, err := Scaling(512, maxCPUs)
		if err != nil {
			t.Fatal(err)
		}
		var cpus []int
		for _, p := range sw.Points {
			cpus = append(cpus, p.CPUs)
		}
		return cpus
	}
	if got, want := points(8), []int{1, 2, 4, 8}; !slices.Equal(got, want) {
		t.Fatalf("scaling points for 8 CPUs = %v, want %v", got, want)
	}
	// Non-power-of-two max appears as the final point.
	if got := points(6); got[len(got)-1] != 6 {
		t.Fatalf("scaling points for 6 CPUs = %v, want final point 6", got)
	}
}

func TestRunScalingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	sw, err := Scaling(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(smallConfig(), sw, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*2 {
		t.Fatalf("%d cells, want 2 points x 2 allocators", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.OpsPerSec <= 0 {
			t.Fatalf("non-positive throughput at %d CPUs: %+v", c.CPUs, c)
		}
	}
	if !strings.Contains(res.Table(), "Scaling") {
		t.Fatal("table missing title")
	}
	var recs []Record
	for _, r := range res.Records() {
		if strings.HasPrefix(r.Metric, "ops_per_sec{") {
			recs = append(recs, r)
		}
	}
	if len(recs) != 4 {
		t.Fatalf("%d throughput records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Exp != "scaling" || r.Value <= 0 || r.Unit != "ops/s" {
			t.Fatalf("malformed record %+v", r)
		}
	}
	if _, err := Scaling(512, 0); err == nil {
		t.Fatal("non-positive CPU count accepted")
	}
}
