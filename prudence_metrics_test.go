package prudence_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"prudence"
)

// sampleLine matches one Prometheus exposition sample:
// name{label="v",...} value
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// parseExposition validates the dump line by line and returns samples
// keyed "name{labels}" plus the set of distinct family names.
func parseExposition(t *testing.T, text string) (map[string]float64, map[string]bool) {
	t.Helper()
	samples := make(map[string]float64)
	families := make(map[string]bool)
	typed := make(map[string]bool) // families with a seen # TYPE line
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad metric type in %q", line)
			}
			typed[parts[2]] = true
			families[parts[2]] = true
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q appears before its # TYPE line", line)
		}
		v, err := strconv.ParseFloat(m[len(m)-1], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[name+m[2]] = v
	}
	return samples, families
}

// retireQueueFamilies are the shared retire queue's series, exported by
// every backend built on it (the epoch engine under either name).
var retireQueueFamilies = []string{
	"prudence_sync_retire_backlog",
	"prudence_sync_retire_backlog_peak",
	"prudence_sync_retire_batch_size",
	"prudence_sync_retire_expedited_drains_total",
}

// System.WriteMetrics reflects a Malloc/FreeDeferred/Drain cycle on
// both allocators and every reclamation scheme, emits valid exposition
// text with at least 12 distinct families spanning the allocator, the
// reclamation engine and the page allocator, and the always-on trace
// ring records the cycle's slow-path events. Each scheme also exports
// the series that tools scrape by exact name (perfbench, chaostest), so
// a rename fails here instead of silently reading 0 there.
func TestSystemMetricsReflectWorkload(t *testing.T) {
	cases := []struct {
		name string
		cfg  prudence.Config
		// families are the scheme's own series that must be present.
		families []string
	}{
		{"prudence-rcu", prudence.Config{CPUs: 2, MemoryPages: 1024},
			[]string{"prudence_rcu_callback_backlog"}},
		{"prudence-ebr", prudence.Config{CPUs: 2, MemoryPages: 1024, Reclamation: prudence.EBR},
			append([]string{"prudence_ebr_epoch"}, retireQueueFamilies...)},
		{"prudence-nebr", prudence.Config{CPUs: 2, MemoryPages: 1024, Reclamation: prudence.NEBR},
			append([]string{
				"prudence_nebr_restarts_total",
				"prudence_nebr_retire_backlog",
				"prudence_nebr_neutralizations_total",
			}, retireQueueFamilies...)},
		{"prudence-hp", prudence.Config{CPUs: 2, MemoryPages: 1024, Reclamation: prudence.HP},
			[]string{"prudence_hp_scans_total"}},
		{"slub-rcu", prudence.Config{CPUs: 2, MemoryPages: 1024, Allocator: prudence.SLUB},
			[]string{"prudence_rcu_callback_backlog"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystem(t, tc.cfg)
			c := sys.NewCache("workload", 128)
			const ops = 50
			for i := 0; i < ops; i++ {
				o, err := c.Malloc(0)
				if err != nil {
					t.Fatal(err)
				}
				c.FreeDeferred(0, o)
				sys.QuiescentState(0)
			}
			sys.Synchronize()
			c.Drain()

			var b strings.Builder
			if err := sys.WriteMetrics(&b); err != nil {
				t.Fatal(err)
			}
			samples, families := parseExposition(t, b.String())
			if len(families) < 12 {
				t.Fatalf("only %d distinct metric families: %v", len(families), families)
			}
			// Coverage must span the three layers.
			for _, want := range []string{
				"prudence_cache_allocs_total",  // allocator
				"prudence_gp_completed_total",  // reclamation engine
				"prudence_gp_duration_seconds", // reclamation engine latency
				"prudence_pages_free",          // page allocator
				"prudence_page_allocs_total",   // page allocator
				"prudence_vcpu_idle_ratio",     // vCPU machine
				"prudence_allocator_info",      // allocator identity
			} {
				if !families[want] {
					t.Errorf("family %q missing from exposition", want)
				}
			}
			key := `prudence_cache_allocs_total{cache="workload"}`
			if got := samples[key]; got < ops {
				t.Errorf("%s = %v, want >= %d", key, got, ops)
			}
			key = `prudence_cache_deferred_frees_total{cache="workload"}`
			if got := samples[key]; got != ops {
				t.Errorf("%s = %v, want %d", key, got, ops)
			}
			if got := samples["prudence_gp_completed_total"]; got < 1 {
				t.Errorf("prudence_gp_completed_total = %v, want >= 1", got)
			}
			// Every backend exports the expedited-advance counter, and the
			// cycle's blocking Synchronize/Drain raises expedited demand.
			if !families["prudence_sync_expedited_advances_total"] {
				t.Error("family prudence_sync_expedited_advances_total missing from exposition")
			}
			if got := samples["prudence_sync_expedited_advances_total"]; got < 1 {
				t.Errorf("prudence_sync_expedited_advances_total = %v, want >= 1", got)
			}
			for _, want := range tc.families {
				if !families[want] {
					t.Errorf("family %q missing from exposition", want)
				}
			}
			info := fmt.Sprintf(`prudence_allocator_info{allocator=%q}`, sys.AllocatorName())
			if got := samples[info]; got != 1 {
				t.Errorf("%s = %v, want 1", info, got)
			}
			// The human dump covers the same registry.
			if s := sys.Metrics(); !strings.Contains(s, "prudence_cache_allocs_total") {
				t.Error("Metrics() human dump missing cache counters")
			}
			// The always-on trace ring saw the cycle's slow-path events.
			ring := sys.Trace()
			if ring == nil {
				t.Fatal("Trace() = nil with default config")
			}
			if ring.Len() == 0 {
				t.Error("trace ring recorded no events")
			}
			counts := ring.Counts()
			// The first Malloc always grows the cache from zero slabs, so
			// a grow event is deterministic on every allocator; refills
			// follow each grow.
			if counts["grow"] == 0 {
				t.Errorf("trace ring saw no grow events: %v", counts)
			}
			if counts["refill"] == 0 {
				t.Errorf("trace ring saw no refill events: %v", counts)
			}
		})
	}
}

// A negative TraceRingSize disables tracing; a dedicated ring attached
// with SetTrace captures a cache's events.
func TestTraceRingConfig(t *testing.T) {
	sys := newSystem(t, prudence.Config{CPUs: 1, MemoryPages: 512, TraceRingSize: -1})
	if sys.Trace() != nil {
		t.Fatal("Trace() non-nil with tracing disabled")
	}
	c := sys.NewCache("quiet", 64)
	ring := prudence.NewTraceRing(128)
	if ring.Cap() != 128 {
		t.Fatalf("Cap = %d", ring.Cap())
	}
	c.SetTrace(ring)
	o, err := c.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	c.FreeDeferred(0, o)
	sys.Synchronize()
	c.Drain()
	if ring.Len() == 0 {
		t.Fatal("dedicated ring recorded no events")
	}
	if ring.Dump(10) == "" {
		t.Fatal("Dump returned nothing")
	}
}
