package main

import (
	"strings"
	"testing"

	"prudence/internal/bench"
)

func testOptions() options {
	o := options{cfg: bench.DefaultConfig(), pairs: 200, size: 512, txns: 100, repeats: 1, dosMs: 200}
	o.cfg.CPUs = 2
	o.cfg.ArenaPages = 2048
	return o
}

func TestExperimentRegistry(t *testing.T) {
	exps, err := experiments(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 12 {
		t.Errorf("%d experiments, want 12", len(exps))
	}
	for _, e := range exps {
		got, err := selectExperiments(exps, e.name)
		if err != nil || len(got) != 1 || got[0].name != e.name {
			t.Errorf("-exp %s resolved to %v, %v", e.name, got, err)
		}
	}
	if all, err := selectExperiments(exps, "all"); err != nil || len(all) != len(exps) {
		t.Errorf("-exp all resolved to %d experiments, %v", len(all), err)
	}
	_, err = selectExperiments(exps, "fig7")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range exps {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("unknown-experiment error %q does not list %s", err, e.name)
		}
	}

	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range exps {
		t.Run(e.name, func(t *testing.T) {
			var recs []bench.Record
			switch {
			case e.sweep != nil:
				res, err := bench.RunSweep(testOptions().cfg, *e.sweep, 200)
				if err != nil {
					t.Fatal(err)
				}
				if want := len(e.sweep.Points) * len(e.sweep.Kinds); len(res.Cells) != want {
					t.Fatalf("%d cells, want %d (points x allocators)", len(res.Cells), want)
				}
				recs = res.Records()
			case e.name == "trace" || e.name == "server":
				t.Skip("trace records nothing; server runs a 50k-session load")
			default:
				var err error
				if recs, err = e.run(); err != nil {
					t.Fatal(err)
				}
			}
			if len(recs) == 0 {
				t.Fatal("no records")
			}
			for _, r := range recs {
				if r.Exp != e.name || r.Metric == "" || r.Unit == "" {
					t.Fatalf("malformed record %+v", r)
				}
			}
		})
	}
}
