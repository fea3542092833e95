package bench

import (
	"time"

	"prudence/internal/slabcore"
	"prudence/internal/stats"
	"prudence/internal/workload"
)

// DoSResult compares both allocators under the §3.4 open/close flood.
type DoSResult struct {
	SLUB     workload.DoSResult
	Prudence workload.DoSResult
}

// throttled scales the kernel's blimit-style callback throttle so the
// baseline's processing rate stays below the defer rate, with expedited
// batches capped at expeditedFactor × Blimit. It models deployed
// throttling: batch limits stay in force even when the backlog is huge,
// as the paper's kernel (which still failed to keep up despite
// expediting) effectively behaves at sustained defer rates.
func throttled(c Config, expeditedFactor int) Config {
	c.RCU.ThrottleDelay = 200 * time.Microsecond
	if c.RCU.ExpeditedDelay == 0 {
		c.RCU.ExpeditedDelay = c.RCU.ThrottleDelay
	}
	if c.RCU.ExpeditedBlimit == 0 || c.RCU.ExpeditedBlimit > expeditedFactor*c.RCU.Blimit {
		c.RCU.ExpeditedBlimit = expeditedFactor * c.RCU.Blimit
	}
	c.RCU.Qhimark = -1
	return c
}

// RunDoS reproduces §3.4: a malicious open/close loop generating a high
// rate of deferred frees. The baseline's extended object lifetimes let
// the backlog exhaust memory; Prudence recycles deferred objects after
// each grace period and survives.
func RunDoS(cfg Config, duration time.Duration) (DoSResult, error) {
	run := func(kind Kind) workload.DoSResult {
		s := NewStack(kind, throttled(cfg, 3))
		defer s.Close()
		cache := s.Alloc.NewCache(slabcore.DefaultConfig("filp", 256, cfg.CPUs))
		return workload.RunDoS(s.Env(), cache, duration)
	}
	return DoSResult{SLUB: run(KindSLUB), Prudence: run(KindPrudence)}, nil
}

// Table renders the comparison.
func (r DoSResult) Table() string {
	t := stats.NewTable("allocator", "survived", "cycles", "OOM after")
	row := func(name string, d workload.DoSResult) {
		oom := "-"
		if d.OOM {
			oom = d.OOMAfter.Truncate(time.Millisecond).String()
		}
		t.AddRow(name, !d.OOM, d.Cycles, oom)
	}
	row("slub", r.SLUB)
	row("prudence", r.Prudence)
	return "§3.4 denial-of-service: open/close flood\n" + t.String()
}

// Records flattens the comparison for -json; oom_after_ms appears only
// for an allocator the flood killed.
func (r DoSResult) Records() []Record {
	var out []Record
	side := func(kind Kind, d workload.DoSResult) {
		q := "{alloc=" + string(kind) + "}"
		out = append(out,
			Record{Exp: "dos", Metric: "survived" + q, Value: b2f(!d.OOM), Unit: "bool"},
			Record{Exp: "dos", Metric: "cycles" + q, Value: float64(d.Cycles), Unit: "count"},
		)
		if d.OOM {
			out = append(out, Record{Exp: "dos", Metric: "oom_after_ms" + q, Value: float64(d.OOMAfter.Milliseconds()), Unit: "ms"})
		}
	}
	side(KindSLUB, r.SLUB)
	side(KindPrudence, r.Prudence)
	return out
}
