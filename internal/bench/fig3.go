package bench

import (
	"fmt"
	"time"

	"prudence/internal/slabcore"
	"prudence/internal/stats"
	"prudence/internal/workload"
)

// Fig3Config parameterizes the endurance experiment.
type Fig3Config struct {
	// ObjectSize is 512 bytes in the paper.
	ObjectSize int
	// ListLen is each CPU's private list length.
	ListLen int
	// UpdatesPerCPU bounds the run.
	UpdatesPerCPU int
	// SampleEvery is the used-memory sampling period (paper: 10 ms).
	SampleEvery time.Duration
	// PacePerUpdate bounds the per-CPU update rate so that the paper's
	// equilibrium is visible: demand times grace-period latency must
	// fit the arena for Prudence, while still exceeding the baseline's
	// callback-processing rate.
	PacePerUpdate time.Duration
	// MetricsEvery, when positive and Config.MetricsTo is set, dumps
	// the stack's metrics registry at this period during the run —
	// the backlog/latency series behind Figure 3, live.
	MetricsEvery time.Duration
}

// DefaultFig3Config scales the paper's 196-second, 252 GB run down to
// seconds and megabytes while preserving the dynamics: the deferred-free
// rate exceeds the baseline's maximum callback-processing rate, so SLUB's
// backlog grows without bound while Prudence recycles after each grace
// period.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		ObjectSize:    512,
		ListLen:       64,
		UpdatesPerCPU: 60000,
		SampleEvery:   time.Millisecond,
		// Flat out: the paper's workload "continuously performs linked
		// list update operations on all the CPUs". (Pacing can show a
		// below-capacity Prudence plateau, but sleep granularity makes
		// paced rates unreliable on small hosts; pass -pace to
		// cmd/prudence-endurance to experiment.)
		PacePerUpdate: 0,
	}
}

// Fig3Side is one allocator's trace.
type Fig3Side struct {
	Series     stats.Series
	Result     workload.EnduranceResult
	GPs        uint64
	CBBacklog  int64 // max RCU callback backlog (SLUB only)
	PeakBytes  int64
	FinalBytes int64
}

// Fig3Result is the two-line plot of Figure 3.
type Fig3Result struct {
	SLUB     *Fig3Side
	Prudence *Fig3Side
	Config   Fig3Config
}

// RunFig3 reproduces Figure 3 / §3.5 / §5.5: per-CPU linked-list update
// storms with 512 B objects. The baseline's RCU callback processing is
// rate-limited (even when expedited under memory pressure), as the
// kernel's is, so its used memory ramps to OOM; Prudence reaches
// equilibrium.
func RunFig3(cfg Config, f3 Fig3Config) (Fig3Result, error) {
	res := Fig3Result{Config: f3}
	for _, kind := range []Kind{KindSLUB, KindPrudence} {
		c := cfg
		// Kernel-style behaviour under pressure: expedite at 75% used.
		if c.PressureWatermark == 0 {
			c.PressureWatermark = c.ArenaPages * 3 / 4
		}
		// The endurance point requires the baseline's processing rate to
		// be bounded below the defer rate even when expedited ("Despite
		// this, RCU fails to keep up", §3.5).
		c = throttled(c, 2)
		s := NewStack(kind, c)
		cache := s.Alloc.NewCache(slabcore.DefaultConfig("list-512", f3.ObjectSize, c.CPUs))

		side := &Fig3Side{}
		stopSampler := make(chan struct{})
		samplerDone := make(chan struct{})
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(f3.SampleEvery)
			defer tick.Stop()
			var metricsTick <-chan time.Time
			if f3.MetricsEvery > 0 && c.MetricsTo != nil {
				mt := time.NewTicker(f3.MetricsEvery)
				defer mt.Stop()
				metricsTick = mt.C
			}
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					side.Series.Add(float64(s.Arena.UsedBytes()))
				case <-metricsTick:
					fmt.Fprintf(c.MetricsTo, "# stack %s periodic metrics\n", kind)
					s.WriteMetrics(c.MetricsTo)
				}
			}
		}()

		side.Result = workload.RunEndurance(s.Env(), cache, workload.EnduranceConfig{
			ListLen:       f3.ListLen,
			Updates:       f3.UpdatesPerCPU,
			PacePerUpdate: f3.PacePerUpdate,
		})
		close(stopSampler)
		<-samplerDone
		side.GPs = s.Sync.GPsCompleted()
		if s.RCU != nil { // engine-internal: callback backlog is rcu-only
			side.CBBacklog = s.RCU.Stats().MaxBacklog
		}
		side.PeakBytes = int64(s.Arena.PeakPages()) * 4096
		side.FinalBytes = s.Arena.UsedBytes()
		switch kind {
		case KindSLUB:
			res.SLUB = side
		case KindPrudence:
			res.Prudence = side
		}
		s.Close()
	}
	return res, nil
}

// Table summarizes the run; the full series is available for plotting
// via CSV (cmd/prudence-endurance).
func (r Fig3Result) Table() string {
	t := stats.NewTable("allocator", "OOM", "OOM after", "updates done", "peak MiB", "final MiB", "max cb backlog", "GPs")
	row := func(name string, s *Fig3Side) {
		oomAfter := "-"
		if s.Result.OOM {
			oomAfter = s.Result.OOMAfter.Truncate(time.Millisecond).String()
		}
		t.AddRow(name, s.Result.OOM, oomAfter, s.Result.Updates,
			fmt.Sprintf("%.1f", float64(s.PeakBytes)/(1<<20)),
			fmt.Sprintf("%.1f", float64(s.FinalBytes)/(1<<20)),
			s.CBBacklog, s.GPs)
	}
	row("slub", r.SLUB)
	row("prudence", r.Prudence)
	return "Figure 3: endurance under per-CPU list-update storm (512 B objects)\n" + t.String()
}

// Records flattens the comparison for -json.
func (r Fig3Result) Records() []Record {
	var out []Record
	side := func(kind Kind, s *Fig3Side) {
		q := "{alloc=" + string(kind) + "}"
		out = append(out,
			Record{Exp: "fig3", Metric: "oom" + q, Value: b2f(s.Result.OOM), Unit: "bool"},
			Record{Exp: "fig3", Metric: "peak_bytes" + q, Value: float64(s.PeakBytes), Unit: "bytes"},
			Record{Exp: "fig3", Metric: "gps_completed" + q, Value: float64(s.GPs), Unit: "count"},
			Record{Exp: "fig3", Metric: "max_cb_backlog" + q, Value: float64(s.CBBacklog), Unit: "count"},
		)
	}
	side(KindSLUB, r.SLUB)
	side(KindPrudence, r.Prudence)
	return out
}

// CSV renders both used-memory series as "ms,slub_bytes,prudence_bytes"
// rows (series lengths may differ; missing cells are blank).
func (r Fig3Result) CSV() string {
	a := r.SLUB.Series.Points()
	b := r.Prudence.Series.Points()
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := "sample,slub_bytes,prudence_bytes\n"
	for i := 0; i < n; i++ {
		va, vb := "", ""
		if i < len(a) {
			va = fmt.Sprintf("%.0f", a[i].V)
		}
		if i < len(b) {
			vb = fmt.Sprintf("%.0f", b[i].V)
		}
		out += fmt.Sprintf("%d,%s,%s\n", i, va, vb)
	}
	return out
}
