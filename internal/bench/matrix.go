package bench

import (
	"fmt"

	"prudence/internal/slabcore"
	"prudence/internal/stats"
	gsync "prudence/internal/sync"
	"prudence/internal/workload"

	// Register every backend so an empty scheme list sweeps them all.
	_ "prudence/internal/ebr"
	_ "prudence/internal/hp"
	_ "prudence/internal/rcu"
)

// MatrixCell is one (scheme, allocator, workload) measurement.
type MatrixCell struct {
	Scheme   string
	Kind     Kind
	Workload string
	// OpsPerSec is the workload's headline rate: malloc/free_deferred
	// pairs for micro, list updates for endurance.
	OpsPerSec float64
	// Stalls counts allocations that had to wait out reclamation
	// (micro only).
	Stalls int
	// GPs is how many grace periods the backend completed during the
	// run — the procrastination rate behind the throughput number.
	GPs uint64
	// OOM reports whether the endurance run hit out-of-memory (the
	// Figure 3 failure mode; micro runs never set it).
	OOM bool
	// PeakPages is the endurance run's high-water arena usage.
	PeakPages int
}

// MatrixResult is the scheme × allocator × workload sweep.
type MatrixResult struct {
	Size      int
	OpsPerCPU int
	CPUs      int
	Cells     []MatrixCell
}

// MatrixWorkloads are the workload axes RunMatrix understands.
var MatrixWorkloads = []string{"micro", "endurance"}

// RunMatrix extends the scaling sweep's methodology across reclamation
// schemes: every registered backend (or the given subset) drives both
// allocators through each workload on an identical machine. The matrix
// answers the question the single-scheme benchmarks cannot: how much of
// Prudence's advantage is the allocator integration itself, and how
// much is the particular grace-period detector behind it.
func RunMatrix(cfg Config, size, opsPerCPU int, schemes, workloads []string) (MatrixResult, error) {
	if len(schemes) == 0 {
		schemes = gsync.Backends()
	}
	if len(workloads) == 0 {
		workloads = MatrixWorkloads
	}
	res := MatrixResult{Size: size, OpsPerCPU: opsPerCPU, CPUs: cfg.CPUs}
	for _, scheme := range schemes {
		if !gsync.Registered(scheme) {
			return res, fmt.Errorf("bench: unknown reclamation scheme %q (registered: %v)", scheme, gsync.Backends())
		}
		for _, wl := range workloads {
			for _, kind := range []Kind{KindSLUB, KindPrudence} {
				cell, err := runMatrixCell(cfg, scheme, wl, kind, size, opsPerCPU)
				if err != nil {
					return res, err
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res, nil
}

func runMatrixCell(cfg Config, scheme, wl string, kind Kind, size, opsPerCPU int) (MatrixCell, error) {
	c := cfg
	c.Scheme = scheme
	if c.PressureWatermark == 0 {
		// As in RunScaling: let the stacks expedite under pressure so
		// cells measure throughput, not reclaim stalls.
		c.PressureWatermark = c.ArenaPages / 2
	}
	s := NewStack(kind, c)
	defer s.Close()
	cell := MatrixCell{Scheme: scheme, Kind: kind, Workload: wl}
	switch wl {
	case "micro":
		cache := s.Alloc.NewCache(slabcore.DefaultConfig(fmt.Sprintf("kmalloc-%d", size), size, c.CPUs))
		r := workload.RunMicro(s.Env(), cache, opsPerCPU)
		cell.OpsPerSec = r.PairsPerSec()
		cell.Stalls = r.Stalls
		cache.Drain()
	case "endurance":
		cache := s.Alloc.NewCache(slabcore.DefaultConfig("endurance-512", 512, c.CPUs))
		r := workload.RunEndurance(s.Env(), cache, workload.EnduranceConfig{
			ListLen: 32,
			Updates: opsPerCPU,
		})
		if r.Elapsed > 0 {
			cell.OpsPerSec = float64(r.Updates) / r.Elapsed.Seconds()
		}
		cell.OOM = r.OOM
		cell.PeakPages = r.PeakPages
		cache.Drain()
	default:
		return cell, fmt.Errorf("bench: unknown matrix workload %q (have %v)", wl, MatrixWorkloads)
	}
	cell.GPs = s.Sync.GPsCompleted()
	return cell, nil
}

// Table renders the matrix grouped by workload.
func (r MatrixResult) Table() string {
	out := fmt.Sprintf("Reclamation matrix: %d CPUs, %d B objects, %d ops/CPU (ops/s, higher is better)\n",
		r.CPUs, r.Size, r.OpsPerCPU)
	for _, wl := range MatrixWorkloads {
		t := stats.NewTable("scheme", "slub ops/s", "prudence ops/s", "ratio", "slub GPs", "prudence GPs", "notes")
		seen := false
		bykey := map[string]MatrixCell{}
		var order []string
		for _, c := range r.Cells {
			if c.Workload != wl {
				continue
			}
			seen = true
			if _, dup := bykey[c.Scheme]; !dup {
				order = append(order, c.Scheme)
			}
			bykey[c.Scheme+"/"+string(c.Kind)] = c
			bykey[c.Scheme] = c
		}
		if !seen {
			continue
		}
		for _, scheme := range order {
			sl := bykey[scheme+"/"+string(KindSLUB)]
			pr := bykey[scheme+"/"+string(KindPrudence)]
			ratio := 0.0
			if sl.OpsPerSec > 0 {
				ratio = pr.OpsPerSec / sl.OpsPerSec
			}
			notes := ""
			if sl.OOM {
				notes += "slub-oom "
			}
			if pr.OOM {
				notes += "prudence-oom"
			}
			t.AddRow(scheme, fmt.Sprintf("%.0f", sl.OpsPerSec), fmt.Sprintf("%.0f", pr.OpsPerSec),
				fmt.Sprintf("%.1fx", ratio), sl.GPs, pr.GPs, notes)
		}
		out += wl + ":\n" + t.String() + "\n"
	}
	return out
}

// Records flattens the matrix for the benchmark-trajectory JSON.
func (r MatrixResult) Records() []Record {
	var out []Record
	for _, c := range r.Cells {
		oom := 0.0
		if c.OOM {
			oom = 1
		}
		label := fmt.Sprintf("{scheme=%s,alloc=%s,workload=%s}", c.Scheme, c.Kind, c.Workload)
		out = append(out,
			Record{Exp: "matrix", Metric: "ops_per_sec" + label, Value: c.OpsPerSec, Unit: "ops/s"},
			Record{Exp: "matrix", Metric: "gps_completed" + label, Value: float64(c.GPs), Unit: "count"},
		)
		if c.Workload == "endurance" {
			out = append(out,
				Record{Exp: "matrix", Metric: "oom" + label, Value: oom, Unit: "bool"},
				Record{Exp: "matrix", Metric: "peak_pages" + label, Value: float64(c.PeakPages), Unit: "pages"},
			)
		}
	}
	return out
}
