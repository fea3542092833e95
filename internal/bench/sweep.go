package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"prudence/internal/alloc"
	"prudence/internal/core"
	"prudence/internal/memarena"
	"prudence/internal/slabcore"
	"prudence/internal/stats"
	gsync "prudence/internal/sync"
	"prudence/internal/workload"

	// Register every backend so an empty scheme list sweeps them all.
	_ "prudence/internal/ebr"
	_ "prudence/internal/hp"
	_ "prudence/internal/rcu"
)

// Cell is one (point, allocator) run of the Figure 6 loop or the
// endurance list storm. A sweep's points are Cells with only labels
// set; runCell fills in the measurements and resolves every label the
// point left zero from the base Config, so a cell names exactly what
// ran.
type Cell struct {
	// Labels. Arena, Scheme, CPUs and GPInterval default to the base
	// Config; Variant is empty unless the point picks one of Variants.
	Arena      string
	Scheme     string
	Kind       Kind
	Workload   string // one of Workloads
	Size       int    // object size in bytes
	CPUs       int
	GPInterval time.Duration
	Variant    string

	// OpsPerSec is the workload's headline rate: malloc/free_deferred
	// pairs for micro, list updates for endurance.
	OpsPerSec float64
	// Stalls counts micro allocations that had to wait out reclamation.
	Stalls int
	// GPs is how many grace periods the backend completed during the
	// run — the procrastination rate behind the throughput number.
	GPs uint64
	// OOM reports whether an endurance run hit out-of-memory (the
	// Figure 3 failure mode; micro runs never set it).
	OOM       bool
	PeakPages int
	Counters  stats.AllocSnapshot
	// HeapInuse is runtime.MemStats.HeapInuse sampled after a forced
	// collection while the arena is still mapped: a heap arena's
	// backing array is live heap and shows up here, an mmap arena's
	// pages do not. NumGC and PauseNs are the collections and total
	// stop-the-world pause across the cell (stack build, workload and
	// the forced collection, identically for every backend).
	HeapInuse uint64
	NumGC     uint32
	PauseNs   uint64
	// Speedup is OpsPerSec relative to the sweep's baseline cell.
	Speedup float64
}

// Workloads are the loops a cell can run.
var Workloads = []string{"micro", "endurance"}

// Variant is one Prudence configuration of the ablation study.
type Variant struct {
	Name    string
	Options core.Options
}

// Variants are the design-choice toggles of DESIGN.md §4, "full" (the
// design as shipped) first.
var Variants = []Variant{
	{"full", core.Options{}},
	{"with-prediction", core.Options{EnablePrediction: true}},
	{"no-partial-refill", core.Options{DisablePartialRefill: true}},
	{"no-pre-flush", core.Options{DisablePreFlush: true}},
	{"no-pre-move", core.Options{DisablePreMove: true}},
	{"no-slab-selection", core.Options{DisableSlabSelection: true}},
	{"all-disabled", core.Options{
		DisablePartialRefill: true,
		DisablePreFlush:      true,
		DisablePreMove:       true,
		DisableSlabSelection: true,
	}},
}

// runCell builds the stack and cache the point asks for, runs its
// workload with opsPerCPU operations on every CPU, samples, drains and
// closes.
func runCell(cfg Config, c Cell, opsPerCPU int) (Cell, error) {
	if c.Scheme != "" {
		if !gsync.Registered(c.Scheme) {
			return c, fmt.Errorf("bench: unknown reclamation scheme %q (registered: %v)", c.Scheme, gsync.Backends())
		}
		cfg.Scheme = c.Scheme
	}
	if c.Arena != "" {
		if !memarena.BackendAvailable(c.Arena) {
			return c, fmt.Errorf("bench: unknown arena backend %q (available: %v)", c.Arena, memarena.Backends())
		}
		cfg.Arena = c.Arena
	}
	if c.CPUs > 0 {
		cfg.CPUs = c.CPUs
	}
	if c.GPInterval > 0 {
		cfg.RCU.MinGPInterval = c.GPInterval
	}
	for _, v := range Variants {
		if v.Name == c.Variant {
			cfg.Prudence = v.Options
		}
	}
	if cfg.PressureWatermark == 0 {
		// Let the baseline expedite under pressure, as the kernel
		// does; without this SLUB spends the whole run in reclaim
		// stalls.
		cfg.PressureWatermark = cfg.ArenaPages / 2
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStack(c.Kind, cfg)
	defer s.Close()
	c.Arena, c.Scheme, c.CPUs, c.GPInterval = s.ArenaName, s.Scheme, cfg.CPUs, cfg.RCU.MinGPInterval
	var cache alloc.Cache
	switch c.Workload {
	case "micro":
		cache = s.Alloc.NewCache(slabcore.DefaultConfig(fmt.Sprintf("kmalloc-%d", c.Size), c.Size, c.CPUs))
		r := workload.RunMicro(s.Env(), cache, opsPerCPU)
		c.OpsPerSec, c.Stalls = r.PairsPerSec(), r.Stalls
	case "endurance":
		cache = s.Alloc.NewCache(slabcore.DefaultConfig(fmt.Sprintf("endurance-%d", c.Size), c.Size, c.CPUs))
		r := workload.RunEndurance(s.Env(), cache, workload.EnduranceConfig{ListLen: 32, Updates: opsPerCPU})
		if r.Elapsed > 0 {
			c.OpsPerSec = float64(r.Updates) / r.Elapsed.Seconds()
		}
		c.OOM = r.OOM
	default:
		return c, fmt.Errorf("bench: unknown workload %q (have %v)", c.Workload, Workloads)
	}
	c.Counters = cache.Counters().Snapshot()
	cache.Drain()
	c.GPs = s.Sync.GPsCompleted()
	c.PeakPages = s.Arena.PeakPages()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	c.HeapInuse = live.HeapInuse
	c.NumGC = live.NumGC - before.NumGC
	c.PauseNs = live.PauseTotalNs - before.PauseTotalNs
	return c, nil
}

// column is one measurement a sweep prints and records, in the same
// unit in both.
type column struct {
	metric, head, unit, format string
	value                      func(Cell) float64
}

var (
	colOps        = column{"ops_per_sec", "ops/s", "ops/s", "%.0f", func(c Cell) float64 { return c.OpsPerSec }}
	colStalls     = column{"stalls", "stalls", "count", "%.0f", func(c Cell) float64 { return float64(c.Stalls) }}
	colGPs        = column{"gps_completed", "GPs", "count", "%.0f", func(c Cell) float64 { return float64(c.GPs) }}
	colOOM        = column{"oom", "oom", "bool", "%.0f", func(c Cell) float64 { return b2f(c.OOM) }}
	colPeak       = column{"peak_kib", "peak KiB", "KiB", "%.0f", func(c Cell) float64 { return float64(c.PeakPages) * 4 }}
	colPreFlushes = column{"pre_flushes", "preflushes", "count", "%.0f", func(c Cell) float64 { return float64(c.Counters.PreFlushes) }}
	colPreMoves   = column{"pre_moves", "premoves", "count", "%.0f", func(c Cell) float64 { return float64(c.Counters.PreMoves) }}
	colPartial    = column{"partial_refills", "partial refills", "count", "%.0f", func(c Cell) float64 { return float64(c.Counters.PartialFills) }}
	colHeap       = column{"heap_inuse_mib", "heap MiB", "MiB", "%.1f", func(c Cell) float64 { return float64(c.HeapInuse) / (1 << 20) }}
	colGCs        = column{"num_gc", "GCs", "count", "%.0f", func(c Cell) float64 { return float64(c.NumGC) }}
	colPause      = column{"gc_pause_us", "pause µs", "us", "%.0f", func(c Cell) float64 { return float64(c.PauseNs) / 1e3 }}
)

// vs is the speedup column against the baseline named name.
func vs(name string) column {
	return column{"speedup_vs_" + name, "vs " + name, "ratio", "%.2fx", func(c Cell) float64 { return c.Speedup }}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Sweep is a preset experiment: a name, a title and a list of points,
// each run once per allocator in Kinds.
type Sweep struct {
	Name, Title string
	Points      []Cell
	Kinds       []Kind
	columns     []column
	// baseline maps a cell to the labels of the cell its Speedup is
	// measured against.
	baseline func(Cell) Cell
}

var bothKinds = []Kind{KindSLUB, KindPrudence}

func vsSLUB(c Cell) Cell { c.Kind = KindSLUB; return c }

func micro(size int) Cell { return Cell{Workload: "micro", Size: size} }

// Fig6Sizes are the allocation sizes of the paper's micro-benchmark.
var Fig6Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096}

// Fig6 reproduces Figure 6: kmalloc()/kfree_deferred() pairs per second
// for each object size, on all CPUs, under both allocators.
func Fig6() Sweep {
	sw := Sweep{Name: "fig6", Title: "Figure 6: kmalloc/kfree_deferred pairs per second (higher is better)",
		Kinds: bothKinds, columns: []column{colOps, colStalls, vs("slub")}, baseline: vsSLUB}
	for _, size := range Fig6Sizes {
		sw.Points = append(sw.Points, micro(size))
	}
	return sw
}

// Scaling sweeps machine width at a fixed object size, where Fig6
// sweeps object size at a fixed width: powers of two from 1 up to and
// including maxCPUs. The curve exposes hot-path serialization (per-CPU
// cache locks, node-lock traffic, the buddy-allocator lock) that a
// single-width run hides. The pair count is per CPU, so each point
// measures per-CPU cost under increasing cross-CPU interference.
func Scaling(size, maxCPUs int) (Sweep, error) {
	sw := Sweep{Name: "scaling", Title: "Scaling: kmalloc/kfree_deferred pairs per second vs CPU count (higher is better)",
		Kinds: bothKinds, columns: []column{colOps, colStalls, vs("slub")}, baseline: vsSLUB}
	if maxCPUs <= 0 {
		return sw, fmt.Errorf("bench: non-positive CPU count %d in scaling sweep", maxCPUs)
	}
	for n := 1; ; n = min(2*n, maxCPUs) {
		p := micro(size)
		p.CPUs = n
		sw.Points = append(sw.Points, p)
		if n == maxCPUs {
			return sw, nil
		}
	}
}

// GPSweepIntervals are the grace-period gaps GPSweep covers.
var GPSweepIntervals = []time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	2 * time.Millisecond,
	10 * time.Millisecond,
}

// GPSweep measures how both allocators respond to grace-period length
// under the 512 B micro-benchmark. This extends the paper's analysis
// (§3.1: thousands of updates per grace period; §5.5: equilibrium at
// the reallocation rate): longer grace periods mean a larger in-flight
// deferred population, so memory footprints grow with the interval for
// both designs — but the baseline's backlog adds callback-processing
// lag on top, while Prudence's footprint tracks the interval alone.
func GPSweep() Sweep {
	sw := Sweep{Name: "gpsweep", Title: "Grace-period sensitivity (512 B micro-benchmark)",
		Kinds: bothKinds, columns: []column{colOps, colPeak, vs("slub")}, baseline: vsSLUB}
	for _, ival := range GPSweepIntervals {
		p := micro(512)
		p.GPInterval = ival
		sw.Points = append(sw.Points, p)
	}
	return sw
}

// Ablation runs Prudence with each §4.2 optimization disabled in turn,
// under the Figure 6 micro-benchmark at 512 B.
func Ablation() Sweep {
	sw := Sweep{Name: "ablation", Title: "Ablation: Prudence optimizations toggled off (512 B micro-benchmark)",
		Kinds:    []Kind{KindPrudence},
		columns:  []column{colOps, vs("full"), colPreFlushes, colPreMoves, colPartial},
		baseline: func(c Cell) Cell { c.Variant = "full"; return c }}
	for _, v := range Variants {
		p := micro(512)
		p.Variant = v.Name
		sw.Points = append(sw.Points, p)
	}
	return sw
}

// Matrix runs every registered reclamation backend (or the given
// subset) under both allocators through each workload on an identical
// machine. It answers the question the single-scheme sweeps cannot: how
// much of Prudence's advantage is the allocator integration itself, and
// how much is the grace-period detector behind it.
func Matrix(size int, schemes []string) Sweep {
	if len(schemes) == 0 {
		schemes = gsync.Backends()
	}
	sw := Sweep{Name: "matrix", Title: "Reclamation matrix (ops/s, higher is better)",
		Kinds: bothKinds, columns: []column{colOps, vs("slub"), colGPs, colOOM, colPeak}, baseline: vsSLUB}
	for _, scheme := range schemes {
		for _, wl := range Workloads {
			sw.Points = append(sw.Points, Cell{Scheme: scheme, Workload: wl, Size: size})
		}
	}
	return sw
}

// ArenaCompare reruns the matrix once per arena backend, holding
// machine, scheme and workload fixed so the only variable is where the
// arena's bytes live. Alongside throughput it records the GC metrics
// that justify the mmap backend: live heap occupied by the arena,
// collections triggered, and pause time. An empty arena list means
// every backend available here; an empty scheme list means rcu.
func ArenaCompare(size int, arenas, schemes []string) Sweep {
	if len(arenas) == 0 {
		arenas = memarena.Backends()
	}
	if len(schemes) == 0 {
		schemes = []string{"rcu"}
	}
	base := arenas[0]
	sw := Sweep{Name: "arenacmp", Title: "Arena comparison (ops/s, higher is better)",
		Kinds:    bothKinds,
		columns:  []column{colOps, vs(base), colHeap, colGCs, colPause, colOOM, colPeak},
		baseline: func(c Cell) Cell { c.Arena = base; return c }}
	for _, arena := range arenas {
		for _, scheme := range schemes {
			for _, wl := range Workloads {
				sw.Points = append(sw.Points, Cell{Arena: arena, Scheme: scheme, Workload: wl, Size: size})
			}
		}
	}
	return sw
}

// SweepResult is a finished sweep: one cell per point × allocator, in
// point order.
type SweepResult struct {
	Sweep
	OpsPerCPU int
	Cells     []Cell
}

// RunSweep runs every point of sw once per allocator on a fresh stack
// built from cfg, with opsPerCPU operations on every CPU.
func RunSweep(cfg Config, sw Sweep, opsPerCPU int) (SweepResult, error) {
	res := SweepResult{Sweep: sw, OpsPerCPU: opsPerCPU}
	for _, p := range sw.Points {
		for _, kind := range sw.Kinds {
			p.Kind = kind
			c, err := runCell(cfg, p, opsPerCPU)
			if err != nil {
				return res, fmt.Errorf("%s %s: %w", sw.Name, c.Labels(), err)
			}
			res.Cells = append(res.Cells, c)
		}
	}
	rate := map[string]float64{}
	for _, c := range res.Cells {
		rate[c.Labels()] = c.OpsPerSec
	}
	for i := range res.Cells {
		if base := rate[sw.baseline(res.Cells[i]).Labels()]; base > 0 {
			res.Cells[i].Speedup = res.Cells[i].OpsPerSec / base
		}
	}
	return res, nil
}

type label struct{ key, value string }

// labels returns the cell's labels in table and record order.
func (c Cell) labels() []label {
	return []label{
		{"arena", c.Arena},
		{"scheme", c.Scheme},
		{"workload", c.Workload},
		{"size", strconv.Itoa(c.Size)},
		{"cpus", strconv.Itoa(c.CPUs)},
		{"gp_us", strconv.FormatInt(c.GPInterval.Microseconds(), 10)},
		{"variant", c.Variant},
		{"alloc", string(c.Kind)},
	}
}

// Labels renders the cell's non-empty labels as a metric qualifier:
// {arena=heap,scheme=rcu,workload=micro,size=512,cpus=8,gp_us=500,alloc=slub}.
func (c Cell) Labels() string {
	var parts []string
	for _, l := range c.labels() {
		if l.value != "" {
			parts = append(parts, l.key+"="+l.value)
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Table renders one row per cell. Labels shared by every cell go in the
// header line; the rest are the leading columns.
func (r SweepResult) Table() string {
	first := r.Cells[0].labels()
	varies := make([]bool, len(first))
	for _, c := range r.Cells[1:] {
		for i, l := range c.labels() {
			varies[i] = varies[i] || l.value != first[i].value
		}
	}
	var heads, fixed []string
	for i, l := range first {
		if varies[i] {
			heads = append(heads, l.key)
		} else if l.value != "" {
			fixed = append(fixed, l.key+"="+l.value)
		}
	}
	for _, col := range r.columns {
		heads = append(heads, col.head)
	}
	t := stats.NewTable(heads...)
	for _, c := range r.Cells {
		var row []any
		for i, l := range c.labels() {
			if varies[i] {
				row = append(row, l.value)
			}
		}
		for _, col := range r.columns {
			row = append(row, fmt.Sprintf(col.format, col.value(c)))
		}
		t.AddRow(row...)
	}
	return fmt.Sprintf("%s\n%s, %d ops/CPU\n%s", r.Title, strings.Join(fixed, " "), r.OpsPerCPU, t.String())
}

// Records emits one record per cell and column, named metric{labels}.
func (r SweepResult) Records() []Record {
	var out []Record
	for _, c := range r.Cells {
		for _, col := range r.columns {
			out = append(out, Record{Exp: r.Name, Metric: col.metric + c.Labels(), Value: col.value(c), Unit: col.unit})
		}
	}
	return out
}
