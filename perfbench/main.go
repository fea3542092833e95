// Command perfbench is the repository's benchmark. One invocation runs one
// workload on seeded inputs, checks the outputs, and prints its metrics by
// name and unit; the last line of standard output is a JSON object with
// the keys correct, attempted, failed and metrics.
//
//	go build -o perfbench . && ./perfbench --workload pairs-4096 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (throughput, exact
// latency percentiles of the timing unit, time-weighted arena bytes,
// set-up time). With --trace 1 a separate run reports per-layer metrics:
// spans the benchmark keeps around its own calls into each layer, and
// deltas of the counters each layer already exports through its metrics
// registry. A correctness violation exits 1 without printing a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"prudence/internal/bench"
)

// procs is the vCPU count, the GOMAXPROCS value and the number of load
// goroutines of every workload.
const procs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back: op tallies, metrics in
// report order, and human-readable detail lines printed before the
// result.
type outcome struct {
	attempted, failed int64
	names             []string
	metrics           map[string]metric
	notes             []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	if _, ok := o.metrics[name]; !ok {
		o.names = append(o.names, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

type workload struct {
	name, why string
	run       func(options) (*outcome, error)
}

// workloads are the benchmark's inputs; the why texts match BENCHMARK.json.
var workloads = []workload{
	{"pairs-4096", "Fig. 6 Malloc+FreeDeferred loop on a 4 KiB cache, Prudence over rcu: core refill/flush, latent merge, pagealloc and grace-period pace do the work",
		func(o options) (*outcome, error) { return runPairs(bench.KindPrudence, o) }},
	{"pairs-4096-slub", "the same loop run by the SLUB baseline over rcu: the paper's baseline and the only workload that runs the retire (RCU callback) path",
		func(o options) (*outcome, error) { return runPairs(bench.KindSLUB, o) }},
	{"server-churn", "prudence-server, 2 shards over nebr, 100k sessions, closed loop of 40% touch, 20% reconnect, 32% get, 8% route_lookup: request path and copy-update frees",
		func(o options) (*outcome, error) { return runServer(churnMix, o) }},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(procs)
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	header, _ := json.Marshal(map[string]any{
		"workload":   w.name,
		"seed":       opts.seed,
		"seconds":    *seconds,
		"trace":      opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"arena":      arenaBackend,
		"commit":     commit(),
	})
	fmt.Printf("# perfbench %s\n", header)

	out, err := w.run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, n := range out.names {
		m := out.metrics[n]
		fmt.Printf("%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	res, err := json.Marshal(result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// violation reports a wrong answer from the program, as opposed to an
// operation that failed and was counted.
func violation(format string, args ...any) error {
	return fmt.Errorf("correctness violation: "+format, args...)
}

// ---------------------------------------------------------------------------
// Load phases

// loader is one load goroutine's record of a phase.
type loader struct {
	lat []int64 // exact unit latencies in order, ns
	end []int64 // unit ends, ns since the phase started
	// win accumulates ops and time-weighted arena bytes per one-second
	// window of the phase; the extra last window takes the units that
	// end past the deadline.
	win      []window
	lastT    int64 // time and arena bytes of the previous memory sample
	lastM    int64
	ops      int64
	failed   int64
	memBytes func() int64
}

// window is one second of a measured phase.
type window struct {
	ops           int64
	memW, memSpan float64 // byte-nanoseconds and nanoseconds
	lat           []int64
}

// newLoaders sizes each loader for a phase of length (0 for a phase of
// fixed units) with room for unitsPerSec latency samples per second.
func newLoaders(memBytes func() int64, length time.Duration, unitsPerSec int) []loader {
	secs := int(length / time.Second)
	ls := make([]loader, procs)
	for i := range ls {
		ls[i] = loader{
			lat:      make([]int64, 0, (secs+1)*unitsPerSec),
			end:      make([]int64, 0, (secs+1)*unitsPerSec),
			win:      make([]window, secs+1),
			memBytes: memBytes,
		}
	}
	return ls
}

// sample records one unit that ended at t ns into the phase: its latency,
// its ops, and the arena bytes in use now, weighted by the time since the
// previous sample (trapezoid rule).
func (l *loader) sample(t, lat, ops int64) {
	w := &l.win[min(int(t/int64(time.Second)), len(l.win)-1)]
	m := l.memBytes()
	dt := float64(t - l.lastT)
	w.ops += ops
	w.memW += float64(l.lastM+m) / 2 * dt
	w.memSpan += dt
	l.lat = append(l.lat, lat)
	l.end = append(l.end, t)
	l.lastT, l.lastM = t, m
}

// phase runs one load goroutine per vCPU for length (or for a fixed
// number of units when units > 0). unit performs one timing unit
// on loader i and returns its latency; the harness keeps the exact
// sample and reads arena bytes in use at the unit boundary (one atomic
// load, no sampler goroutine).
type phase struct {
	units  int
	length time.Duration
	// spawn runs body(i) concurrently for i in [0, procs) and waits.
	spawn func(body func(i int))
	unit  func(i int, l *loader) (time.Duration, error)
	// every, when non-nil, runs on loader 0 at most once per 10ms: the
	// traced run's gauge sampling.
	every func()
}

func (p *phase) run(loaders []loader) (time.Duration, error) {
	errs := make([]error, len(loaders))
	start := time.Now()
	deadline := start.Add(p.length)
	p.spawn(func(i int) {
		l := &loaders[i]
		l.lastT, l.lastM = 0, l.memBytes()
		lastEvery := time.Now()
		for k := 1; ; k++ {
			ops := l.ops
			d, err := p.unit(i, l)
			if err != nil {
				errs[i] = err
				return
			}
			now := time.Now()
			l.sample(now.Sub(start).Nanoseconds(), d.Nanoseconds(), l.ops-ops)
			if i == 0 && p.every != nil && now.Sub(lastEvery) >= 10*time.Millisecond {
				p.every()
				lastEvery = time.Now()
			}
			if (p.units > 0 && k >= p.units) || (p.units == 0 && !now.Before(deadline)) {
				return
			}
		}
	})
	return time.Since(start), errors.Join(errs...)
}

// summarize adds the end-to-end metrics of a measured phase. Each metric
// is computed per one-second window (throughput, exact latency
// percentiles of the units that ended in it, time-weighted arena bytes)
// and the median window is reported, so a burst of host noise in one
// second does not move the result. The units that end past the deadline
// count in attempted but in no window.
func summarize(o *outcome, loaders []loader, unitName string) {
	secs := len(loaders[0].win) - 1
	ws := make([]window, secs)
	var all []int64
	for i := range loaders {
		l := &loaders[i]
		o.attempted += l.ops
		o.failed += l.failed
		all = append(all, l.lat...)
		for j := range ws {
			ws[j].ops += l.win[j].ops
			ws[j].memW += l.win[j].memW
			ws[j].memSpan += l.win[j].memSpan
		}
		for j, t := range l.end {
			if w := int(t / int64(time.Second)); w < secs {
				ws[w].lat = append(ws[w].lat, l.lat[j])
			}
		}
	}
	var rate, p50, p99, mem []float64
	for _, w := range ws {
		rate = append(rate, float64(w.ops))
		if len(w.lat) == 0 {
			continue // a unit stalled through the whole second
		}
		sortInt64(w.lat)
		p50 = append(p50, float64(quantile(w.lat, 0.50))/1e3)
		p99 = append(p99, float64(quantile(w.lat, 0.99))/1e3)
		mem = append(mem, w.memW/w.memSpan)
	}
	sortInt64(all)
	o.set("ops_per_s", median(rate), "1/s")
	o.note("ops_per_s by window: %.0f", rate)
	for _, q := range []struct {
		name string
		v    float64
	}{{"lat_p50_us", median(p50)}, {"lat_p99_us", median(p99)}} {
		beyond := len(all) - sort.Search(len(all), func(i int) bool { return float64(all[i]) > q.v*1e3 })
		o.set(q.name, q.v, "us")
		o.note("%s: %.3f us, median of %d one-second windows; %d %s samples, %d beyond it",
			q.name, q.v, len(ws), len(all), unitName, beyond)
	}
	o.set("mem_avg_bytes", median(mem), "B")
	o.note("fail_ratio: %d of %d ops failed", o.failed, o.attempted)
}

func sortInt64(xs []int64) { sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] }) }

// quantile returns the nearest-rank p-quantile of sorted samples.
func quantile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(float64(len(sorted))*p)) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupRuns is how many times a run builds and warms its stack; setup_s
// is the median, and the last stack built is the one measured.
const setupRuns = 5

// ---------------------------------------------------------------------------
// Seeded streams

// splitmix64 is the op-stream generator: the same seed replays the same
// stream.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return fmix64(r.s)
}

// fmix64 is the splitmix64 finalizer. It is a bijection on uint64, so
// distinct indices give distinct keys.
func fmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ---------------------------------------------------------------------------
// Per-layer helpers

// spanCap bounds the spans kept per call site and loader: the most recent
// spanCap calls are kept, so a long traced phase holds bounded memory.
const spanCap = 1 << 18

type spans struct {
	buf []int64
	n   int
}

func (s *spans) add(d time.Duration) {
	if s.buf == nil {
		s.buf = make([]int64, spanCap)
	}
	s.buf[s.n%spanCap] = d.Nanoseconds()
	s.n++
}

func (s *spans) samples() []int64 {
	if s.n < spanCap {
		return s.buf[:s.n]
	}
	return s.buf
}

// spanQuantile merges one call site's spans across loaders.
func spanQuantile(p float64, sites ...*spans) float64 {
	var all []int64
	for _, s := range sites {
		all = append(all, s.samples()...)
	}
	sortInt64(all)
	return float64(quantile(all, p))
}

// family sums every series of one metric family in a registry snapshot
// (the family name alone, or with any label set).
func family(g map[string]float64, name string) float64 {
	var sum float64
	for k, v := range g {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// gauges averages registry gauge families over the traced phase.
type gauges struct {
	names []string
	sums  []float64
	n     int
}

func newGauges(names ...string) *gauges {
	return &gauges{names: names, sums: make([]float64, len(names))}
}

func (g *gauges) sample(snap map[string]float64) {
	for i, n := range g.names {
		g.sums[i] += family(snap, n)
	}
	g.n++
}

func (g *gauges) avg(name string) float64 {
	for i, n := range g.names {
		if n == name && g.n > 0 {
			return g.sums[i] / float64(g.n)
		}
	}
	return 0
}

// layerNames lists every per-layer metric in report order with its unit;
// a traced run reports all of them, 0 where the layer does not run. The
// comments name the end-to-end metric and workload each group should move.
var layerNames = func() [][2]string {
	var out [][2]string
	// Allocator (core on Prudence workloads, slub on pairs-4096-slub):
	// ops_per_s and lat_p99_us on the pairs workloads and server-churn;
	// latent_objects_avg moves mem_avg_bytes on server-churn.
	for _, alloc := range []string{"core", "slub"} {
		out = append(out,
			[2]string{alloc + ".malloc_ns_p50", "ns"},
			[2]string{alloc + ".malloc_ns_p99", "ns"},
			[2]string{alloc + ".free_deferred_ns_p50", "ns"},
			[2]string{alloc + ".cache_hit_ratio", "ratio"},
			[2]string{alloc + ".latent_hit_ratio", "ratio"},
			[2]string{alloc + ".refills_per_kop", "1/kop"},
			[2]string{alloc + ".flushes_per_kop", "1/kop"},
			[2]string{alloc + ".grows_per_kop", "1/kop"},
			[2]string{alloc + ".shrinks_per_kop", "1/kop"},
			[2]string{alloc + ".gp_waits_per_kop", "1/kop"},
			[2]string{alloc + ".latent_objects_avg", "count"},
		)
	}
	return append(out,
		// ops_per_s on pairs-4096.
		[2]string{"pagealloc.allocs_per_kop", "1/kop"},
		[2]string{"pagealloc.splits_per_kop", "1/kop"},
		[2]string{"pagealloc.coalesces_per_kop", "1/kop"},
		[2]string{"pagealloc.zero_hit_ratio", "ratio"},
		// lat_p99_us and mem_avg_bytes on pairs-4096 and server-churn.
		[2]string{"sync.gps_per_s", "1/s"},
		[2]string{"sync.expedited_advances_per_s", "1/s"},
		[2]string{"sync.quiescent_ns_p50", "ns"},
		// mem_avg_bytes on pairs-4096-slub.
		[2]string{"rcu.callbacks_invoked_per_kop", "1/kop"},
		[2]string{"rcu.callback_backlog_avg", "count"},
		// lat_p99_us on server-churn.
		[2]string{"nebr.restarts_per_kop", "1/kop"},
		[2]string{"nebr.retire_backlog_avg", "count"},
		// lat_p50_us on server-churn; timed in a direct replay of the
		// traced op stream.
		[2]string{"rcuhash.get_ns_p50", "ns"},
		[2]string{"rcuhash.put_ns_p50", "ns"},
		[2]string{"rcuhash.delete_ns_p50", "ns"},
		[2]string{"rcutree.get_ns_p50", "ns"},
		// lat_p50_us and ops_per_s on server-churn.
		[2]string{"server.submit_ns_p50", "ns"},
		[2]string{"server.self_us_p50", "us"},
		[2]string{"server.expedites_per_s", "1/s"},
		[2]string{"server.busy_rejects", "count"},
		// ops_per_s on pairs-4096.
		[2]string{"vcpu.idle_work_items_per_kop", "1/kop"},
		// ops_per_s and lat_p99_us everywhere.
		[2]string{"go.allocs_per_op", "1/op"},
		[2]string{"go.bytes_per_op", "B/op"},
		[2]string{"go.gc_per_s", "1/s"},
		// The traced half against the untraced half of the same run.
		[2]string{"trace.ops_per_s", "1/s"},
		[2]string{"trace.untraced_ops_per_s", "1/s"},
		[2]string{"trace.overhead_ratio", "ratio"},
	)
}()

// layerReport collects per-layer values; report emits every name.
type layerReport map[string]float64

func (r layerReport) report(o *outcome) {
	for _, nu := range layerNames {
		o.set(nu[0], r[nu[0]], nu[1])
	}
}

// counterLayers derives the counter-based per-layer metrics from registry
// snapshots taken around an untraced phase of ops operations. alloc is
// the metric prefix of the allocator under test ("core" or "slub").
func (r layerReport) counters(alloc string, before, after map[string]float64, ops int64, elapsed time.Duration) {
	d := func(name string) float64 { return family(after, name) - family(before, name) }
	kop := float64(ops) / 1e3
	per := func(name string) float64 {
		if kop == 0 {
			return 0
		}
		return d(name) / kop
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	allocs := d("prudence_cache_allocs_total")
	r[alloc+".cache_hit_ratio"] = ratio(d("prudence_cache_hits_total"), allocs)
	r[alloc+".latent_hit_ratio"] = ratio(d("prudence_cache_latent_hits_total"), allocs)
	r[alloc+".refills_per_kop"] = per("prudence_cache_refills_total")
	r[alloc+".flushes_per_kop"] = per("prudence_cache_flushes_total")
	r[alloc+".grows_per_kop"] = per("prudence_cache_grows_total")
	r[alloc+".shrinks_per_kop"] = per("prudence_cache_shrinks_total")
	r[alloc+".gp_waits_per_kop"] = per("prudence_cache_gp_waits_total")
	r["pagealloc.allocs_per_kop"] = per("prudence_page_allocs_total")
	r["pagealloc.splits_per_kop"] = per("prudence_page_splits_total")
	r["pagealloc.coalesces_per_kop"] = per("prudence_page_coalesces_total")
	r["pagealloc.zero_hit_ratio"] = ratio(d("prudence_page_zero_hits_total"), d("prudence_page_allocs_total"))
	r["sync.gps_per_s"] = d("prudence_gp_completed_total") / elapsed.Seconds()
	r["sync.expedited_advances_per_s"] = d("prudence_sync_expedited_advances_total") / elapsed.Seconds()
	r["rcu.callbacks_invoked_per_kop"] = per("prudence_rcu_callbacks_invoked_total")
	r["nebr.restarts_per_kop"] = per("prudence_nebr_restarts_total")
	r["server.expedites_per_s"] = d("prudence_server_expedites_total") / elapsed.Seconds()
	r["server.busy_rejects"] = d("prudence_server_busy_rejects_total")
	r["vcpu.idle_work_items_per_kop"] = per("prudence_vcpu_idle_work_items_total")
}

// backlogGauges are the registry gauges the traced phase averages.
func backlogGauges() *gauges {
	return newGauges("prudence_cache_latent_objects", "prudence_rcu_callback_backlog", "prudence_nebr_retire_backlog")
}

func (r layerReport) backlogs(alloc string, g *gauges) {
	r[alloc+".latent_objects_avg"] = g.avg("prudence_cache_latent_objects")
	r["rcu.callback_backlog_avg"] = g.avg("prudence_rcu_callback_backlog")
	r["nebr.retire_backlog_avg"] = g.avg("prudence_nebr_retire_backlog")
}

// goRuntime reports Go heap activity per op over an untraced phase.
func (r layerReport) goRuntime(before, after *runtime.MemStats, ops int64, elapsed time.Duration) {
	if ops > 0 {
		r["go.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(ops)
		r["go.bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	r["go.gc_per_s"] = float64(after.NumGC-before.NumGC) / elapsed.Seconds()
}

// overhead compares the traced and untraced halves of a traced run.
func (r layerReport) overhead(tracedOps int64, traced time.Duration, ops int64, untraced time.Duration) {
	r["trace.ops_per_s"] = float64(tracedOps) / traced.Seconds()
	r["trace.untraced_ops_per_s"] = float64(ops) / untraced.Seconds()
	if r["trace.untraced_ops_per_s"] > 0 {
		r["trace.overhead_ratio"] = r["trace.ops_per_s"] / r["trace.untraced_ops_per_s"]
	}
}

func sumOps(loaders []loader) int64 {
	var n int64
	for i := range loaders {
		n += loaders[i].ops
	}
	return n
}
