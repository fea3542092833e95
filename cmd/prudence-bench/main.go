// Command prudence-bench regenerates the paper's evaluation: Figure 3,
// Figure 6, Figures 7-13 (all seven tables from one application run),
// the §3.3 allocation path cost table and the §3.4 denial-of-service
// comparison, plus the studies built on the Figure 6 loop: CPU scaling,
// grace-period sensitivity, the ablation over Prudence's individual
// optimizations, the reclamation-scheme matrix and the arena-backend
// comparison.
//
// Usage:
//
//	prudence-bench -exp all
//	prudence-bench -exp fig6 -pairs 50000
//	prudence-bench -exp fig3 -cpus 8 -pages 16384
//	prudence-bench -exp apps -txns 2000     # figures 7-13 from one run
//	prudence-bench -exp scaling -json out.json
//	prudence-bench -exp matrix -schemes rcu,hp -json out.json
//	prudence-bench -exp fig6 -arena mmap           # off-heap arena everywhere
//	prudence-bench -exp arenacmp -json out.json    # heap vs mmap, with GC metrics
//	prudence-bench -exp fig6 -cpuprofile cpu.pb.gz -mutexprofile mtx.pb.gz
//
// -json writes the records of every experiment run; trace prints an
// event timeline and records nothing.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"prudence/internal/bench"
	"prudence/internal/memarena"
	"prudence/internal/slabcore"
	"prudence/internal/trace"
	"prudence/internal/workload"
)

// options is the parsed command line every runner reads.
type options struct {
	cfg             bench.Config
	pagesSet        bool // -pages was given
	pairs, size     int
	txns, repeats   int
	dosMs           int
	schemes, arenas []string
	failOnOOM       bool
}

// experiment is one -exp name and its runner.
type experiment struct {
	name string
	// sweep is the preset behind a sweep experiment; nil otherwise.
	sweep *bench.Sweep
	run   func() ([]bench.Record, error)
}

// experiments is the -exp registry, in "-exp all" order.
func experiments(o options) ([]experiment, error) {
	scaling, err := bench.Scaling(o.size, o.cfg.CPUs)
	if err != nil {
		return nil, err
	}
	return []experiment{
		o.sweep(bench.Fig6(), o.pairs),
		o.sweep(scaling, o.pairs),
		o.sweep(bench.Matrix(o.size, o.schemes), o.pairs),
		o.sweep(bench.ArenaCompare(o.size, o.arenas, o.schemes), o.pairs),
		{name: "fig3", run: func() ([]bench.Record, error) {
			// An arena small enough that the baseline's growing
			// callback backlog exhausts it well within the update
			// budget (the Figure 3 OOM).
			return report(bench.RunFig3(o.smallArena(2048), bench.DefaultFig3Config()))
		}},
		{name: "apps", run: func() ([]bench.Record, error) {
			return report(bench.RunAppsMedian(o.cfg, o.txns, o.repeats))
		}},
		{name: "cost", run: func() ([]bench.Record, error) { return report(bench.RunCostTable(o.cfg)) }},
		{name: "dos", run: func() ([]bench.Record, error) {
			// 4 MiB: the flood must be able to win against SLUB.
			return report(bench.RunDoS(o.smallArena(1024), time.Duration(o.dosMs)*time.Millisecond))
		}},
		o.sweep(bench.Ablation(), o.pairs),
		o.sweep(bench.GPSweep(), max(1, o.pairs/2)),
		{name: "trace", run: o.trace},
		{name: "server", run: func() ([]bench.Record, error) { return report(bench.RunServer(o.cfg)) }},
	}, nil
}

// selectExperiments resolves -exp: "all" or one registered name.
func selectExperiments(exps []experiment, name string) ([]experiment, error) {
	if name == "all" {
		return exps, nil
	}
	var names []string
	for _, e := range exps {
		if e.name == name {
			return []experiment{e}, nil
		}
		names = append(names, e.name)
	}
	return nil, fmt.Errorf("unknown experiment %q; choose from %s all", name, strings.Join(names, " "))
}

func main() {
	o := options{cfg: bench.DefaultConfig()}
	var exp, jsonPath, cpuProfile, mutexProf, blockProf string
	var metrics bool
	flag.StringVar(&exp, "exp", "all", "experiment: fig3|fig6|scaling|matrix|arenacmp|apps|cost|dos|ablation|gpsweep|trace|server|all")
	flag.IntVar(&o.cfg.CPUs, "cpus", 8, "virtual CPUs")
	flag.IntVar(&o.cfg.ArenaPages, "pages", 16384, "arena size in 4 KiB pages (fig3 and dos default to a smaller arena)")
	flag.IntVar(&o.pairs, "pairs", 20000, "operations per CPU in each sweep cell (gpsweep runs half)")
	flag.IntVar(&o.size, "size", 512, "object size in bytes for scaling, matrix and arenacmp")
	flag.IntVar(&o.txns, "txns", 1500, "application transactions per CPU (figs 7-13)")
	flag.IntVar(&o.repeats, "repeats", 3, "application comparison repeats; figure 13 reports medians")
	flag.IntVar(&o.dosMs, "dos-ms", 1500, "DoS attack duration in milliseconds")
	flag.BoolVar(&metrics, "metrics", false, "dump each stack's Prometheus metrics on teardown")
	flag.Func("schemes", "comma-separated reclamation schemes for matrix and arenacmp (default all registered for matrix, rcu for arenacmp)",
		func(s string) error { o.schemes = splitList(s); return nil })
	// An empty -arena falls through to $PRUDENCE_ARENA in NewStack.
	flag.StringVar(&o.cfg.Arena, "arena", "", "arena memory backend behind every experiment: heap|mmap (empty = heap, or $PRUDENCE_ARENA)")
	flag.Func("arenas", "comma-separated arena backends for the arenacmp sweep (default all available)",
		func(s string) error { o.arenas = splitList(s); return nil })
	flag.BoolVar(&o.failOnOOM, "fail-on-oom", false, "exit 1 if any sweep cell reports an out-of-memory (CI guard for the endurance OOM class)")
	flag.StringVar(&jsonPath, "json", "", "write machine-readable results (JSON records) to this file")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&mutexProf, "mutexprofile", "", "write a mutex-contention profile to this file")
	flag.StringVar(&blockProf, "blockprofile", "", "write a blocking profile to this file")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { o.pagesSet = o.pagesSet || f.Name == "pages" })
	if metrics {
		o.cfg.MetricsTo = os.Stdout
	}

	usageError := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "prudence-bench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range []struct {
		name  string
		value int
	}{{"cpus", o.cfg.CPUs}, {"pages", o.cfg.ArenaPages}, {"pairs", o.pairs}, {"size", o.size}, {"txns", o.txns}, {"repeats", o.repeats}, {"dos-ms", o.dosMs}} {
		if f.value <= 0 {
			usageError("-%s must be positive, got %d", f.name, f.value)
		}
	}
	if o.cfg.Arena != "" && !memarena.BackendAvailable(o.cfg.Arena) {
		usageError("unknown -arena %q (available: %v)", o.cfg.Arena, memarena.Backends())
	}

	exps, err := experiments(o)
	if err != nil {
		usageError("%v", err)
	}
	selected, err := selectExperiments(exps, exp)
	if err != nil {
		usageError("%v", err)
	}

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if mutexProf != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", mutexProf)
	}
	if blockProf != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", blockProf)
	}

	records := []bench.Record{}
	for _, e := range selected {
		start := time.Now()
		recs, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		records = append(records, recs...)
		fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Truncate(time.Millisecond))
	}
	if jsonPath != "" {
		var buf bytes.Buffer
		err := bench.WriteRecords(&buf, records)
		if err == nil {
			err = os.WriteFile(jsonPath, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}
}

// result is what every runner but trace returns.
type result interface {
	Table() string
	Records() []bench.Record
}

// report prints a runner's table and returns its records.
func report(res result, err error) ([]bench.Record, error) {
	if err != nil {
		return nil, err
	}
	fmt.Println(res.Table())
	return res.Records(), nil
}

// sweep wraps a preset as an experiment that, with -fail-on-oom, fails
// on any out-of-memory cell.
func (o options) sweep(sw bench.Sweep, opsPerCPU int) experiment {
	return experiment{name: sw.Name, sweep: &sw, run: func() ([]bench.Record, error) {
		res, err := bench.RunSweep(o.cfg, sw, opsPerCPU)
		recs, err := report(res, err)
		if err != nil || !o.failOnOOM {
			return recs, err
		}
		for _, c := range res.Cells {
			if c.OOM {
				return nil, fmt.Errorf("cell %s reported oom=1", c.Labels())
			}
		}
		return recs, nil
	}}
}

// smallArena returns the config with the arena cut to pages unless
// -pages was given: fig3 and dos need an arena the baseline can fill.
func (o options) smallArena(pages int) bench.Config {
	c := o.cfg
	if !o.pagesSet {
		c.ArenaPages = pages
	}
	return c
}

// trace runs a short 512 B deferred-free burst on each allocator with
// an event ring attached: the timeline makes the "hints about the
// future" machinery visible (refills sized by the latent backlog,
// batched pre-flushes, grace-period waits). It records nothing.
func (o options) trace() ([]bench.Record, error) {
	for _, kind := range []bench.Kind{bench.KindSLUB, bench.KindPrudence} {
		s := bench.NewStack(kind, o.cfg)
		cache := s.Alloc.NewCache(slabcore.DefaultConfig("kmalloc-512", 512, o.cfg.CPUs))
		ring := trace.NewRing(4096)
		type tracer interface{ SetTrace(*trace.Ring) }
		cache.(tracer).SetTrace(ring)
		workload.RunMicro(s.Env(), cache, 4000)
		fmt.Printf("--- %s event counts over a 512 B micro burst ---\n", kind)
		counts := ring.CountByKind()
		for k := trace.KindMalloc; k <= trace.KindOOM; k++ {
			if counts[k] > 0 {
				fmt.Printf("  %-9s %d\n", k, counts[k])
			}
		}
		fmt.Printf("last events:\n  %s\n", strings.ReplaceAll(strings.TrimRight(ring.Dump(12), "\n"), "\n", "\n  "))
		cache.Drain()
		s.Close()
	}
	return nil, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// writeProfile dumps a named runtime profile, for -mutexprofile and
// -blockprofile.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%sprofile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%sprofile: %v\n", name, err)
	}
}
