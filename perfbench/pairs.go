package main

import (
	"fmt"
	"runtime"
	"time"

	"prudence/internal/alloc"
	"prudence/internal/bench"
	"prudence/internal/slabcore"
	"prudence/internal/vcpu"
	"prudence/internal/view"
)

// arenaBackend is the memory backend every workload runs on: off the Go
// heap, so the GC never scans the arena.
const arenaBackend = "mmap"

const (
	pairsObjectSize = 4096
	// pairsUnit is the pairs workloads' timing unit: one latency sample
	// per 512 Malloc+FreeDeferred pairs.
	pairsUnit = 512
	// pairsWarmUnits is the warm-up per loader before the measured phase.
	pairsWarmUnits  = 200
	pairsArenaPages = 32768 // 128 MiB
)

// pairsStack is one built and warmed pairs machine.
type pairsStack struct {
	s     *bench.Stack
	cache alloc.Cache
	// freeBefore is the page allocator's free count before the cache
	// existed; Drain must bring it back.
	freeBefore int
	// pairs counts every Malloc+FreeDeferred pair issued, warm-up
	// included, for the allocs == deferred frees check; failed counts
	// the pairs whose first Malloc failed.
	pairs, failed int64

	mallocNs, freeNs, qsNs [procs]spans
}

func newPairsStack(kind bench.Kind) *pairsStack {
	cfg := bench.DefaultConfig()
	cfg.CPUs = procs
	cfg.ArenaPages = pairsArenaPages
	cfg.Arena = arenaBackend
	// As in Fig. 6: let the baseline expedite under pressure.
	cfg.PressureWatermark = cfg.ArenaPages / 2
	s := bench.NewStack(kind, cfg)
	p := &pairsStack{s: s, freeBefore: s.Pages.FreePages()}
	p.cache = s.Alloc.NewCache(slabcore.DefaultConfig(fmt.Sprintf("kmalloc-%d", pairsObjectSize), pairsObjectSize, procs))
	return p
}

func (p *pairsStack) spawn(body func(i int)) {
	p.s.Machine.RunOnAll(func(c *vcpu.CPU) {
		cpu := c.ID()
		p.s.Sync.ExitIdle(cpu)
		defer p.s.Sync.EnterIdle(cpu)
		body(cpu)
	})
}

// unit runs pairsUnit pairs on cpu: the Fig. 6 loop body. A Malloc that
// fails waits for a grace period and retries; the pair counts as failed.
func (p *pairsStack) unit(traced bool) func(cpu int, l *loader) (time.Duration, error) {
	return func(cpu int, l *loader) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < pairsUnit; i++ {
			t0 := time.Now()
			ref, err := p.cache.Malloc(cpu)
			if err != nil {
				l.failed++
				for err != nil {
					p.s.Sync.SynchronizeOn(cpu)
					ref, err = p.cache.Malloc(cpu)
				}
			}
			if traced {
				p.mallocNs[cpu].add(time.Since(t0))
			}
			*view.Of[byte](ref.Bytes()) = byte(i) // touch the object
			if traced {
				t0 = time.Now()
				p.cache.FreeDeferred(cpu, ref)
				t1 := time.Now()
				p.s.Sync.QuiescentState(cpu)
				p.freeNs[cpu].add(t1.Sub(t0))
				p.qsNs[cpu].add(time.Since(t1))
			} else {
				p.cache.FreeDeferred(cpu, ref)
				p.s.Sync.QuiescentState(cpu)
			}
		}
		l.ops += pairsUnit
		return time.Since(start), nil
	}
}

// runPhase runs the loop for units per loader, or for length when units
// is 0.
func (p *pairsStack) runPhase(units int, length time.Duration, traced bool, every func()) ([]loader, time.Duration, error) {
	ls := newLoaders(p.s.Arena.UsedBytes, length, 4096)
	ph := phase{units: units, length: length, spawn: p.spawn, unit: p.unit(traced), every: every}
	elapsed, err := ph.run(ls)
	for i := range ls {
		p.pairs += ls[i].ops
		p.failed += ls[i].failed
	}
	return ls, elapsed, err
}

// check is the pairs correctness gate: every allocation was deferred-freed
// exactly once, and after Drain the page allocator holds every page it
// held before the cache existed.
func (p *pairsStack) check() error {
	ctr := p.cache.Counters()
	allocs, deferred := int64(ctr.Allocs()), int64(ctr.DeferredFrees())
	if deferred != p.pairs || (p.failed == 0 && allocs != p.pairs) {
		return violation("%d pairs issued but the cache counted %d allocs and %d deferred frees", p.pairs, allocs, deferred)
	}
	p.cache.Drain()
	if free := p.s.Pages.FreePages(); free != p.freeBefore {
		return violation("after Drain %d pages are free, %d were free before the run", free, p.freeBefore)
	}
	return nil
}

// setupPairs builds and warms a stack setupRuns times, keeps the last,
// and returns the median set-up time.
func setupPairs(kind bench.Kind, runs int) (*pairsStack, float64, error) {
	var times []float64
	var p *pairsStack
	for r := 0; r < runs; r++ {
		if p != nil {
			p.cache.Drain()
			p.s.Close()
		}
		start := time.Now()
		p = newPairsStack(kind)
		if _, _, err := p.runPhase(pairsWarmUnits, 0, false, nil); err != nil {
			p.s.Close()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return p, median(times), nil
}

// runPairs runs a pairs workload. The loop has no generated input, so the
// seed only labels the run.
func runPairs(kind bench.Kind, o options) (*outcome, error) {
	alloc := "core"
	if kind == bench.KindSLUB {
		alloc = "slub"
	}
	runs := setupRuns
	if o.trace {
		runs = 1
	}
	p, setup, err := setupPairs(kind, runs)
	if err != nil {
		return nil, err
	}
	defer p.s.Close()
	out := &outcome{}

	if !o.trace {
		ls, _, err := p.runPhase(0, o.seconds, false, nil)
		if err != nil {
			return nil, err
		}
		summarize(out, ls, fmt.Sprintf("%d-pair", pairsUnit))
		out.set("setup_s", setup, "s")
		return out, p.check()
	}

	// Traced run: a traced half with spans and gauge sampling, then an
	// untraced half for counter deltas, Go heap activity and the
	// tracing-overhead reference.
	half := o.seconds / 2
	g := backlogGauges()
	tls, tElapsed, err := p.runPhase(0, half, true, func() { g.sample(p.s.Reg.Gather()) })
	if err != nil {
		return nil, err
	}
	before := p.s.Reg.Gather()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	ls, elapsed, err := p.runPhase(0, o.seconds-half, false, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&msAfter)
	after := p.s.Reg.Gather()

	ops := sumOps(ls)
	r := layerReport{}
	r.counters(alloc, before, after, ops, elapsed)
	r.backlogs(alloc, g)
	r.goRuntime(&msBefore, &msAfter, ops, elapsed)
	r.overhead(sumOps(tls), tElapsed, ops, elapsed)
	var mallocs, frees, qs []*spans
	for i := 0; i < procs; i++ {
		mallocs = append(mallocs, &p.mallocNs[i])
		frees = append(frees, &p.freeNs[i])
		qs = append(qs, &p.qsNs[i])
	}
	r[alloc+".malloc_ns_p50"] = spanQuantile(0.50, mallocs...)
	r[alloc+".malloc_ns_p99"] = spanQuantile(0.99, mallocs...)
	r[alloc+".free_deferred_ns_p50"] = spanQuantile(0.50, frees...)
	r["sync.quiescent_ns_p50"] = spanQuantile(0.50, qs...)
	r.report(out)
	for i := range tls {
		out.attempted += tls[i].ops + ls[i].ops
		out.failed += tls[i].failed + ls[i].failed
	}
	return out, p.check()
}
