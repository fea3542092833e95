// Package bench is the experiment harness for the paper's evaluation
// (§3.5 and §5): it builds identical simulated machines for the SLUB
// baseline and Prudence, runs the matching workload from
// internal/workload, and reports paper-style tables and JSON records.
// Every experiment built on the Figure 6 loop or the endurance list
// storm (Figure 6, scaling, grace-period sweep, ablation, scheme
// matrix, arena comparison) is a Sweep preset run by one cell runner;
// Figure 3, Figures 7-13, the §3.3 cost table, the §3.4 DoS flood and
// the server sweep keep their own runners. cmd/prudence-bench and the
// repository's bench_test.go are thin wrappers over these.
//
// Absolute numbers differ from the paper (user-space simulation vs a
// 64-thread Xeon kernel); the reproduced quantity is the *shape*: who
// wins, roughly by how much, and in which direction each per-cache
// metric moves. EXPERIMENTS.md records paper-vs-measured for every
// figure.
package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"prudence/internal/alloc"
	"prudence/internal/core"
	"prudence/internal/memarena"
	"prudence/internal/metrics"
	"prudence/internal/pagealloc"
	"prudence/internal/rcu"
	"prudence/internal/slub"
	gsync "prudence/internal/sync"
	"prudence/internal/vcpu"
	"prudence/internal/workload"
)

// Kind selects the allocator under test.
type Kind string

// Allocator kinds.
const (
	KindSLUB     Kind = "slub"
	KindPrudence Kind = "prudence"
)

// Config parameterizes a simulated machine for one experiment run.
type Config struct {
	CPUs       int
	ArenaPages int
	// Arena selects the memory backend behind the arena by registered
	// name ("heap", and "mmap" on Linux); empty means memarena's
	// default. Experiments comparing backends hold everything else
	// fixed and vary only this.
	Arena string
	// Scheme selects the reclamation backend by registered name; empty
	// means "rcu", built directly from the RCU options below. Other
	// schemes (ebr, hp, nebr) are resolved through the internal/sync
	// registry, deriving their options from the RCU ones where they
	// translate (grace-period interval, batch, throttle).
	Scheme string
	RCU    rcu.Options
	// Prudence carries the ablation toggles (ignored for SLUB).
	Prudence core.Options
	// PressureWatermark arms the page allocator's memory pressure
	// notification at this used-page count and wires it to the RCU
	// engine's expediting (§3.5's kernel behaviour: "RCU attempts to
	// process more deferred objects as the memory pressure increases").
	// Zero means the default of 3/4 of the arena; negative disables.
	PressureWatermark int
	// MetricsTo, when non-nil, receives a Prometheus-format dump of the
	// stack's metrics registry when the stack is closed.
	MetricsTo io.Writer
	// DisablePreZero turns off idle-time page pre-zeroing (both kinds
	// get it by default, keeping the SLUB-vs-Prudence comparison fair).
	DisablePreZero bool
}

// DefaultConfig returns the machine used by the experiments: 8 virtual
// CPUs (scaled down from the paper's 64 hardware threads) and a 64 MiB
// arena, with kernel-flavoured RCU settings.
func DefaultConfig() Config {
	return Config{
		CPUs:       8,
		ArenaPages: 16384, // 64 MiB of 4 KiB pages
		RCU: rcu.Options{
			Blimit:          10,
			ExpeditedBlimit: 300,
			// 10 callbacks per 20µs per CPU ≈ 500k/s: application-rate
			// deferred frees are processed promptly (as kernel softirq
			// does), while allocator-saturating workloads still outrun
			// it and expose the §3 pathologies.
			ThrottleDelay:  20 * time.Microsecond,
			MinGPInterval:  500 * time.Microsecond,
			QSPollInterval: 20 * time.Microsecond,
		},
	}
}

// Stack is a fully assembled simulated machine plus allocator.
type Stack struct {
	Kind   Kind
	Scheme string
	// ArenaName is the memory backend behind Arena.
	ArenaName string
	Arena     *memarena.Arena
	Pages     *pagealloc.Allocator
	Machine   *vcpu.Machine
	// Sync is the reclamation backend every layer shares. RCU aliases
	// it when (and only when) Scheme is "rcu" — the figure runners that
	// introspect engine internals (Fig. 3's backlog) use it and must
	// nil-check.
	Sync  gsync.Backend
	RCU   *rcu.RCU
	Alloc alloc.Allocator
	// Reg collects every layer's metrics; WriteMetrics scrapes it.
	Reg *metrics.Registry

	metricsTo io.Writer
	zeroer    *pagealloc.Zeroer
}

// NewStack builds a machine and allocator of the given kind, backed by
// cfg.Scheme's reclamation backend.
func NewStack(kind Kind, cfg Config) *Stack {
	if cfg.Scheme == "" {
		cfg.Scheme = "rcu"
	}
	if cfg.Arena == "" {
		cfg.Arena = os.Getenv("PRUDENCE_ARENA")
	}
	if cfg.Arena == "" {
		cfg.Arena = memarena.DefaultBackend
	}
	s := &Stack{Kind: kind, Scheme: cfg.Scheme, ArenaName: cfg.Arena, metricsTo: cfg.MetricsTo}
	arena, err := memarena.NewBackend(cfg.Arena, cfg.ArenaPages)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	s.Arena = arena
	s.Pages = pagealloc.New(s.Arena)
	s.Machine = vcpu.NewMachine(cfg.CPUs)
	if cfg.Scheme == "rcu" {
		// Build directly so the full rcu.Options surface (expedited
		// blimit, QS poll) keeps applying, not just the subset the
		// registry factory maps.
		s.RCU = rcu.New(s.Machine, cfg.RCU)
		s.Sync = s.RCU
	} else {
		backend, err := gsync.New(cfg.Scheme, s.Machine, gsync.Options{
			GPInterval:      cfg.RCU.MinGPInterval,
			PollInterval:    cfg.RCU.QSPollInterval,
			RetireBatch:     cfg.RCU.Blimit,
			RetireDelay:     cfg.RCU.ThrottleDelay,
			ExpeditedBlimit: cfg.RCU.ExpeditedBlimit,
			Qhimark:         cfg.RCU.Qhimark,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		s.Sync = backend
	}
	if cfg.PressureWatermark == 0 {
		cfg.PressureWatermark = cfg.ArenaPages * 3 / 4
	}
	if cfg.PressureWatermark > 0 {
		if ps, ok := s.Sync.(gsync.PressureSetter); ok {
			s.Pages.OnPressure(ps.SetPressure)
		}
		s.Pages.SetPressureWatermark(cfg.PressureWatermark)
	}
	switch kind {
	case KindSLUB:
		s.Alloc = slub.New(s.Pages, s.Sync, cfg.CPUs)
	case KindPrudence:
		s.Alloc = core.New(s.Pages, s.Sync, s.Machine, cfg.Prudence)
	default:
		panic(fmt.Sprintf("bench: unknown allocator kind %q", kind))
	}
	if !cfg.DisablePreZero {
		s.zeroer = pagealloc.StartPreZero(s.Pages, s.Machine)
	}
	s.Reg = metrics.NewRegistry()
	s.Pages.RegisterMetrics(s.Reg)
	s.Sync.RegisterMetrics(s.Reg)
	s.Alloc.RegisterMetrics(s.Reg)
	s.Machine.RegisterMetrics(s.Reg)
	return s
}

// WriteMetrics scrapes the stack's registry in Prometheus text format.
func (s *Stack) WriteMetrics(w io.Writer) error {
	return s.Reg.WritePrometheus(w)
}

// Env returns the workload environment view of the stack.
func (s *Stack) Env() workload.Env {
	return workload.Env{Machine: s.Machine, Sync: s.Sync, Pages: s.Pages}
}

// Close tears the stack down, dumping the metrics registry first if the
// config asked for it.
func (s *Stack) Close() {
	if s.metricsTo != nil {
		fmt.Fprintf(s.metricsTo, "# stack %s final metrics\n", s.Kind)
		s.WriteMetrics(s.metricsTo)
	}
	if s.zeroer != nil {
		s.zeroer.Stop()
	}
	s.Sync.Stop()
	s.Machine.Stop()
	s.Arena.Close()
}
