package sync_test

import (
	"testing"
	"time"

	"prudence/internal/ebr"
	"prudence/internal/hp"
	gsync "prudence/internal/sync"
	"prudence/internal/sync/synctest"
	"prudence/internal/vcpu"

	// Registered through init side effects; resolved by name below.
	_ "prudence/internal/rcu"
)

func TestRegistry(t *testing.T) {
	names := gsync.Backends()
	for _, want := range []string{"ebr", "hp", "nebr", "rcu"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("backend %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Backends() not sorted: %v", names)
		}
	}
	if !gsync.Registered("rcu") || gsync.Registered("no-such-scheme") {
		t.Fatal("Registered misreports")
	}
	m := vcpu.NewMachine(2)
	defer m.Stop()
	if _, err := gsync.New("no-such-scheme", m, gsync.Options{}); err == nil {
		t.Fatal("New accepted an unregistered scheme")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { gsync.Register("", func(*vcpu.Machine, gsync.Options) gsync.Backend { return nil }) })
	mustPanic("nil factory", func() { gsync.Register("synctest-nil", nil) })
	gsync.Register("synctest-dup", func(*vcpu.Machine, gsync.Options) gsync.Backend { return nil })
	mustPanic("duplicate name", func() {
		gsync.Register("synctest-dup", func(*vcpu.Machine, gsync.Options) gsync.Backend { return nil })
	})
}

// Every registered scheme passes the shared conformance suite. nebr is
// constructed directly with its neutralization bound pushed far above
// the suite's reader-hold windows: neutralizing a deliberately pinned
// reader is its designed behaviour, and internal/ebr's straggler tests
// cover it; here it must behave like plain EBR.
func TestConformance(t *testing.T) {
	const cpus = 4
	factories := map[string]synctest.Factory{
		"rcu": func(t *testing.T) gsync.Backend {
			return newRegistered(t, "rcu", cpus)
		},
		"ebr": func(t *testing.T) gsync.Backend {
			return newRegistered(t, "ebr", cpus)
		},
		"hp": func(t *testing.T) gsync.Backend {
			return newRegistered(t, "hp", cpus)
		},
		"nebr": func(t *testing.T) gsync.Backend {
			m := vcpu.NewMachine(cpus)
			t.Cleanup(m.Stop)
			return ebr.New(m, ebr.Options{
				AdvanceInterval: 500 * time.Microsecond,
				NeutralizeAfter: time.Minute,
			})
		},
	}
	for name, factory := range factories {
		t.Run(name, func(t *testing.T) { synctest.Run(t, cpus, factory) })
	}
}

func newRegistered(t *testing.T, name string, cpus int) gsync.Backend {
	t.Helper()
	m := vcpu.NewMachine(cpus)
	t.Cleanup(m.Stop)
	b, err := gsync.New(name, m, gsync.Options{GPInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The hp backend reached through the registry still exposes its native
// per-pointer API.
func TestRegistryPreservesConcreteType(t *testing.T) {
	m := vcpu.NewMachine(2)
	defer m.Stop()
	b, err := gsync.New("hp", m, gsync.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if _, ok := b.(*hp.HP); !ok {
		t.Fatalf("registry returned %T for hp", b)
	}
}
