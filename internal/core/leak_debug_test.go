package core

import (
	"fmt"
	"math/rand"
	"testing"

	"prudence/internal/memarena"
	"prudence/internal/pagealloc"
	"prudence/internal/rcu"
	"prudence/internal/slabcore"
	"prudence/internal/vcpu"
	"prudence/internal/workload"
)

// debugDump renders the cache's internal accounting for leak forensics.
func debugDump(c *Cache) string {
	out := fmt.Sprintf("latentTotal=%d currentSlabs=%d requested=%d\n",
		c.latentTotal.Load(), c.base.Ctr.CurrentSlabs(), c.base.Requested())
	for i, cl := range c.percpu {
		cl.objs.LockRemote()
		out += fmt.Sprintf("  cpu%d objs=%d latent=%d armed=%v\n", i, cl.objs.Len(), cl.latent.len(), cl.preflushArmed)
		cl.objs.Unlock()
	}
	for _, n := range c.base.NodesArr {
		n.Lock()
		out += fmt.Sprintf("  node%d full=%d partial=%d free=%d\n", n.ID(), n.FullSlabs(), n.PartialSlabs(), n.FreeSlabs())
		for _, first := range []*slabcore.Slab{n.FirstFull(), n.FirstPartial(), n.FirstFree()} {
			for s := first; s != nil; s = s.NextInList() {
				out += fmt.Sprintf("    slab[%v] free=%d latent=%d inUse=%d\n", s.List(), s.FreeCount(), s.LatentCount(), s.InUse())
			}
		}
		n.Unlock()
	}
	return out
}

// TestLeakReproNoPreMove hammers the NoPreMove variant's concurrent
// mixed workload repeatedly; on a post-Drain leak it dumps internals.
func TestLeakReproNoPreMove(t *testing.T) {
	if testing.Short() {
		t.Skip("stress repro")
	}
	for round := 0; round < 30; round++ {
		arena := memarena.New(2048)
		pages := pagealloc.New(arena)
		machine := vcpu.NewMachine(4)
		r := rcu.New(machine, rcu.Options{})
		a := New(pages, r, machine, Options{DisablePreMove: true})
		cfg := slabcore.CacheConfig{
			Name: "leak", ObjectSize: 256, SlabOrder: 0,
			CacheSize: 8, FreeSlabLimit: 2, Poison: true,
		}
		c := a.NewCache(cfg).(*Cache)
		env := workload.Env{Machine: machine, Sync: r, Pages: pages}
		_ = env
		machine.RunOnAll(func(cpu *vcpu.CPU) {
			id := cpu.ID()
			r.ExitIdle(id)
			defer r.EnterIdle(id)
			rng := rand.New(rand.NewSource(int64(round*10 + id)))
			var live []slabcore.Ref
			for i := 0; i < 2000; i++ {
				if rng.Intn(2) == 0 || len(live) == 0 {
					ref, err := c.Malloc(id)
					if err != nil {
						t.Errorf("cpu %d: %v", id, err)
						return
					}
					live = append(live, ref)
				} else {
					j := rng.Intn(len(live))
					if rng.Intn(2) == 0 {
						c.Free(id, live[j])
					} else {
						c.FreeDeferred(id, live[j])
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				r.QuiescentState(id)
			}
			for _, ref := range live {
				c.Free(id, ref)
			}
		})
		c.Drain()
		if used := arena.UsedPages(); used != 0 {
			t.Fatalf("round %d: %d pages leaked\n%s", round, used, debugDump(c))
		}
		r.Stop()
		machine.Stop()
		arena.Close()
	}
}
