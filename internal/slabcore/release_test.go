package slabcore

import (
	"sync"
	"testing"
)

// A flush batch may hold objects of several nodes (cross-node frees).
// Two CPUs flushing such batches at once must each place only the slabs
// of the node whose lock they hold: placing another node's slab would
// read its touched flag unlocked and move it on the wrong node's lists.
// Run under -race; the final audit also catches misplaced slabs.
func TestReleaseRefsConcurrentCrossNode(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 2
	b := newBase(t, cfg)
	nodes := []*Node{b.NodeFor(0), b.NodeFor(1)}
	if nodes[0] == nodes[1] {
		t.Fatal("CPUs 0 and 1 share a node")
	}
	slabs := make([][]*Slab, len(nodes))
	for i, n := range nodes {
		for j := 0; j < 4; j++ {
			s, err := b.NewSlab(n)
			if err != nil {
				t.Fatal(err)
			}
			slabs[i] = append(slabs[i], s)
		}
	}

	const rounds = 2000
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var batch []Ref
			for r := 0; r < rounds; r++ {
				batch = batch[:0]
				// Take up to 3 objects from every slab (8 each, so both
				// CPUs together never empty one), node by node.
				for i, n := range nodes {
					n.Lock()
					for _, s := range slabs[i] {
						for k := 0; k < 3 && s.FreeCount() > 0; k++ {
							batch = append(batch, s.PopFree())
						}
						n.Move(s, HomeList(s))
					}
					n.Unlock()
				}
				// Interleave the nodes so the batch alternates between them.
				half := len(batch) / 2
				for i := 0; i < half; i += 2 {
					batch[i], batch[half+i] = batch[half+i], batch[i]
				}
				b.ReleaseRefs(batch, HomeList)
			}
		}()
	}
	wg.Wait()

	for i, n := range nodes {
		n.Lock()
		for _, s := range slabs[i] {
			if s.InUse() != 0 || s.List() != ListFree {
				n.Unlock()
				t.Fatalf("node %d slab: inUse=%d list=%v, want 0 on the free list", i, s.InUse(), s.List())
			}
		}
		n.Unlock()
	}
	if err := b.Audit(); err != nil {
		t.Fatalf("audit after concurrent cross-node flushes: %v", err)
	}
}
