package slabcore

import (
	"errors"
	"strings"
	"testing"

	"prudence/internal/memarena"
	"prudence/internal/pagealloc"
	gsync "prudence/internal/sync"
)

func TestAuditCleanCache(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s1, _ := b.NewSlab(n)
	s2, _ := b.NewSlab(n)
	n.Lock()
	s1.PopFree()
	n.Move(s1, ListPartial)
	var refs []Ref
	for s2.FreeCount() > 0 {
		refs = append(refs, s2.PopFree())
	}
	n.Move(s2, ListFull)
	n.Unlock()
	if err := b.Audit(); err != nil {
		t.Fatalf("clean cache failed audit: %v", err)
	}
	n.Lock()
	for _, r := range refs {
		s2.PushFree(r.Idx, false)
	}
	n.Move(s2, HomeList(s2))
	n.Unlock()
	if err := b.Audit(); err != nil {
		t.Fatalf("audit after free-back: %v", err)
	}
}

func TestAuditDetectsWrongListPlacement(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	// Exhaust the slab but leave it on the free list: a fully in-use
	// slab on the free list must be flagged.
	for s.FreeCount() > 0 {
		s.PopFree()
	}
	n.Unlock()
	err := b.Audit()
	if err == nil || !errors.Is(err, ErrAudit) {
		t.Fatalf("audit missed in-use slab on free list: %v", err)
	}
	if !strings.Contains(err.Error(), "free list") {
		t.Fatalf("unhelpful audit error: %v", err)
	}
}

func TestAuditDetectsCounterDrift(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	if _, err := b.NewSlab(n); err != nil {
		t.Fatal(err)
	}
	b.Ctr.SlabGrown(1) // phantom slab in the counter
	err := b.Audit()
	if err == nil || !strings.Contains(err.Error(), "lists hold") {
		t.Fatalf("audit missed counter drift: %v", err)
	}
}

func TestAuditDetectsFreeSlabOnFullList(t *testing.T) {
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	n.Move(s, ListFull) // untouched (fully free) slab placed on full list
	n.Unlock()
	err := b.Audit()
	if err == nil || !strings.Contains(err.Error(), "full list") {
		t.Fatalf("audit missed free slab on full list: %v", err)
	}
}

func TestAuditAllowsLatentPlacements(t *testing.T) {
	// Prudence's predictive placement: an all-latent slab on the free
	// list and a latent-bearing slab on the partial list are both legal.
	b := newBase(t, smallCfg())
	n := b.NodeFor(0)
	s, _ := b.NewSlab(n)
	n.Lock()
	var refs []Ref
	for s.FreeCount() > 0 {
		refs = append(refs, s.PopFree())
	}
	for _, r := range refs {
		s.PushLatent(r.Idx, gsync.Cookie(3))
	}
	n.Move(s, ListFree) // PredictedList placement
	n.Unlock()
	if err := b.Audit(); err != nil {
		t.Fatalf("audit rejected predictive placement: %v", err)
	}
}

func TestAuditMultiNode(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 2
	cfg.CPUs = 4
	pa := pagealloc.New(memarena.New(512))
	b := NewBase(pa, cfg)
	if _, err := b.NewSlab(b.NodeFor(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.NewSlab(b.NodeFor(3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Audit(); err != nil {
		t.Fatalf("multi-node audit: %v", err)
	}
}
