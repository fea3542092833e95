// Package rcutree implements an RCU-protected balanced search tree
// (a treap with deterministic priorities) using the copy-on-update
// discipline of relativistic red-black trees: writers never modify a
// published node; they rebuild the affected path, swap the root, and
// defer-free the payloads of every replaced node.
//
// This is the data structure the paper's §3.1 points at when it notes
// that "tree re-balancing results in multiple deferred objects": a
// single insert or delete here defer-frees O(log n) objects, giving
// the allocator exactly the multi-object deferred bursts that list
// updates (one object each) do not.
//
// Node spines are small Go structs; each node owns one slab-allocated
// payload object carrying the value bytes. Spine copies allocate a new
// payload and defer-free the old one once the node is unpublished, so
// the allocator sees every structural change.
package rcutree

import (
	"sync"
	"sync/atomic"

	"prudence/internal/alloc"
	"prudence/internal/rculist"
	"prudence/internal/slabcore"
)

// node is an immutable published tree node. After publication only the
// enclosing Tree's root pointer changes; replaced nodes are dropped
// wholesale.
type node struct {
	key   uint64
	prio  uint64
	obj   slabcore.Ref
	left  *node
	right *node
}

// Tree is an RCU-protected ordered map from uint64 keys to fixed-size
// values. Readers (Get, Min, Max, Range, Len) run wait-free on any CPU;
// writers (Put, Delete) serialize on an internal mutex.
type Tree struct {
	root  atomic.Pointer[node]
	cache alloc.Cache
	rcu   rculist.ReadSync

	wmu  sync.Mutex
	size atomic.Int64
}

// New creates a tree whose values are allocated from cache. r provides
// read-side protection (any registered sync.Backend).
func New(cache alloc.Cache, r rculist.ReadSync) *Tree {
	return &Tree{cache: cache, rcu: r}
}

// ValueSize returns the value capacity of each entry.
func (t *Tree) ValueSize() int { return t.cache.ObjectSize() }

// Len returns the number of keys.
func (t *Tree) Len() int { return int(t.size.Load()) }

// prio derives a deterministic treap priority (splitmix64 finalizer).
func prio(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Get copies key's value into buf inside a read-side critical section
// on cpu, returning bytes copied and presence.
func (t *Tree) Get(cpu int, key uint64, buf []byte) (int, bool) {
	t.rcu.ReadLock(cpu)
	defer t.rcu.ReadUnlock(cpu)
	n := t.root.Load()
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return copy(buf, n.obj.Bytes()), true
		}
	}
	return 0, false
}

// Min returns the smallest key, if any.
func (t *Tree) Min(cpu int) (uint64, bool) {
	t.rcu.ReadLock(cpu)
	defer t.rcu.ReadUnlock(cpu)
	n := t.root.Load()
	if n == nil {
		return 0, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, true
}

// Max returns the largest key, if any.
func (t *Tree) Max(cpu int) (uint64, bool) {
	t.rcu.ReadLock(cpu)
	defer t.rcu.ReadUnlock(cpu)
	n := t.root.Load()
	if n == nil {
		return 0, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, true
}

// Range visits keys in [from, to] in ascending order inside one
// read-side critical section on cpu, stopping early if fn returns
// false. fn must not retain value.
func (t *Tree) Range(cpu int, from, to uint64, fn func(key uint64, value []byte) bool) {
	t.rcu.ReadLock(cpu)
	defer t.rcu.ReadUnlock(cpu)
	rangeWalk(t.root.Load(), from, to, fn)
}

func rangeWalk(n *node, from, to uint64, fn func(uint64, []byte) bool) bool {
	if n == nil {
		return true
	}
	if n.key > from {
		if !rangeWalk(n.left, from, to, fn) {
			return false
		}
	}
	if n.key >= from && n.key <= to {
		if !fn(n.key, n.obj.Bytes()) {
			return false
		}
	}
	if n.key < to {
		if !rangeWalk(n.right, from, to, fn) {
			return false
		}
	}
	return true
}

// update carries the per-operation writer state: the CPU, freshly
// allocated payloads (for rollback on OOM) and the payloads of replaced
// nodes (defer-freed after the root swap unpublishes them).
type update struct {
	t        *Tree
	cpu      int
	fresh    []slabcore.Ref
	replaced []slabcore.Ref
	err      error
}

// cloneWith allocates a new payload carrying value and returns a node
// that replaces n (which must be unpublished by the caller's root
// swap). n's payload is queued for deferred freeing.
func (u *update) clone(n *node) *node {
	if u.err != nil {
		return n
	}
	ref, err := u.t.cache.Malloc(u.cpu)
	if err != nil {
		u.err = err
		return n
	}
	copy(ref.Bytes(), n.obj.Bytes())
	u.fresh = append(u.fresh, ref)
	u.replaced = append(u.replaced, n.obj)
	return &node{key: n.key, prio: n.prio, obj: ref, left: n.left, right: n.right}
}

// fail rolls back freshly allocated payloads after an OOM mid-rebuild.
func (u *update) fail() {
	for _, ref := range u.fresh {
		u.t.cache.Free(u.cpu, ref)
	}
}

// commit publishes the new root and defer-frees every replaced payload.
func (u *update) commit(newRoot *node) {
	u.t.root.Store(newRoot)
	for _, ref := range u.replaced {
		u.t.cache.FreeDeferred(u.cpu, ref)
	}
}

// Put inserts key or replaces its value. The rebuilt search path (plus
// any rotations) defer-frees one payload per replaced node.
func (t *Tree) Put(cpu int, key uint64, value []byte) error {
	ref, err := t.cache.Malloc(cpu)
	if err != nil {
		return err
	}
	copy(ref.Bytes(), value)

	t.wmu.Lock()
	defer t.wmu.Unlock()
	u := &update{t: t, cpu: cpu}
	inserted := false
	newRoot := t.insert(u, t.root.Load(), key, ref, &inserted)
	if u.err != nil {
		u.fail()
		t.cache.Free(cpu, ref)
		return u.err
	}
	u.commit(newRoot)
	if inserted {
		t.size.Add(1)
	}
	return nil
}

// insert returns the new subtree replacing n after inserting (key, ref).
// Copied nodes are tracked in u.
func (t *Tree) insert(u *update, n *node, key uint64, ref slabcore.Ref, inserted *bool) *node {
	if u.err != nil {
		return n
	}
	if n == nil {
		*inserted = true
		return &node{key: key, prio: prio(key), obj: ref}
	}
	switch {
	case key == n.key:
		// Replace in place (copy-update): new node with the new
		// payload; the old payload is deferred.
		u.replaced = append(u.replaced, n.obj)
		return &node{key: key, prio: n.prio, obj: ref, left: n.left, right: n.right}
	case key < n.key:
		m := u.clone(n)
		if u.err != nil {
			return n
		}
		m.left = t.insert(u, n.left, key, ref, inserted)
		if u.err != nil {
			return n
		}
		if m.left != nil && m.left.prio > m.prio {
			m = rotateRight(m)
		}
		return m
	default:
		m := u.clone(n)
		if u.err != nil {
			return n
		}
		m.right = t.insert(u, n.right, key, ref, inserted)
		if u.err != nil {
			return n
		}
		if m.right != nil && m.right.prio > m.prio {
			m = rotateLeft(m)
		}
		return m
	}
}

// rotateRight/Left operate on freshly built (unpublished) nodes only:
// the pivot child is already a copy when its priority could have
// changed... the treap invariant means rotations happen exactly where
// the path was rebuilt, so mutating these spine copies is safe.
func rotateRight(n *node) *node {
	l := n.left
	nn := &node{key: n.key, prio: n.prio, obj: n.obj, left: l.right, right: n.right}
	return &node{key: l.key, prio: l.prio, obj: l.obj, left: l.left, right: nn}
}

func rotateLeft(n *node) *node {
	r := n.right
	nn := &node{key: n.key, prio: n.prio, obj: n.obj, left: n.left, right: r.left}
	return &node{key: r.key, prio: r.prio, obj: r.obj, left: nn, right: r.right}
}

// Delete removes key, defer-freeing its payload and the payloads of
// every path node rebuilt on the way. Reports whether the key existed.
func (t *Tree) Delete(cpu int, key uint64) (bool, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	u := &update{t: t, cpu: cpu}
	removed := false
	newRoot := t.remove(u, t.root.Load(), key, &removed)
	if u.err != nil {
		u.fail()
		return false, u.err
	}
	if !removed {
		u.fail() // nothing was cloned on a miss, but stay safe
		return false, nil
	}
	u.commit(newRoot)
	t.size.Add(-1)
	return true, nil
}

// remove returns the new subtree replacing n after deleting key.
func (t *Tree) remove(u *update, n *node, key uint64, removed *bool) *node {
	if n == nil || u.err != nil {
		return n
	}
	switch {
	case key < n.key:
		m := u.clone(n)
		if u.err != nil {
			return n
		}
		m.left = t.remove(u, n.left, key, removed)
		if !*removed {
			return n // miss: discard the speculative clone via u.fail
		}
		return m
	case key > n.key:
		m := u.clone(n)
		if u.err != nil {
			return n
		}
		m.right = t.remove(u, n.right, key, removed)
		if !*removed {
			return n
		}
		return m
	default:
		*removed = true
		u.replaced = append(u.replaced, n.obj)
		return t.merge(u, n.left, n.right)
	}
}

// merge joins two subtrees whose keys are ordered (all of a < all of b),
// cloning the nodes whose children change.
func (t *Tree) merge(u *update, a, b *node) *node {
	if a == nil || u.err != nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		m := u.clone(a)
		if u.err != nil {
			return a
		}
		m.right = t.merge(u, a.right, b)
		return m
	}
	m := u.clone(b)
	if u.err != nil {
		return b
	}
	m.left = t.merge(u, a, b.left)
	return m
}
