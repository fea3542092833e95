// Package rculist implements the RCU-protected linked list of the
// paper's Figure 1: readers traverse wait-free with no synchronization
// against writers; a writer updates an element by allocating a new
// object, copying, publishing the new version, and defer-freeing the old
// version through the allocator's deferred-free API.
//
// List spine nodes are small Go structs; element *payloads* live in
// slab-allocated objects from an alloc.Cache, so every update exercises
// exactly the allocation pattern the paper studies: one allocation plus
// one deferred free per update, with payload memory unsafe to reclaim
// until a grace period has elapsed.
package rculist

import (
	"sync"
	"sync/atomic"

	"prudence/internal/alloc"
	"prudence/internal/slabcore"
)

// ReadSync is the read-side synchronization surface the list needs:
// wait-free critical-section markers. Both internal/rcu's engine and
// internal/ebr's epochs satisfy it.
type ReadSync interface {
	ReadLock(cpu int)
	ReadUnlock(cpu int)
}

// node is a list spine element. The payload reference is immutable once
// the node is published; updates replace the whole node.
type node struct {
	key  uint64
	obj  slabcore.Ref
	next atomic.Pointer[node] //prudence:rcu wmu
}

// List is an RCU-protected singly linked list keyed by uint64.
// Readers (Lookup, Walk, Len) may run from any CPU concurrently with a
// writer. Writers (Insert, Update, Delete) are serialized by an internal
// mutex, as is conventional for RCU-protected structures.
type List struct {
	head  atomic.Pointer[node] //prudence:rcu wmu
	cache alloc.Cache
	rcu   ReadSync

	// wmu serializes writers; it is never held while calling into the
	// allocator's locked paths, but ranks below them for safety.
	//
	//prudence:lockorder 8
	wmu  sync.Mutex
	size atomic.Int64
}

// New creates a list whose element payloads are allocated from cache.
// r provides read-side protection (any registered sync.Backend).
func New(cache alloc.Cache, r ReadSync) *List {
	return &List{cache: cache, rcu: r}
}

// ValueSize returns the payload capacity of each element.
func (l *List) ValueSize() int { return l.cache.ObjectSize() }

// Len returns the number of elements (approximate under concurrency).
func (l *List) Len() int { return int(l.size.Load()) }

// Insert adds a key with the given value (truncated to ValueSize) at the
// head of the list. The caller runs on cpu. Duplicate keys are allowed;
// Lookup returns the most recently inserted.
func (l *List) Insert(cpu int, key uint64, value []byte) error {
	ref, err := l.cache.Malloc(cpu)
	if err != nil {
		return err
	}
	copy(ref.Bytes(), value)
	n := &node{key: key, obj: ref}

	l.wmu.Lock()
	n.next.Store(l.head.Load())
	l.head.Store(n) // publish
	l.size.Add(1)
	l.wmu.Unlock()
	return nil
}

// Lookup finds key and copies its value into buf, returning the number
// of bytes copied and whether the key was found. It runs inside a
// read-side critical section on cpu.
func (l *List) Lookup(cpu int, key uint64, buf []byte) (int, bool) {
	l.rcu.ReadLock(cpu)
	defer l.rcu.ReadUnlock(cpu)
	for n := l.head.Load(); n != nil; n = n.next.Load() {
		if n.key == key {
			return copy(buf, n.obj.Bytes()), true
		}
	}
	return 0, false
}

// Walk calls fn for each element's key and payload inside a single
// read-side critical section on cpu, stopping early if fn returns
// false. fn must not retain the payload slice.
func (l *List) Walk(cpu int, fn func(key uint64, value []byte) bool) {
	l.rcu.ReadLock(cpu)
	defer l.rcu.ReadUnlock(cpu)
	for n := l.head.Load(); n != nil; n = n.next.Load() {
		if !fn(n.key, n.obj.Bytes()) {
			return
		}
	}
}

// Update replaces the value of key following Figure 1: allocate a new
// object, copy the new value into it, publish a new node in place of the
// old one, and defer-free the old payload. Returns whether the key was
// found. Pre-existing readers may still be traversing the old node and
// reading the old payload; the deferred free protects them.
func (l *List) Update(cpu int, key uint64, value []byte) (bool, error) {
	ref, err := l.cache.Malloc(cpu)
	if err != nil {
		return false, err
	}
	copy(ref.Bytes(), value)

	l.wmu.Lock()
	prev, n := l.find(key)
	if n == nil {
		l.wmu.Unlock()
		l.cache.Free(cpu, ref)
		return false, nil
	}
	nn := &node{key: key, obj: ref}
	nn.next.Store(n.next.Load())
	if prev == nil {
		l.head.Store(nn)
	} else {
		prev.next.Store(nn)
	}
	l.wmu.Unlock()

	// The old node is unreachable for new readers; its payload waits
	// for pre-existing readers through the deferred free.
	l.cache.FreeDeferred(cpu, n.obj)
	return true, nil
}

// Delete unlinks key and defer-frees its payload. Returns whether the
// key was found.
func (l *List) Delete(cpu int, key uint64) (bool, error) {
	l.wmu.Lock()
	prev, n := l.find(key)
	if n == nil {
		l.wmu.Unlock()
		return false, nil
	}
	if prev == nil {
		l.head.Store(n.next.Load())
	} else {
		prev.next.Store(n.next.Load())
	}
	l.size.Add(-1)
	l.wmu.Unlock()

	l.cache.FreeDeferred(cpu, n.obj)
	return true, nil
}

// find returns the first node with key and its predecessor. Caller must
// hold wmu.
//
//prudence:requires wmu
func (l *List) find(key uint64) (prev, n *node) {
	for n = l.head.Load(); n != nil; prev, n = n, n.next.Load() {
		if n.key == key {
			return prev, n
		}
	}
	return nil, nil
}
