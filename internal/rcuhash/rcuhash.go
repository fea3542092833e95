// Package rcuhash implements an RCU-protected hash table over
// rculist buckets — the kind of read-mostly structure (route caches,
// dentry-like lookup tables) the paper's introduction motivates as the
// major user of synchronization via procrastination.
//
// Readers hash to a bucket and traverse it wait-free inside a read-side
// critical section. Writers serialize per bucket (via the bucket list's
// writer lock) and defer-free replaced payloads through the allocator.
// Resizing swaps in a new bucket array and rebuilds it with copy-update
// operations, defer-freeing every old payload — a deliberate burst of
// deferred frees akin to the table moves of resizable RCU hash tables.
package rcuhash

import (
	"sync"
	"sync/atomic"

	"prudence/internal/alloc"
	"prudence/internal/rculist"
)

// Sync is the synchronization surface the map needs: read-side markers
// plus a blocking grace-period wait for the resize teardown.
type Sync interface {
	rculist.ReadSync
	// SynchronizeOn blocks until a full grace period has elapsed,
	// treating the calling CPU as quiescent.
	SynchronizeOn(cpu int)
}

// Map is an RCU-protected hash map from uint64 keys to fixed-size
// values.
type Map struct {
	cache alloc.Cache
	rcu   Sync

	table atomic.Pointer[table] //prudence:rcu resizeMu
	// resizeMu serializes resizes; normal writers only take per-bucket
	// locks inside rculist. It ranks below the bucket writer locks
	// (rculist.List.wmu, rank 8) because Resize holds it across bucket
	// rebuild operations.
	//
	//prudence:lockorder 7
	resizeMu sync.Mutex
}

type table struct {
	buckets []*rculist.List
	mask    uint64
}

// New creates a map with the given power-of-two bucket count. r
// provides synchronization (any registered sync.Backend).
func New(cache alloc.Cache, r Sync, buckets int) *Map {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic("rcuhash: bucket count must be a positive power of two")
	}
	m := &Map{cache: cache, rcu: r}
	m.table.Store(newTable(cache, r, buckets))
	return m
}

func newTable(cache alloc.Cache, r Sync, buckets int) *table {
	t := &table{buckets: make([]*rculist.List, buckets), mask: uint64(buckets - 1)}
	for i := range t.buckets {
		t.buckets[i] = rculist.New(cache, r)
	}
	return t
}

// hash mixes the key (splitmix64 finalizer) so sequential keys spread.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (t *table) bucket(key uint64) *rculist.List {
	return t.buckets[hash(key)&t.mask]
}

// ValueSize returns the payload capacity of each entry.
func (m *Map) ValueSize() int { return m.cache.ObjectSize() }

// loadTable reads the table pointer outside a read-side critical
// section. That is safe for the pointer itself — the table struct and
// its bucket lists are GC-backed, so an old table stays valid however
// late it is dereferenced; only payload slices handed out by buckets
// need grace-period protection. Writer-path callers (Put, Delete)
// additionally rely on the single-resizer rule: writers quiesce during
// a resize, so they can never load a table mid-swap. Read paths that
// DO return payload data (Get, ForEach) load the pointer inside their
// critical sections instead and are checked.
func (m *Map) loadTable() *table {
	return m.table.Load() //prudence:nolint:rcucheck the bare pointer load is safe: tables are GC-backed and writers quiesce during resize (see comment)
}

// Buckets returns the current bucket count.
func (m *Map) Buckets() int { return len(m.loadTable().buckets) }

// Len returns the number of entries (approximate under concurrency).
func (m *Map) Len() int {
	t := m.loadTable()
	n := 0
	for _, b := range t.buckets {
		n += b.Len()
	}
	return n
}

// Get copies the value for key into buf inside a read-side critical
// section on cpu. Returns bytes copied and whether the key was present.
func (m *Map) Get(cpu int, key uint64, buf []byte) (int, bool) {
	// The table pointer must be dereferenced inside the critical
	// section: a resize tears the old table down only after a grace
	// period, so holding the read lock across load+lookup is what makes
	// the swap safe.
	m.rcu.ReadLock(cpu)
	defer m.rcu.ReadUnlock(cpu)
	return m.table.Load().bucket(key).Lookup(cpu, key, buf)
}

// Put inserts or replaces key's value. A replace defer-frees the old
// payload (copy-update); an insert allocates fresh.
func (m *Map) Put(cpu int, key uint64, value []byte) error {
	b := m.loadTable().bucket(key)
	found, err := b.Update(cpu, key, value)
	if err != nil || found {
		return err
	}
	return b.Insert(cpu, key, value)
}

// Delete removes key, defer-freeing its payload. Reports whether it was
// present.
func (m *Map) Delete(cpu int, key uint64) (bool, error) {
	return m.loadTable().bucket(key).Delete(cpu, key)
}

// ForEach visits every entry. Each bucket is traversed in its own
// read-side critical section on cpu; entries added or removed during
// iteration may or may not be seen. fn must not retain value.
func (m *Map) ForEach(cpu int, fn func(key uint64, value []byte) bool) {
	m.rcu.ReadLock(cpu)
	defer m.rcu.ReadUnlock(cpu)
	t := m.table.Load()
	for _, b := range t.buckets {
		stop := false
		b.Walk(cpu, func(k uint64, v []byte) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Resize rebuilds the map with a new power-of-two bucket count. Every
// entry is copied into a fresh allocation in the new table and the old
// payload defer-freed, producing the deferred-free burst characteristic
// of RCU hash-table moves. Concurrent readers keep working against
// whichever table they loaded; concurrent writers are not supported
// during a resize (writer-side callers must quiesce, as with relativistic
// hash tables' single-resizer rule).
func (m *Map) Resize(cpu int, buckets int) error {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic("rcuhash: bucket count must be a positive power of two")
	}
	m.resizeMu.Lock()
	defer m.resizeMu.Unlock()

	old := m.table.Load()
	nt := newTable(m.cache, m.rcu, buckets)

	// Phase 1: copy every entry into the new table. Readers still use
	// the old table and see a complete view throughout.
	type kv struct {
		k uint64
		v []byte
	}
	var entries []kv
	for _, b := range old.buckets {
		b.Walk(cpu, func(k uint64, v []byte) bool {
			cp := make([]byte, len(v))
			copy(cp, v)
			entries = append(entries, kv{k, cp})
			return true
		})
	}
	for i, e := range entries {
		if err := nt.bucket(e.k).Insert(cpu, e.k, e.v); err != nil {
			// Roll back the partially built table, freeing its copies.
			for _, done := range entries[:i] {
				if _, derr := nt.bucket(done.k).Delete(cpu, done.k); derr != nil {
					return derr
				}
			}
			return err
		}
	}

	// Phase 2: publish the new table, wait for pre-existing readers of
	// the old table to finish, then tear the old table down. The
	// payloads are defer-freed, covering any reader that captured a
	// payload slice just before the table swap.
	m.table.Store(nt)
	m.rcu.SynchronizeOn(cpu)
	for _, e := range entries {
		if _, err := old.bucket(e.k).Delete(cpu, e.k); err != nil {
			return err
		}
	}
	return nil
}
