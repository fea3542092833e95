package sync

import (
	stdsync "sync"
	"sync/atomic"
)

// Elapser answers whether a cookie's grace period has passed. Every
// Backend and GracePoller is one.
type Elapser interface {
	Elapsed(Cookie) bool
}

// ringMinCap is a new ring's first capacity; it doubles from there.
const ringMinCap = 64

// RetireRing is one CPU's retirement list, shaped like the kernel's
// rcu_segcblist: a FIFO of cookie-stamped entries appended in Snapshot
// order, so the entries whose grace period has elapsed are always a
// prefix. rcu's callback lists and RetireQueue's limbo bags are both
// one RetireRing per CPU.
//
// An enqueue writes only the ring's own memory: the slot and the
// queued total. The ring is padded to 128 bytes (two cache lines, for
// adjacent-line prefetch) so neighbouring CPUs' rings never share a
// line. It allocates nothing once warm: a full ring doubles, and
// TakeReady advances the head rather than slicing it away, so the
// capacity the drain frees is the capacity the next enqueue reuses.
//
//prudence:padded 128
type RetireRing struct {
	// mu guards the slots. The CPU's owner pushes and either the owner
	// or a drain goroutine takes; Barrier sentinels may push from any
	// goroutine. It is released before any reclaimer runs (reclaimers
	// take allocator locks).
	//
	//prudence:lockorder 40
	mu   stdsync.Mutex
	buf  []Retired //prudence:guarded_by mu
	head int       //prudence:guarded_by mu
	n    int       //prudence:guarded_by mu
	// queued counts entries ever pushed, taken entries ever handed out
	// by TakeReady, and invoked entries the caller reported with Done.
	// queued and taken move under mu, so a reader that loads taken
	// (or invoked) before queued never sees it ahead.
	queued  atomic.Uint64
	taken   atomic.Uint64
	invoked atomic.Uint64
	_       [128 - 8 /* mu */ - 24 /* buf */ - 2*8 /* head, n */ - 3*8] /* counters */ byte
}

// Push appends r. Callers stamp r.Cookie from Snapshot before the push;
// a cookie smaller than its predecessor's (two pushers racing) only
// delays it, because TakeReady stops at the first unelapsed entry.
func (q *RetireRing) Push(r Retired) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
	q.queued.Add(1)
	q.mu.Unlock()
}

// grow doubles the full ring, unwrapping it to start at slot 0.
//
//prudence:requires RetireRing.mu
func (q *RetireRing) grow() {
	buf := make([]Retired, max(2*len(q.buf), ringMinCap))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// TakeReady moves up to limit entries from the front of the ring whose
// cookies gp reports elapsed into dst[:0] and returns them. dst is
// scratch the caller owns and reuses, so a warm drain allocates
// nothing. The caller invokes the entries, clears them so the scratch
// keeps no payload alive, and reports them with Done.
func (q *RetireRing) TakeReady(dst []Retired, limit int, gp Elapser) []Retired {
	dst = dst[:0]
	q.mu.Lock()
	for len(dst) < limit && q.n > 0 && gp.Elapsed(q.buf[q.head].Cookie) {
		dst = append(dst, q.buf[q.head])
		q.buf[q.head] = Retired{}
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
	}
	q.taken.Add(uint64(len(dst)))
	q.mu.Unlock()
	return dst
}

// Done reports n taken entries as invoked.
func (q *RetireRing) Done(n int) { q.invoked.Add(uint64(n)) }

// Len returns the number of entries in the ring (pushed, not taken).
func (q *RetireRing) Len() int64 {
	taken := q.taken.Load()
	return int64(q.queued.Load() - taken)
}

// Pending returns the number of entries pushed but not yet invoked.
func (q *RetireRing) Pending() int64 {
	invoked := q.invoked.Load()
	return int64(q.queued.Load() - invoked)
}

// Queued returns the number of entries ever pushed.
func (q *RetireRing) Queued() uint64 { return q.queued.Load() }

// Invoked returns the number of entries ever reported with Done.
func (q *RetireRing) Invoked() uint64 { return q.invoked.Load() }
