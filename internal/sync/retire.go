package sync

import (
	stdsync "sync"
	"sync/atomic"
	"time"

	"prudence/internal/metrics"
)

// GracePoller is the slice of Backend a RetireQueue drives reclamation
// with: stamp retirements with Snapshot, free them once Elapsed, keep
// demand raised with NeedGP while work is pending, and escalate to
// ExpediteGP when the backlog shows the updaters outrunning the drain.
type GracePoller interface {
	Snapshot() Cookie
	Elapsed(Cookie) bool
	NeedGP()
	ExpediteGP()
}

// QueueOptions tunes a RetireQueue. Zero values take defaults.
type QueueOptions struct {
	// Batch bounds invocations per burst at the throttled rate
	// (default 32, the blimit analogue).
	Batch int
	// ExpeditedBatch is the burst bound under memory pressure or a
	// deep backlog (default 8 × Batch, the ExpeditedBlimit analogue).
	ExpeditedBatch int
	// Qhimark is the backlog above which batch limits come off
	// entirely and the queue raises expedited grace-period demand on
	// every drain pass (default 64 × Batch; negative disables). Past
	// half of it, drains already run at the expedited batch size with
	// no inter-burst delay — the backlog-proportional escalation that
	// keeps the fastest updaters from outrunning the drain.
	Qhimark int
	// Delay is the pause between bursts at the throttled rate (0 =
	// none).
	Delay time.Duration
	// Poll is the drainer's fallback re-check period (default 50µs).
	Poll time.Duration
}

func (o QueueOptions) withDefaults() QueueOptions {
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.ExpeditedBatch <= 0 {
		o.ExpeditedBatch = 8 * o.Batch
	}
	if o.Qhimark == 0 {
		o.Qhimark = 64 * o.Batch
	}
	if o.Delay < 0 {
		o.Delay = 0
	}
	if o.Poll <= 0 {
		o.Poll = 50 * time.Microsecond
	}
	return o
}

// Retired is one RetireObject payload stamped with the cookie it must
// outwait; every backend's retire lists hold these.
type Retired struct {
	Cookie Cookie
	Rec    Reclaimer
	Obj    any
	Idx    uint64
	CPU    int32
}

// Reclaim hands the payload to its reclaimer.
func (r *Retired) Reclaim() { r.Rec.ReclaimRetired(int(r.CPU), r.Obj, r.Idx) }

// rqShard is one CPU's limbo bag. Entries are appended in Snapshot
// order, so the bag is cookie-sorted and the drainer frees a prefix.
type rqShard struct {
	// mu guards the bag only; it is released before any reclaimer
	// runs (reclaimers take allocator locks).
	//
	//prudence:lockorder 42
	mu  stdsync.Mutex
	bag []Retired //prudence:guarded_by mu
	// burst is drain-side scratch for the ready prefix, reused across
	// bursts so steady-state draining allocates nothing. Only the
	// drain side touches it (the drainer goroutine while it runs, the
	// stopping goroutine after the drainer has exited), never under mu.
	burst []Retired
	// seq counts entries ever enqueued; done counts entries ever
	// invoked. Barrier waits for done to reach its snapshot of seq —
	// sound because the bag drains FIFO.
	seq  atomic.Uint64
	done atomic.Uint64
}

// RetireQueue gives the epoch engine (ebr, nebr) its per-object
// retirement hook: per-CPU cookie-stamped limbo bags drained by one
// background goroutine as grace periods elapse. It is the moral
// equivalent of internal/rcu's callback lists: batching, throttling,
// barriers and pressure expediting. Drain batches scale with the
// backlog (see QueueOptions.Qhimark) so a sustained deferred-free storm
// cannot grow the limbo bags without bound — the nebr×slub endurance
// OOM class.
type RetireQueue struct {
	gp     GracePoller
	shards []*rqShard

	opts      QueueOptions
	pressured atomic.Bool

	pending    atomic.Int64
	maxBacklog atomic.Int64
	// expeditedDrains counts bursts that ran above the throttled batch
	// size (pressure, deep backlog, or past qhimark).
	expeditedDrains atomic.Uint64

	kick     chan struct{}
	stopOnce stdsync.Once
	stopCh   chan struct{}
	wg       stdsync.WaitGroup
}

// NewRetireQueue creates and starts a queue with one limbo bag per CPU.
func NewRetireQueue(gp GracePoller, cpus int, opts QueueOptions) *RetireQueue {
	q := &RetireQueue{
		gp:     gp,
		shards: make([]*rqShard, cpus),
		opts:   opts.withDefaults(),
		kick:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	for i := range q.shards {
		q.shards[i] = &rqShard{}
	}
	q.wg.Add(1)
	go q.drainer()
	return q
}

// RetireObject enqueues the payload on cpu's limbo bag, stamped with
// the current grace-period cookie, and raises demand so the epoch
// machinery moves — expedited demand once the backlog has grown past
// the qhimark. The enqueue allocates nothing once the bag's capacity
// is warm.
func (q *RetireQueue) RetireObject(cpu int, rec Reclaimer, obj any, idx uint64) {
	q.enqueue(cpu, Retired{Rec: rec, Obj: obj, Idx: idx, CPU: int32(cpu)})
}

func (q *RetireQueue) enqueue(cpu int, r Retired) {
	s := q.shards[cpu]
	r.Cookie = q.gp.Snapshot()
	s.mu.Lock()
	s.bag = append(s.bag, r)
	s.mu.Unlock()
	s.seq.Add(1)
	n := q.pending.Add(1)
	if n > q.maxBacklog.Load() {
		q.maxBacklog.Store(n)
	}
	if q.opts.Qhimark > 0 && n > int64(q.opts.Qhimark) {
		q.gp.ExpediteGP()
	} else {
		q.gp.NeedGP()
	}
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// Pending returns the number of retirements not yet reclaimed.
func (q *RetireQueue) Pending() int64 { return q.pending.Load() }

// MaxBacklog returns the high-water mark of Pending.
func (q *RetireQueue) MaxBacklog() int64 { return q.maxBacklog.Load() }

// ExpeditedDrains returns how many bursts ran above the throttled batch
// size.
func (q *RetireQueue) ExpeditedDrains() uint64 { return q.expeditedDrains.Load() }

// effectiveBatch returns the per-burst invocation bound for the current
// backlog: the throttled batch normally, the expedited batch under
// pressure or past half the qhimark, and the whole backlog once the
// qhimark itself is crossed (rcu's "limits come off entirely").
func (q *RetireQueue) effectiveBatch() (limit int, expedited bool) {
	limit = q.opts.Batch
	backlog := int(q.pending.Load())
	if q.pressured.Load() {
		limit, expedited = q.opts.ExpeditedBatch, true
	}
	if q.opts.Qhimark > 0 && backlog > q.opts.Qhimark/2 {
		limit, expedited = q.opts.ExpeditedBatch, true
		if backlog > q.opts.Qhimark {
			limit = backlog
		}
	}
	return limit, expedited
}

// SetPressure switches the queue between throttled draining (batch +
// delay) and expedited draining (larger batches, no inter-burst delay),
// mirroring the kernel's blimit lift under memory pressure.
func (q *RetireQueue) SetPressure(under bool) {
	q.pressured.Store(under)
	if under {
		q.gp.ExpediteGP()
		select {
		case q.kick <- struct{}{}:
		default:
		}
	}
}

// Barrier blocks until every retirement accepted before the call has
// been invoked, or the queue stops. Demand is re-raised on every poll:
// the epoch machinery may clear it while our cookies are still
// outstanding (the lost-demand class PR 2 fixed in rcu). A blocked
// barrier is latency-sensitive by definition, so the demand it raises
// is expedited.
func (q *RetireQueue) Barrier() {
	targets := make([]uint64, len(q.shards))
	for i, s := range q.shards {
		targets[i] = s.seq.Load()
	}
	var poll *time.Timer
	for {
		reached := true
		for i, s := range q.shards {
			if s.done.Load() < targets[i] {
				reached = false
				break
			}
		}
		if reached {
			return
		}
		q.gp.ExpediteGP()
		select {
		case q.kick <- struct{}{}:
		default:
		}
		if poll == nil {
			poll = time.NewTimer(q.opts.Poll)
			defer poll.Stop()
		} else {
			resetTimer(poll, q.opts.Poll)
		}
		select {
		case <-q.stopCh:
			return
		case <-poll.C:
		}
	}
}

// Stop shuts the drainer down. Entries whose grace period has already
// elapsed are invoked (so a final Synchronize+Stop does not strand
// reclaimable memory); the rest are dropped, as on rcu.Stop.
func (q *RetireQueue) Stop() {
	q.stopOnce.Do(func() {
		close(q.stopCh)
		q.wg.Wait()
		for i := range q.shards {
			q.drainShard(i, nil)
		}
	})
}

// RegisterMetrics registers the queue's observability series under the
// scheme-independent prudence_sync_retire_* names, so retire-drain
// behaviour reads identically over every backend built on the queue.
func (q *RetireQueue) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("prudence_sync_retire_backlog", "Retired objects enqueued but not yet invoked.",
		func() float64 { return float64(q.pending.Load()) })
	reg.GaugeFunc("prudence_sync_retire_backlog_peak", "High-water mark of the retire backlog.",
		func() float64 { return float64(q.maxBacklog.Load()) })
	reg.GaugeFunc("prudence_sync_retire_batch_size", "Current effective drain batch bound (backlog- and pressure-scaled).",
		func() float64 { l, _ := q.effectiveBatch(); return float64(l) })
	reg.CounterFunc("prudence_sync_retire_expedited_drains_total", "Drain bursts run above the throttled batch size.",
		func() float64 { return float64(q.expeditedDrains.Load()) })
}

func (q *RetireQueue) drainer() {
	defer q.wg.Done()
	// One timer serves both the poll and drainShard's inter-burst
	// delay: a fresh time.After per pass would allocate on every poll
	// of an idle queue.
	timer := time.NewTimer(q.opts.Poll)
	defer timer.Stop()
	for {
		select {
		case <-q.stopCh:
			return
		case <-q.kick:
		case <-timer.C:
		}
		for i := range q.shards {
			q.drainShard(i, timer)
		}
		if q.pending.Load() > 0 {
			// Keep demand raised until the backlog clears: the epoch
			// machinery clears demand at grace-period boundaries, and
			// entries stamped just before a boundary outlive it. A
			// backlog past the qhimark means the drain is losing the
			// race — escalate.
			if q.opts.Qhimark > 0 && q.pending.Load() > int64(q.opts.Qhimark) {
				q.gp.ExpediteGP()
			} else {
				q.gp.NeedGP()
			}
		}
		resetTimer(timer, q.opts.Poll)
	}
}

// drainShard invokes the elapsed prefix of shard i's bag in bounded
// bursts, sleeping delay on the drainer's timer between bursts only at
// the throttled rate (never when pressured or backlogged past
// qhimark/2). A nil timer means the queue is stopping: drain without
// pausing.
func (q *RetireQueue) drainShard(i int, timer *time.Timer) {
	s := q.shards[i]
	for {
		limit, expedited := q.effectiveBatch()
		s.mu.Lock()
		ready := 0
		for ready < len(s.bag) && ready < limit && q.gp.Elapsed(s.bag[ready].Cookie) {
			ready++
		}
		if cap(s.burst) < ready {
			s.burst = make([]Retired, ready)
		}
		burst := s.burst[:ready]
		copy(burst, s.bag[:ready])
		// Compact in place instead of re-slicing the front away:
		// s.bag = s.bag[ready:] would strand the drained prefix's
		// capacity and force the enqueue side to reallocate forever.
		n := copy(s.bag, s.bag[ready:])
		tail := s.bag[n:]
		for i := range tail {
			tail[i] = Retired{} // drop payload references
		}
		s.bag = s.bag[:n]
		s.mu.Unlock()
		if ready == 0 {
			return
		}
		if expedited {
			q.expeditedDrains.Add(1)
		}
		for i := range burst {
			burst[i].Reclaim()
			burst[i] = Retired{}
		}
		s.done.Add(uint64(ready))
		q.pending.Add(-int64(ready))
		if timer != nil && q.opts.Delay > 0 && !expedited {
			resetTimer(timer, q.opts.Delay)
			select {
			case <-q.stopCh:
			case <-timer.C:
			}
		}
	}
}
