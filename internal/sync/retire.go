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

// RetireQueue gives the epoch engine (ebr, nebr) its per-object
// retirement hook: one RetireRing per CPU, drained by one background
// goroutine as grace periods elapse. It is the moral equivalent of
// internal/rcu's callback lists, built on the same ring: batching,
// throttling, barriers and pressure expediting. Drain batches scale
// with the backlog (see QueueOptions.Qhimark) so a sustained
// deferred-free storm cannot grow the rings without bound — the
// nebr×slub endurance OOM class.
type RetireQueue struct {
	gp    GracePoller
	rings []RetireRing

	opts      QueueOptions
	pressured atomic.Bool

	// maxBacklog is the high-water mark of Pending, raised by every
	// enqueue from the backlog sum its qhimark check takes anyway.
	maxBacklog atomic.Int64
	// expeditedDrains counts bursts that ran above the throttled batch
	// size (pressure, deep backlog, or past qhimark).
	expeditedDrains atomic.Uint64
	// burst is drain-side scratch for a ring's ready prefix, reused so
	// steady-state draining allocates nothing. Only the drain side
	// touches it: the drainer goroutine while it runs, the stopping
	// goroutine after it has exited.
	burst []Retired

	// kick wakes the drainer early (pressure, Barrier). Enqueues do not
	// kick: nothing is reclaimable until a grace period elapses, and
	// the drainer's poll finds it then.
	kick     chan struct{}
	stopOnce stdsync.Once
	stopCh   chan struct{}
	wg       stdsync.WaitGroup
}

// NewRetireQueue creates and starts a queue with one ring per CPU.
func NewRetireQueue(gp GracePoller, cpus int, opts QueueOptions) *RetireQueue {
	q := &RetireQueue{
		gp:     gp,
		rings:  make([]RetireRing, cpus),
		opts:   opts.withDefaults(),
		kick:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	q.wg.Add(1)
	go q.drainer()
	return q
}

// RetireObject enqueues the payload on cpu's ring, stamped with the
// current grace-period cookie, and raises demand so the epoch machinery
// moves — expedited demand once the backlog has grown past the
// qhimark. The enqueue allocates nothing once the ring is warm.
func (q *RetireQueue) RetireObject(cpu int, rec Reclaimer, obj any, idx uint64) {
	q.rings[cpu].Push(Retired{Cookie: q.gp.Snapshot(), Rec: rec, Obj: obj, Idx: idx, CPU: int32(cpu)})
	n := raiseMax(&q.maxBacklog, q.Pending())
	if q.opts.Qhimark > 0 && n > int64(q.opts.Qhimark) {
		q.gp.ExpediteGP()
	} else {
		q.gp.NeedGP()
	}
}

// Pending returns the number of retirements not yet reclaimed.
func (q *RetireQueue) Pending() int64 {
	var n int64
	for i := range q.rings {
		n += q.rings[i].Pending()
	}
	return n
}

// MaxBacklog returns the high-water mark of Pending.
func (q *RetireQueue) MaxBacklog() int64 { return q.maxBacklog.Load() }

// raiseMax lifts *m to at least v and returns v.
func raiseMax(m *atomic.Int64, v int64) int64 {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return v
		}
	}
}

// ExpeditedDrains returns how many bursts ran above the throttled batch
// size.
func (q *RetireQueue) ExpeditedDrains() uint64 { return q.expeditedDrains.Load() }

// effectiveBatch returns the per-burst invocation bound for the current
// backlog: the throttled batch normally, the expedited batch under
// pressure or past half the qhimark, and the whole backlog once the
// qhimark itself is crossed (rcu's "limits come off entirely").
func (q *RetireQueue) effectiveBatch() (limit int, expedited bool) {
	limit = q.opts.Batch
	backlog := int(q.Pending())
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
	targets := make([]uint64, len(q.rings))
	for i := range q.rings {
		targets[i] = q.rings[i].Queued()
	}
	var poll *time.Timer
	for {
		reached := true
		for i := range q.rings {
			if q.rings[i].Invoked() < targets[i] {
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
		for i := range q.rings {
			q.drainRing(&q.rings[i], nil)
		}
	})
}

// RegisterMetrics registers the queue's observability series under the
// scheme-independent prudence_sync_retire_* names, so retire-drain
// behaviour reads identically over every backend built on the queue.
func (q *RetireQueue) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("prudence_sync_retire_backlog", "Retired objects enqueued but not yet invoked.",
		func() float64 { return float64(q.Pending()) })
	reg.GaugeFunc("prudence_sync_retire_backlog_peak", "High-water mark of the retire backlog.",
		func() float64 { return float64(q.maxBacklog.Load()) })
	reg.GaugeFunc("prudence_sync_retire_batch_size", "Current effective drain batch bound (backlog- and pressure-scaled).",
		func() float64 { l, _ := q.effectiveBatch(); return float64(l) })
	reg.CounterFunc("prudence_sync_retire_expedited_drains_total", "Drain bursts run above the throttled batch size.",
		func() float64 { return float64(q.expeditedDrains.Load()) })
}

func (q *RetireQueue) drainer() {
	defer q.wg.Done()
	// One timer serves both the poll and drainRing's inter-burst
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
		for i := range q.rings {
			q.drainRing(&q.rings[i], timer)
		}
		if pending := q.Pending(); pending > 0 {
			// Keep demand raised until the backlog clears: the epoch
			// machinery clears demand at grace-period boundaries, and
			// entries stamped just before a boundary outlive it. A
			// backlog past the qhimark means the drain is losing the
			// race — escalate.
			if q.opts.Qhimark > 0 && pending > int64(q.opts.Qhimark) {
				q.gp.ExpediteGP()
			} else {
				q.gp.NeedGP()
			}
		}
		resetTimer(timer, q.opts.Poll)
	}
}

// drainRing invokes the elapsed prefix of ring in bounded bursts,
// sleeping delay on the drainer's timer between bursts only at the
// throttled rate (never when pressured or backlogged past qhimark/2).
// A nil timer means the queue is stopping: drain without pausing.
func (q *RetireQueue) drainRing(ring *RetireRing, timer *time.Timer) {
	for {
		limit, expedited := q.effectiveBatch()
		burst := ring.TakeReady(q.burst, limit, q.gp)
		q.burst = burst
		if len(burst) == 0 {
			return
		}
		if expedited {
			q.expeditedDrains.Add(1)
		}
		for i := range burst {
			burst[i].Reclaim()
		}
		clear(burst) // drop payload references
		ring.Done(len(burst))
		if timer != nil && q.opts.Delay > 0 && !expedited {
			resetTimer(timer, q.opts.Delay)
			select {
			case <-q.stopCh:
			case <-timer.C:
			}
		}
	}
}
