package sync

import (
	stdsync "sync"
	"sync/atomic"
	"time"

	"prudence/internal/fault"
	"prudence/internal/metrics"
	"prudence/internal/stats"
)

// Policy is the scheme-specific half of a grace-period backend: what
// one advance of its grace-period clock waits for and what it
// publishes. Backends hand the Driver method values, so the hooks stay
// off their exported surface.
type Policy struct {
	// Interval is the minimum gap between advances (the pacing step).
	Interval time.Duration
	// WholeGap keeps a started gap whole: expedited demand skips the
	// gap only if it is already raised when the gap begins, not when a
	// kick arrives mid-gap. rcu paces this way, so its grace-period
	// interval still bounds how often an allocator starved for elapsed
	// cookies can force a grace period.
	WholeGap bool
	// Poll, when non-zero, makes waiters re-check Elapsed every Poll
	// instead of sleeping until the next advance: for schemes whose
	// cookies can elapse without one (hp's era hazards clear on
	// ReadUnlock).
	Poll time.Duration

	Snapshot func() Cookie
	Elapsed  func(Cookie) bool
	// Backlog reports retired work not yet reclaimed; a non-zero
	// backlog is grace-period demand in its own right.
	Backlog func() int64
	// Expedited, if non-nil, holds every advance on the expedited path
	// while it reports true (rcu under memory pressure).
	Expedited func() bool
	// Quiesce, if non-nil, blocks until the next advance is safe (every
	// CPU quiescent, every straggler waited out or neutralized). It
	// returns false once the driver stops.
	Quiesce func() bool
	// Advance publishes the next advance and reports whether it
	// completed a grace period (epoch schemes take two advances per
	// grace period; the driver paces each one).
	Advance func() bool
	// Park prepares cpu's owner to block in a grace-period wait and
	// must panic if cpu is inside a read-side critical section. Its
	// result is handed back to Unpark (nil: nothing to restore).
	Park   func(cpu int) bool
	Unpark func(cpu int, parked bool)
}

// Driver is the scheme-independent half of every grace-period backend.
// It owns grace-period demand (NeedGP/ExpediteGP and the kick that
// carries it), pacing, the blocking waits, shutdown, and the shared
// prudence_gp_* series; the scheme plugs in a Policy. Backends embed a
// Driver and call Start from their constructor.
type Driver struct {
	pol Policy

	// needGP is plain demand, consumed when a grace period starts;
	// expedite additionally skips the pacing gap and is consumed when
	// the grace period completes. Recording the flag, not delivering
	// the kick, is the liveness guarantee: the driver's timer fallback
	// re-reads it.
	needGP   atomic.Bool
	expedite atomic.Bool
	kick     chan struct{}

	gps               atomic.Uint64
	expeditedAdvances atomic.Uint64
	syncCalls         atomic.Uint64
	gpHist            stats.Histogram // grace-period start to completion

	// mu guards the advance broadcast: the first waiter of an advance
	// makes advanced, and the advance closes it and clears it, waking
	// everyone who fetched it. An advance nobody waits for allocates
	// nothing.
	//
	//prudence:lockorder 50
	mu       stdsync.Mutex
	advanced chan struct{} //prudence:guarded_by mu

	stopOnce stdsync.Once
	stop     chan struct{}
	wg       stdsync.WaitGroup
}

// Start installs the policy and starts the driver goroutine.
func (d *Driver) Start(p Policy) {
	d.pol = p
	d.kick = make(chan struct{}, 1)
	d.stop = make(chan struct{})
	d.wg.Add(1)
	go d.run()
}

// Stop shuts the driver goroutine down and releases blocked waiters.
// Idempotent; returns once the goroutine has exited.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// Stopped reports whether Stop has begun.
func (d *Driver) Stopped() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

// Done is closed when Stop begins, for the scheme's own goroutines.
func (d *Driver) Done() <-chan struct{} { return d.stop }

// Sleep pauses for dur on t and reports whether the driver is still
// running. t is the calling goroutine's own timer (see NewSleepTimer),
// re-armed on every call, so a polling loop allocates no timer per
// pass.
func (d *Driver) Sleep(t *time.Timer, dur time.Duration) bool {
	resetTimer(t, dur)
	select {
	case <-d.stop:
		return false
	case <-t.C:
		return true
	}
}

// NewSleepTimer returns a stopped timer for one goroutine's Sleep
// calls.
func NewSleepTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// NeedGP records demand for grace-period progress. Demand already
// recorded needs no second kick, which keeps per-free callers off the
// shared cache line.
func (d *Driver) NeedGP() {
	if d.needGP.Load() {
		return
	}
	d.needGP.Store(true)
	d.wake()
}

// ExpediteGP records expedited demand: the next grace period is driven
// with the pacing gaps skipped (never the scheme's safety wait). It
// implies NeedGP and is consumed when that grace period completes.
func (d *Driver) ExpediteGP() {
	if d.expedite.Load() && d.needGP.Load() {
		return
	}
	d.expedite.Store(true)
	d.needGP.Store(true)
	d.wake()
}

func (d *Driver) wake() {
	// Chaos: a lost wakeup drops the kick after demand is recorded; the
	// driver's timer fallback must recover.
	//prudence:fault_point
	if fault.Fire(fault.LostWakeup) {
		return
	}
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// GPsCompleted counts completed grace periods.
func (d *Driver) GPsCompleted() uint64 { return d.gps.Load() }

// ExpeditedAdvances counts advances that skipped the pacing gap.
func (d *Driver) ExpeditedAdvances() uint64 { return d.expeditedAdvances.Load() }

// SynchronizeCalls counts Synchronize and SynchronizeOn calls.
func (d *Driver) SynchronizeCalls() uint64 { return d.syncCalls.Load() }

// Synchronize blocks until a full grace period has elapsed.
//
//prudence:may_block
func (d *Driver) Synchronize() {
	d.syncCalls.Add(1)
	d.wait(d.pol.Snapshot(), time.Time{})
}

// SynchronizeOn is Synchronize with the calling CPU, which the caller
// owns and which must be outside any read-side critical section,
// treated as quiescent for the duration.
//
//prudence:may_block
func (d *Driver) SynchronizeOn(cpu int) {
	parked := d.pol.Park(cpu)
	d.Synchronize()
	if d.pol.Unpark != nil {
		d.pol.Unpark(cpu, parked)
	}
}

// WaitElapsedOnTimeout blocks until c elapses, treating cpu as
// SynchronizeOn does. It returns false if d passes or the driver stops
// first, so the allocator's OOM-delay path degrades to an
// out-of-memory report instead of a hang.
//
//prudence:may_block
func (d *Driver) WaitElapsedOnTimeout(cpu int, c Cookie, dur time.Duration) bool {
	parked := d.pol.Park(cpu)
	ok := d.wait(c, time.Now().Add(dur))
	if d.pol.Unpark != nil {
		d.pol.Unpark(cpu, parked)
	}
	return ok
}

// wait is the one blocking wait behind Synchronize, SynchronizeOn and
// WaitElapsedOnTimeout (deadline zero = none). It re-raises expedited
// demand on every pass: a blocked waiter is latency-sensitive, and the
// driver consumes demand at every grace-period start, so a cookie
// taken mid-period outlives the period that consumed its demand.
func (d *Driver) wait(c Cookie, deadline time.Time) bool {
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	var pollTimer *time.Timer
	if d.pol.Poll > 0 {
		pollTimer = NewSleepTimer()
		defer pollTimer.Stop()
	}
	for {
		// Fetch the broadcast before checking Elapsed, so an advance
		// between the check and the select still wakes us.
		var advanced <-chan struct{}
		var poll <-chan time.Time
		if pollTimer != nil {
			resetTimer(pollTimer, d.pol.Poll)
			poll = pollTimer.C
		} else {
			d.mu.Lock()
			if d.advanced == nil {
				d.advanced = make(chan struct{})
			}
			advanced = d.advanced
			d.mu.Unlock()
		}
		if d.pol.Elapsed(c) {
			return true
		}
		d.ExpediteGP()
		select {
		case <-d.stop:
			return d.pol.Elapsed(c)
		case <-timeout:
			return d.pol.Elapsed(c)
		case <-advanced:
		case <-poll:
		}
	}
}

// RegisterGPMetrics registers the series every backend shares, so
// dashboards read identically over any scheme.
func (d *Driver) RegisterGPMetrics(reg *metrics.Registry) {
	reg.CounterFunc("prudence_gp_completed_total", "Grace periods completed.",
		func() float64 { return float64(d.gps.Load()) })
	reg.RegisterHistogram("prudence_gp_duration_seconds",
		"Latency from grace-period start to completion.", &d.gpHist)
	reg.CounterFunc("prudence_sync_expedited_advances_total", "Advances taken on the expedited path (pacing gap skipped on demand).",
		func() float64 { return float64(d.expeditedAdvances.Load()) })
}

func (d *Driver) demand() bool {
	return d.needGP.Load() || (d.pol.Backlog != nil && d.pol.Backlog() > 0)
}

func (d *Driver) expedited() bool {
	return d.expedite.Load() || (d.pol.Expedited != nil && d.pol.Expedited())
}

// run is the grace-period kthread analogue: on demand it paces, waits
// for the policy's safety condition, and publishes advances until one
// completes a grace period.
func (d *Driver) run() {
	defer d.wg.Done()
	timer := time.NewTimer(d.pol.Interval)
	defer timer.Stop()
	last := time.Now()
	var start time.Time
	mid := false // inside a multi-advance grace period
	for {
		// Back-to-back expedited advances over quiescent CPUs block
		// nowhere, so stop is checked on every pass.
		if d.Stopped() {
			return
		}
		if !mid && !d.demand() {
			resetTimer(timer, d.pol.Interval)
			select {
			case <-d.stop:
				return
			case <-d.kick:
			case <-timer.C:
			}
			continue
		}
		// Pace the advance unless expedited; a kick arriving mid-gap
		// re-checks, so escalation takes effect at once.
		kick := d.kick
		if d.pol.WholeGap {
			kick = nil
		}
		expedited := d.expedited()
		for !expedited && time.Since(last) < d.pol.Interval {
			resetTimer(timer, d.pol.Interval-time.Since(last))
			select {
			case <-d.stop:
				return
			case <-kick:
			case <-timer.C:
			}
			expedited = d.expedited()
		}
		if expedited {
			d.expeditedAdvances.Add(1)
		}
		if !mid {
			// This grace period serves all demand raised so far.
			d.needGP.Store(false)
			start = time.Now()
		}
		if d.pol.Quiesce != nil && !d.pol.Quiesce() {
			return
		}
		// Chaos: stall after the policy's safety wait but before the
		// advance is published; every waiter sees it arbitrarily late.
		//prudence:fault_point
		if stall := fault.FireDelay(fault.GPStall); stall > 0 && !d.Sleep(timer, stall) {
			return
		}
		mid = !d.pol.Advance()
		last = time.Now()
		if !mid {
			d.expedite.Store(false)
			d.gpHist.Observe(last.Sub(start))
			d.gps.Add(1)
		}
		if d.pol.Poll == 0 {
			d.mu.Lock()
			if d.advanced != nil {
				close(d.advanced)
				d.advanced = nil
			}
			d.mu.Unlock()
		}
	}
}

// resetTimer re-arms t for dur whether or not it fired unread.
func resetTimer(t *time.Timer, dur time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(dur)
}
