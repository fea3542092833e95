package rcu

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"prudence/internal/vcpu"
)

// nopReclaimer counts deliveries.
type nopReclaimer struct{ n atomic.Int64 }

func (r *nopReclaimer) ReclaimRetired(int, any, uint64) { r.n.Add(1) }

// quiesceUntilElapsed asks for a grace period and reports quiescent
// states on the busy cpu until it has elapsed.
func quiesceUntilElapsed(t *testing.T, r *RCU, cpu int) {
	t.Helper()
	c := r.Snapshot()
	r.NeedGP()
	deadline := time.Now().Add(5 * time.Second)
	for !r.Elapsed(c) {
		r.QuiescentState(cpu)
		if time.Now().After(deadline) {
			t.Fatal("grace period never elapsed")
		}
	}
}

// TestRetireObjectAndInlineDrainDoNotAllocate pins the baseline's
// call_rcu path off the Go heap: a warm RetireObject, the grace period
// that makes it ready, and the inline batch that invokes it at the busy
// CPU's next quiescent state. Each run completes a grace period, so a
// per-batch scratch slice, a per-poll timer or a per-period allocation
// in the grace-period driver reads as at least one alloc per run.
func TestRetireObjectAndInlineDrainDoNotAllocate(t *testing.T) {
	m := vcpu.NewMachine(2)
	defer m.Stop()
	r := New(m, Options{
		Blimit:         10,
		ThrottleDelay:  time.Nanosecond, // every quiescent state may run a batch
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	})
	defer r.Stop()
	r.ExitIdle(0)
	defer r.EnterIdle(0)

	rec := &nopReclaimer{}
	obj := new(int)
	run := func() {
		r.RetireObject(0, rec, obj, 0)
		quiesceUntilElapsed(t, r, 0)
		time.Sleep(time.Microsecond) // pass the 1ns throttle window
		r.QuiescentState(0)          // the inline batch
	}
	for i := 0; i < 20; i++ {
		run() // warm the ring and the scratch
	}
	before := rec.n.Load()
	const runs = 200
	if avg := testing.AllocsPerRun(runs, run); avg >= 1 {
		t.Fatalf("RetireObject + grace period + inline drain allocates %.2f times per run, want < 1", avg)
	}
	if got := rec.n.Load() - before; got < runs {
		t.Fatalf("inline drains invoked %d callbacks over %d runs, want every one", got, runs)
	}
}

// TestGracePeriodsWithBusyCPUDoNotAllocate pins the grace-period
// driver off the Go heap while one CPU is busy and reporting quiescent
// states and the other idles: no per-period satisfied set, no per-poll
// timer, no advance broadcast nobody waits for.
func TestGracePeriodsWithBusyCPUDoNotAllocate(t *testing.T) {
	m := vcpu.NewMachine(2)
	defer m.Stop()
	r := New(m, Options{
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	})
	defer r.Stop()
	r.ExitIdle(0)
	defer r.EnterIdle(0)

	quiesceUntilElapsed(t, r, 0)
	before := r.GPsCompleted()
	const runs = 200
	if avg := testing.AllocsPerRun(runs, func() { quiesceUntilElapsed(t, r, 0) }); avg >= 1 {
		t.Fatalf("a grace period with one busy CPU allocates %.2f times, want < 1", avg)
	}
	if got := r.GPsCompleted() - before; got < runs {
		t.Fatalf("%d grace periods completed over %d runs", got, runs)
	}
}

// The backlog peak is sampled at grace-period completions and reads,
// not per RetireObject; a read still reports every callback a pinned
// reader holds back.
func TestMaxBacklogSeesHeldCallbacks(t *testing.T) {
	_, r := newEngine(t, 2)
	r.ExitIdle(1)
	r.ReadLock(1)
	defer func() {
		r.ReadUnlock(1)
		r.QuiescentState(1)
		r.EnterIdle(1)
	}()
	const n = 500
	rec := &nopReclaimer{}
	for i := 0; i < n; i++ {
		r.RetireObject(0, rec, nil, 0)
	}
	if st := r.Stats(); st.MaxBacklog < n {
		t.Fatalf("MaxBacklog = %d with %d callbacks held by a pinned reader, want >= %d", st.MaxBacklog, n, n)
	}
	if got := rec.n.Load(); got != 0 {
		t.Fatalf("%d callbacks invoked while the reader held the grace period", got)
	}
}

// A Barrier from a goroutine that owns no CPU completes whether the
// target CPUs are idle (their callbacks go to the processor) or busy
// (their owner invokes them at quiescent states).
func TestBarrierFromForeignGoroutineIdleTarget(t *testing.T) {
	_, r := newEngine(t, 2)
	// CPU 1 is busy and quiescing; CPU 0 stays idle.
	r.ExitIdle(1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				r.EnterIdle(1)
				return
			default:
				r.QuiescentState(1)
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	rec := &nopReclaimer{}
	for i := 0; i < 50; i++ {
		r.RetireObject(0, rec, nil, 0)
	}
	barrier := make(chan struct{})
	go func() {
		r.Barrier()
		close(barrier)
	}()
	select {
	case <-barrier:
	case <-time.After(10 * time.Second):
		t.Fatalf("Barrier hung with the target CPU idle; %s", r.DebugState())
	}
	if got := rec.n.Load(); got != 50 {
		t.Fatalf("Barrier returned with %d/50 callbacks invoked", got)
	}
}

// Callbacks a busy CPU left queued when it went idle are handed to the
// processor by EnterIdle itself: no further RetireObject is needed to
// wake it.
func TestEnterIdleHandsQueuedCallbacksToProcessor(t *testing.T) {
	m := vcpu.NewMachine(1)
	defer m.Stop()
	r := New(m, Options{
		Blimit:         1000,
		ThrottleDelay:  time.Hour, // one inline batch, then none
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	})
	defer r.Stop()
	r.ExitIdle(0)
	const n = 100
	rec := &nopReclaimer{}
	for i := 0; i < n; i++ {
		r.RetireObject(0, rec, nil, 0)
	}
	// The first quiescent state spends the inline throttle window on an
	// empty batch; the grace period then makes all n ready while the
	// busy CPU may invoke none of them.
	quiesceUntilElapsed(t, r, 0)
	time.Sleep(2 * time.Millisecond)
	if got := rec.n.Load(); got != 0 {
		t.Fatalf("%d callbacks invoked while the CPU was busy and throttled", got)
	}
	r.EnterIdle(0)
	deadline := time.Now().Add(5 * time.Second)
	for rec.n.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callbacks invoked after EnterIdle; %s", rec.n.Load(), n, r.DebugState())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCPUStatePadding pins cpuState to two 128-byte halves — the
// callback ring, then the owner's bookkeeping — so neighbouring CPUs'
// state never false-shares. The pad field must shrink or grow whenever
// fields change.
func TestCPUStatePadding(t *testing.T) {
	if s := unsafe.Sizeof(cpuState{}); s != 256 {
		t.Fatalf("cpuState is %d bytes, want 256 — resize its pad field", s)
	}
	if off := unsafe.Offsetof(cpuState{}.nesting); off != 128 {
		t.Fatalf("cpuState.nesting at offset %d, want 128 (right after the ring)", off)
	}
}
