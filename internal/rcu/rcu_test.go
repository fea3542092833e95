package rcu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gsync "prudence/internal/sync"
	"prudence/internal/sync/synctest"
	"prudence/internal/vcpu"
)

// call queues fn as an RCU callback: fn rides as the payload of a
// reclaimer that just runs it.
func (r *RCU) call(cpu int, fn func()) { r.RetireObject(cpu, synctest.Func, fn, 0) }

// waitElapsed blocks until c elapses, from a goroutine that owns no CPU.
func waitElapsed(r *RCU, c gsync.Cookie) {
	for !r.Elapsed(c) && !r.Stopped() {
		r.ExpediteGP()
		time.Sleep(20 * time.Microsecond)
	}
}

// fastOpts keeps grace periods quick so tests stay snappy.
func fastOpts() Options {
	return Options{
		Blimit:         10,
		ThrottleDelay:  50 * time.Microsecond,
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	}
}

func newEngine(t *testing.T, cpus int) (*vcpu.Machine, *RCU) {
	t.Helper()
	m := vcpu.NewMachine(cpus)
	r := New(m, fastOpts())
	t.Cleanup(func() {
		r.Stop()
		m.Stop()
	})
	return m, r
}

func TestSynchronizeCompletesWithIdleCPUs(t *testing.T) {
	_, r := newEngine(t, 4)
	done := make(chan struct{})
	go func() {
		r.Synchronize()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize stalled with all CPUs idle")
	}
	if r.GPsCompleted() == 0 {
		t.Fatal("no grace period recorded")
	}
}

func TestGracePeriodWaitsForReader(t *testing.T) {
	_, r := newEngine(t, 2)
	r.ExitIdle(0)
	r.ReadLock(0)

	cookie := r.Snapshot()
	released := make(chan struct{})
	synced := make(chan struct{})
	go func() {
		waitElapsed(r, cookie)
		close(synced)
	}()
	// The grace period must not complete while CPU 0 is in a read-side
	// critical section and never quiescing.
	select {
	case <-synced:
		t.Fatal("grace period completed despite active reader")
	case <-time.After(20 * time.Millisecond):
	}
	go func() {
		r.ReadUnlock(0)
		r.QuiescentState(0)
		r.EnterIdle(0)
		close(released)
	}()
	<-released
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("grace period never completed after reader exit")
	}
}

func TestElapsedMonotoneAndSnapshotFresh(t *testing.T) {
	_, r := newEngine(t, 1)
	c1 := r.Snapshot()
	if r.Elapsed(c1) {
		t.Fatal("fresh cookie already elapsed")
	}
	r.Synchronize()
	if !r.Elapsed(c1) {
		t.Fatal("cookie not elapsed after Synchronize")
	}
	c2 := r.Snapshot()
	if r.Elapsed(c2) {
		t.Fatal("new cookie elapsed without new grace period")
	}
}

func TestCallbackInvokedAfterGracePeriod(t *testing.T) {
	_, r := newEngine(t, 2)
	var invoked atomic.Bool
	r.call(0, func() { invoked.Store(true) })
	deadline := time.After(5 * time.Second)
	for !invoked.Load() {
		select {
		case <-deadline:
			t.Fatal("callback never invoked")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	if got := r.PendingCallbacks(); got != 0 {
		t.Fatalf("PendingCallbacks = %d, want 0", got)
	}
	st := r.Stats()
	if st.CallbacksQueued != 1 || st.CallbacksInvoked != 1 {
		t.Fatalf("stats queued=%d invoked=%d, want 1/1", st.CallbacksQueued, st.CallbacksInvoked)
	}
}

func TestCallbackOrderingFIFOPerCPU(t *testing.T) {
	_, r := newEngine(t, 1)
	const n = 50
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		r.call(0, func() {
			mu.Lock()
			order = append(order, i)
			if len(order) == n {
				close(done)
			}
			mu.Unlock()
		})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callbacks did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("callback order[%d] = %d, want FIFO", i, v)
		}
	}
}

func TestThrottlingBoundsBatchSize(t *testing.T) {
	m := vcpu.NewMachine(1)
	defer m.Stop()
	r := New(m, Options{
		Blimit:         5,
		ThrottleDelay:  2 * time.Millisecond,
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	})
	defer r.Stop()

	const n = 25
	var invoked atomic.Int32
	for i := 0; i < n; i++ {
		r.call(0, func() { invoked.Add(1) })
	}
	// Wait for the grace period, then sample shortly after the first
	// batch: with blimit 5 and 2ms delay, all 25 can't be done quickly.
	r.Synchronize()
	time.Sleep(1 * time.Millisecond)
	if got := invoked.Load(); got > 15 {
		t.Fatalf("processed %d callbacks well before throttle allows", got)
	}
	deadline := time.After(10 * time.Second)
	for invoked.Load() != n {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d callbacks processed", invoked.Load(), n)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if st := r.Stats(); st.ThrottledBatches < 5 {
		t.Fatalf("ThrottledBatches = %d, want >= 5 for 25 cbs at blimit 5", st.ThrottledBatches)
	}
}

func TestPressureExpeditesProcessing(t *testing.T) {
	m := vcpu.NewMachine(1)
	defer m.Stop()
	r := New(m, Options{
		Blimit:          2,
		ExpeditedBlimit: 1000,
		ThrottleDelay:   10 * time.Millisecond,
		MinGPInterval:   50 * time.Microsecond,
		QSPollInterval:  10 * time.Microsecond,
	})
	defer r.Stop()

	r.SetPressure(true)
	const n = 200
	var invoked atomic.Int32
	for i := 0; i < n; i++ {
		r.call(0, func() { invoked.Add(1) })
	}
	deadline := time.After(5 * time.Second)
	for invoked.Load() != n {
		select {
		case <-deadline:
			t.Fatalf("expedited processing finished only %d/%d", invoked.Load(), n)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if st := r.Stats(); st.ExpeditedBatches == 0 {
		t.Fatal("no expedited batches recorded under pressure")
	}
}

func TestQuiescentStateNoOpInsideReader(t *testing.T) {
	_, r := newEngine(t, 1)
	r.ExitIdle(0)
	defer r.EnterIdle(0)
	r.ReadLock(0)
	defer r.ReadUnlock(0)
	before := r.Stats().QuiescentReports
	r.QuiescentState(0)
	if got := r.Stats().QuiescentReports; got != before {
		t.Fatalf("QuiescentState inside reader reported (reports %d -> %d)", before, got)
	}
}

func TestUnbalancedReadUnlockPanics(t *testing.T) {
	_, r := newEngine(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced ReadUnlock did not panic")
		}
	}()
	r.ReadUnlock(0)
}

func TestEnterIdleInsideReaderPanics(t *testing.T) {
	_, r := newEngine(t, 1)
	r.ExitIdle(0)
	r.ReadLock(0)
	defer r.ReadUnlock(0)
	defer func() {
		if recover() == nil {
			t.Fatal("EnterIdle inside reader did not panic")
		}
	}()
	r.EnterIdle(0)
}

func TestNestedReaders(t *testing.T) {
	_, r := newEngine(t, 1)
	r.ExitIdle(0)
	r.ReadLock(0)
	r.ReadLock(0)
	r.ReadUnlock(0)
	if !r.ReadHeld(0) {
		t.Fatal("outer reader lost after inner unlock")
	}
	cookie := r.Snapshot()
	done := make(chan struct{})
	go func() {
		waitElapsed(r, cookie)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("grace period elapsed inside nested reader")
	case <-time.After(10 * time.Millisecond):
	}
	r.ReadUnlock(0)
	r.QuiescentState(0)
	r.EnterIdle(0)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("grace period stalled after nested readers finished")
	}
}

// The canonical RCU usage pattern: a writer unpublishes a value, waits a
// grace period, and only then may readers no longer observe it.
func TestWriterReaderIntegration(t *testing.T) {
	m, r := newEngine(t, 4)
	var shared atomic.Pointer[int]
	v := 42
	shared.Store(&v)

	var stale atomic.Int64
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for c := 1; c < m.NumCPU(); c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			r.ExitIdle(cpu)
			defer r.EnterIdle(cpu)
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				r.ReadLock(cpu)
				if p := shared.Load(); p != nil && *p != 42 {
					stale.Add(1)
				}
				r.ReadUnlock(cpu)
				r.QuiescentState(cpu)
			}
		}(c)
	}
	time.Sleep(2 * time.Millisecond)
	shared.Store(nil) // unpublish
	r.Synchronize()
	// After the grace period, the writer may reclaim; readers that ran
	// before unpublish have finished. Mutating v now must be invisible.
	v = -1
	time.Sleep(2 * time.Millisecond)
	close(stopReaders)
	wg.Wait()
	if stale.Load() != 0 {
		t.Fatalf("readers observed reclaimed value %d times", stale.Load())
	}
}

func TestStopDrainsElapsedCallbacks(t *testing.T) {
	m := vcpu.NewMachine(1)
	defer m.Stop()
	r := New(m, Options{
		Blimit:         1,
		ThrottleDelay:  50 * time.Millisecond, // would take
		MinGPInterval:  50 * time.Microsecond,
		QSPollInterval: 10 * time.Microsecond,
	})
	var invoked atomic.Int32
	const n = 10
	for i := 0; i < n; i++ {
		r.call(0, func() { invoked.Add(1) })
	}
	r.Synchronize() // grace period elapsed; callbacks throttled
	r.Stop()        // must drain ready callbacks
	if got := invoked.Load(); got != n {
		t.Fatalf("Stop drained %d/%d elapsed callbacks", got, n)
	}
}

func TestManyCallersConcurrent(t *testing.T) {
	m, r := newEngine(t, 8)
	var invoked atomic.Int64
	const perCPU = 200
	m.RunOnAll(func(c *vcpu.CPU) {
		for i := 0; i < perCPU; i++ {
			r.call(c.ID(), func() { invoked.Add(1) })
		}
	})
	deadline := time.After(20 * time.Second)
	want := int64(perCPU * m.NumCPU())
	for invoked.Load() != want {
		select {
		case <-deadline:
			t.Fatalf("invoked %d/%d", invoked.Load(), want)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if st := r.Stats(); st.MaxBacklog == 0 {
		t.Fatal("MaxBacklog never recorded")
	}
}

func TestSnapshotElapsedAcrossManyGPs(t *testing.T) {
	_, r := newEngine(t, 1)
	var cookies []gsync.Cookie
	for i := 0; i < 5; i++ {
		cookies = append(cookies, r.Snapshot())
		r.Synchronize()
	}
	for i, c := range cookies {
		if !r.Elapsed(c) {
			t.Fatalf("cookie %d not elapsed after %d synchronizes", i, len(cookies))
		}
	}
}

func TestBarrierWaitsForAllQueued(t *testing.T) {
	m, r := newEngine(t, 4)
	var invoked atomic.Int64
	const perCPU = 50
	for cpu := 0; cpu < m.NumCPU(); cpu++ {
		for i := 0; i < perCPU; i++ {
			r.call(cpu, func() { invoked.Add(1) })
		}
	}
	r.Barrier()
	if got := invoked.Load(); got != perCPU*int64(m.NumCPU()) {
		t.Fatalf("Barrier returned with %d/%d callbacks invoked", got, perCPU*m.NumCPU())
	}
}

func TestBarrierEmptyQueues(t *testing.T) {
	_, r := newEngine(t, 2)
	done := make(chan struct{})
	go func() {
		r.Barrier()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Barrier hung on empty queues")
	}
}

func TestWaitElapsedOnTreatsCPUQuiescent(t *testing.T) {
	_, r := newEngine(t, 2)
	// CPU 0 is active (non-idle) and will block inside
	// WaitElapsedOnTimeout; the grace period must still complete
	// because a blocked waiter is context-switched.
	r.ExitIdle(0)
	defer r.EnterIdle(0)
	done := make(chan struct{})
	go func() {
		if !r.WaitElapsedOnTimeout(0, r.Snapshot(), time.Minute) {
			t.Error("WaitElapsedOnTimeout returned false")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitElapsedOnTimeout self-deadlocked on an active CPU")
	}
}

func TestWaitElapsedOnInsideReaderPanics(t *testing.T) {
	_, r := newEngine(t, 1)
	r.ExitIdle(0)
	r.ReadLock(0)
	defer r.ReadUnlock(0)
	defer func() {
		if recover() == nil {
			t.Fatal("WaitElapsedOnTimeout inside reader did not panic")
		}
	}()
	r.WaitElapsedOnTimeout(0, r.Snapshot(), time.Minute)
}

func TestSynchronizeOnRestoresIdleState(t *testing.T) {
	_, r := newEngine(t, 2)
	r.ExitIdle(0)
	defer r.EnterIdle(0)
	r.SynchronizeOn(0)
	// The CPU must be active again afterwards: a reader that never
	// quiesces must block grace periods.
	r.ReadLock(0)
	cookie := r.Snapshot()
	done := make(chan struct{})
	go func() {
		waitElapsed(r, cookie)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("SynchronizeOn left the CPU marked idle: reader ignored")
	case <-time.After(20 * time.Millisecond):
	}
	r.ReadUnlock(0)
	r.QuiescentState(0)
	<-done
}

func TestSynchronizeOnInsideReaderPanics(t *testing.T) {
	_, r := newEngine(t, 1)
	r.ExitIdle(0)
	r.ReadLock(0)
	defer r.ReadUnlock(0)
	defer func() {
		if recover() == nil {
			t.Fatal("SynchronizeOn inside reader did not panic")
		}
	}()
	r.SynchronizeOn(0)
}

func TestDebugStateRendersAllCPUs(t *testing.T) {
	_, r := newEngine(t, 2)
	r.ExitIdle(1)
	r.ReadLock(1)
	defer func() {
		r.ReadUnlock(1)
		r.EnterIdle(1)
	}()
	s := r.DebugState()
	for _, want := range []string{"cpu0", "cpu1", "nest=1", "started="} {
		if !contains(s, want) {
			t.Fatalf("DebugState %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCPUOutOfRangePanics(t *testing.T) {
	_, r := newEngine(t, 1)
	for _, id := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cpu %d did not panic", id)
				}
			}()
			r.ReadLock(id)
		}()
	}
}
