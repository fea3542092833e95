// Package vcpu models the machine's CPUs.
//
// Kernel per-CPU data structures (SLUB's per-CPU object caches, RCU's
// per-CPU quiescent-state bookkeeping, Prudence's latent caches) rely on
// code running on a particular CPU with preemption disabled. In this
// reproduction, each virtual CPU is owned by exactly one worker
// goroutine at a time; subsystems index their per-CPU state by CPU ID.
//
// Every CPU also has an idle worker: a goroutine that executes queued
// background work when the owning workload is not issuing calls. It is
// the substitute for the "idleness is not sloth" idle-time processing
// the paper borrows for latent cache pre-flush (§4.2): work queued there
// runs concurrently with, and yields to, the foreground workload.
package vcpu

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prudence/internal/metrics"
)

// CPU is a handle to one virtual CPU. The zero value is not usable;
// obtain handles from a Machine.
type CPU struct {
	id      int
	machine *Machine

	idleMu     sync.Mutex
	idleQueue  []func()
	idleWake   chan struct{}
	idleActive atomic.Bool

	idleBusyNanos atomic.Int64  // total time spent executing idle work
	idleRuns      atomic.Uint64 // idle work items executed

	// intr is the CPU's registered interrupt handler (nil = none). It
	// models a per-CPU asynchronous signal: the handler runs in the
	// sender's goroutine and must restrict itself to atomic operations
	// on the target CPU's state, exactly what a real signal handler
	// could safely do to a preempted thread.
	intr          atomic.Pointer[func()]
	intrDelivered atomic.Uint64
}

// SetInterrupt registers h as the CPU's interrupt handler (nil clears
// it). DEBRA+-style neutralizing reclamation uses it to knock a stalled
// reader's pin loose without the reader's cooperation.
func (c *CPU) SetInterrupt(h func()) {
	if h == nil {
		c.intr.Store(nil)
		return
	}
	c.intr.Store(&h)
}

// Interrupt delivers the CPU's interrupt: the registered handler runs
// synchronously in the caller's goroutine. It reports whether a handler
// was installed. Delivery is the analogue of pthread_kill on the thread
// owning the CPU; the handler's effects become visible to the owner
// through the atomics it touches.
func (c *CPU) Interrupt() bool {
	h := c.intr.Load()
	if h == nil {
		return false
	}
	c.intrDelivered.Add(1)
	(*h)()
	return true
}

// Interrupt delivers cpu's interrupt (see CPU.Interrupt).
func (m *Machine) Interrupt(cpu int) bool { return m.CPU(cpu).Interrupt() }

// SetInterruptOn registers h as cpu's interrupt handler (see
// CPU.SetInterrupt).
func (m *Machine) SetInterruptOn(cpu int, h func()) { m.CPU(cpu).SetInterrupt(h) }

// ID returns the CPU's index in [0, Machine.NumCPU()).
func (c *CPU) ID() int { return c.id }

// Machine returns the machine this CPU belongs to.
func (c *CPU) Machine() *Machine { return c.machine }

// Machine is a fixed set of virtual CPUs.
type Machine struct {
	cpus    []*CPU
	started time.Time

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewMachine creates a machine with n virtual CPUs and starts their idle
// workers. Call Stop when the machine is no longer needed.
func NewMachine(n int) *Machine {
	if n <= 0 {
		panic(fmt.Sprintf("vcpu: non-positive CPU count %d", n))
	}
	m := &Machine{stop: make(chan struct{}), started: time.Now()}
	m.cpus = make([]*CPU, n)
	for i := range m.cpus {
		c := &CPU{id: i, machine: m, idleWake: make(chan struct{}, 1)}
		m.cpus[i] = c
		m.wg.Add(1)
		go c.idleLoop(&m.wg, m.stop)
	}
	return m
}

// NumCPU returns the number of CPUs in the machine.
func (m *Machine) NumCPU() int { return len(m.cpus) }

// CPU returns the handle for CPU id.
func (m *Machine) CPU(id int) *CPU {
	if id < 0 || id >= len(m.cpus) {
		panic(fmt.Sprintf("vcpu: CPU id %d out of range [0,%d)", id, len(m.cpus)))
	}
	return m.cpus[id]
}

// Stop shuts down the idle workers. Queued idle work that has not
// started is discarded. Stop is idempotent.
func (m *Machine) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// RunOnAll invokes fn(cpu) concurrently on every CPU (one goroutine per
// CPU, the goroutine owning that CPU for the duration) and waits for all
// to return.
func (m *Machine) RunOnAll(fn func(c *CPU)) {
	var wg sync.WaitGroup
	for _, c := range m.cpus {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// RegisterMetrics registers per-CPU idle-worker activity and the
// machine-wide idle ratio — the "idleness is not sloth" budget that
// Prudence's pre-flush consumes (§4.2).
func (m *Machine) RegisterMetrics(r *metrics.Registry) {
	r.CollectCounters("prudence_vcpu_idle_work_seconds_total", "Time spent executing idle-worker items, per CPU.",
		func(emit metrics.Emit) {
			for _, c := range m.cpus {
				emit(float64(c.idleBusyNanos.Load())/1e9, metrics.L("cpu", strconv.Itoa(c.id)))
			}
		})
	r.CollectCounters("prudence_vcpu_idle_work_items_total", "Idle-worker items executed, per CPU.",
		func(emit metrics.Emit) {
			for _, c := range m.cpus {
				emit(float64(c.idleRuns.Load()), metrics.L("cpu", strconv.Itoa(c.id)))
			}
		})
	r.CollectCounters("prudence_vcpu_interrupts_total", "Interrupts delivered, per CPU.",
		func(emit metrics.Emit) {
			for _, c := range m.cpus {
				emit(float64(c.intrDelivered.Load()), metrics.L("cpu", strconv.Itoa(c.id)))
			}
		})
	r.GaugeFunc("prudence_vcpu_idle_ratio", "Fraction of machine time not spent on idle work (1 = fully available).",
		func() float64 {
			elapsed := time.Since(m.started).Seconds() * float64(len(m.cpus))
			if elapsed <= 0 {
				return 1
			}
			var busy float64
			for _, c := range m.cpus {
				busy += float64(c.idleBusyNanos.Load()) / 1e9
			}
			ratio := 1 - busy/elapsed
			if ratio < 0 {
				return 0
			}
			return ratio
		})
}

// ScheduleIdle queues fn to run on the CPU's idle worker. Work items run
// sequentially in FIFO order. fn must not block indefinitely.
func (c *CPU) ScheduleIdle(fn func()) {
	c.idleMu.Lock()
	c.idleQueue = append(c.idleQueue, fn)
	c.idleMu.Unlock()
	select {
	case c.idleWake <- struct{}{}:
	default:
	}
}

// ScheduleIdleOn queues fn on cpu's idle worker. It is the
// machine-level form of CPU.ScheduleIdle, letting subsystems that only
// hold a machine reference (e.g. the page pre-zeroer) dispatch idle
// work without knowing the CPU type.
func (m *Machine) ScheduleIdleOn(cpu int, fn func()) {
	m.CPU(cpu).ScheduleIdle(fn)
}

// IdleBusy reports whether the idle worker is currently executing or has
// queued work. Callers use it to avoid double-scheduling.
func (c *CPU) IdleBusy() bool {
	if c.idleActive.Load() {
		return true
	}
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	return len(c.idleQueue) > 0
}

// runIdle isolates idle work: a panicking work item must not kill the
// idle worker (background maintenance like Prudence's pre-flush would
// silently stop for the rest of the CPU's life).
func runIdle(fn func()) {
	defer func() { _ = recover() }()
	fn()
}

func (c *CPU) idleLoop(wg *sync.WaitGroup, stop chan struct{}) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		case <-c.idleWake:
		}
		for {
			c.idleMu.Lock()
			if len(c.idleQueue) == 0 {
				c.idleMu.Unlock()
				break
			}
			// Shift rather than reslice, so the queue's backing array
			// is reused and ScheduleIdle stops allocating once warm.
			fn := c.idleQueue[0]
			n := copy(c.idleQueue, c.idleQueue[1:])
			c.idleQueue[n] = nil
			c.idleQueue = c.idleQueue[:n]
			c.idleMu.Unlock()

			c.idleActive.Store(true)
			start := time.Now()
			runIdle(fn)
			c.idleBusyNanos.Add(int64(time.Since(start)))
			c.idleRuns.Add(1)
			c.idleActive.Store(false)
			// Idle work is low priority: yield between items so the
			// foreground workload goroutine gets the core first.
			runtime.Gosched()
		}
	}
}
