// Package server is the long-running service built on top of the
// prudence facade: a session cache (RCU hash map) and a routing table
// (RCU treap) served by one worker goroutine per virtual CPU, with the
// full observability and backpressure story a deployed
// procrastination-based system needs — /metrics scraping, per-op
// latency histograms, retire-backlog monitoring that raises expedited
// grace-period demand, and graceful drain through the whole stack at
// shutdown.
//
// The design mirrors the ownership contract of the rest of the
// repository: virtual CPU i is owned by shard worker i, and every
// operation on RCU-protected state executes on the owning worker.
// Clients (the HTTP front end, the load generator) never touch the
// structures directly; they submit batches of operations to a shard's
// queue and wait for the reply. That keeps the per-CPU fast paths of
// the allocator and the reclamation backend uncontended even though
// requests arrive from arbitrary goroutines.
//
// Backpressure has two triggers. TrySubmit returns ErrBusy when a
// shard's queue is full — the HTTP layer turns that into 503 — and
// both paths raise ExpediteReclaim, on the theory that a saturated
// server is usually a server whose reclamation is behind (the paper's
// §3.4 DoS scenario). Independently, a monitor goroutine samples the
// backend's retire backlog and the allocator's latent-object gauges
// and expedites once they cross Config.BacklogHigh, bounding latent
// bytes even when the queues themselves are keeping up.
package server

import (
	"errors"
	"fmt"
	"strings"
	stdsync "sync"
	"sync/atomic"
	"time"

	"prudence"
	"prudence/internal/metrics"
	"prudence/internal/stats"
)

// OpKind identifies one operation a batch carries.
type OpKind uint8

// The operation vocabulary. Session operations hit the RCU hash map;
// route operations hit the RCU treap; OpStall occupies the shard
// inside a read-side critical section for Op.Hold — the slow-loris
// reader that arms nebr neutralization and keeps hp scan paths honest.
const (
	OpConnect     OpKind = iota // upsert session Key with payload Val
	OpGet                       // copy session Key's payload into Buf
	OpTouch                     // overwrite session Key's payload (copy-update)
	OpDisconnect                // delete session Key
	OpRouteAdd                  // upsert route Key with payload Val
	OpRouteLookup               // copy route Key's payload into Buf
	OpRouteDel                  // delete route Key
	OpStall                     // pin the shard in a read-side section for Hold
	numOpKinds
)

var opNames = [numOpKinds]string{
	"connect", "get", "touch", "disconnect",
	"route_add", "route_lookup", "route_del", "stall",
}

// String returns the metric-label spelling of the op kind.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op%d", int(k))
}

// Status is the per-operation outcome.
type Status uint8

// Operation outcomes.
const (
	StatusPending  Status = iota // not yet executed
	StatusOK                     // executed successfully
	StatusNotFound               // lookup/delete missed
	StatusOOM                    // allocation failed: arena exhausted
	StatusShutdown               // server closed before execution
)

var statusNames = [...]string{"pending", "ok", "not_found", "oom", "shutdown"}

// String returns the metric-label spelling of the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status%d", int(s))
}

// Op is one operation inside a Batch. The server never retains Val or
// Buf past the operation: payloads are copied into (out of) cache
// objects, so batch owners may reuse the backing memory as soon as the
// batch completes.
type Op struct {
	Kind   OpKind
	Key    uint64
	Val    []byte        // payload for Connect/Touch/RouteAdd
	Buf    []byte        // destination for Get/RouteLookup
	Hold   time.Duration // OpStall pin duration (clamped to Config.MaxStall)
	N      int           // bytes copied into Buf (set by the server)
	Status Status        // outcome (set by the server)
}

// Batch is a group of operations executed in order on one shard.
// Reply, if non-nil, receives the batch after its last op completes;
// it must have free capacity for every batch outstanding on it or the
// shard worker will block. A batch may be reused (reset Ops, resubmit)
// once it has been received back.
type Batch struct {
	Ops       []Op
	Reply     chan *Batch
	submitted time.Time
}

// NewBatch returns an empty batch with the given op capacity and a
// private reply channel of capacity one.
func NewBatch(capacity int) *Batch {
	return &Batch{Ops: make([]Op, 0, capacity), Reply: make(chan *Batch, 1)}
}

// Submission errors.
var (
	// ErrServerClosed is returned by Submit and TrySubmit after Close.
	ErrServerClosed = errors.New("server: closed")
	// ErrBusy is returned by TrySubmit when the shard queue is full.
	ErrBusy = errors.New("server: shard queue full")
)

// Config sizes the server and the prudence system underneath it. The
// zero value is a usable small deployment.
type Config struct {
	// CPUs is the virtual CPU count — one shard worker each
	// (default 8).
	CPUs int
	// MemoryPages is the arena size in 4KiB pages (default 16384).
	MemoryPages int
	// Allocator, Reclamation and Arena select the stack underneath
	// (defaults: Prudence, RCU, heap — the facade's defaults).
	Allocator   prudence.AllocatorKind
	Reclamation prudence.ReclamationKind
	Arena       prudence.ArenaKind
	// GracePeriodInterval passes through to the reclamation backend.
	GracePeriodInterval time.Duration
	// SessionBytes is the session payload object size (default 128).
	SessionBytes int
	// RouteBytes is the route payload object size (default 64).
	RouteBytes int
	// SessionBuckets is the hash map bucket count, a power of two
	// (default 1<<14).
	SessionBuckets int
	// QueueDepth is the per-shard batch queue capacity (default 64).
	QueueDepth int
	// BacklogHigh is the latent-object count past which the monitor
	// raises expedited grace-period demand (default 1<<16; negative
	// disables the monitor's expedite trigger).
	BacklogHigh int
	// MonitorInterval is the backlog sampling period (default 20ms).
	MonitorInterval time.Duration
	// MaxStall clamps OpStall hold times (default 100ms).
	MaxStall time.Duration
}

func (cfg *Config) fill() {
	if cfg.SessionBytes <= 0 {
		cfg.SessionBytes = 128
	}
	if cfg.RouteBytes <= 0 {
		cfg.RouteBytes = 64
	}
	if cfg.SessionBuckets <= 0 {
		cfg.SessionBuckets = 1 << 14
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BacklogHigh == 0 {
		cfg.BacklogHigh = 1 << 16
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 20 * time.Millisecond
	}
	if cfg.MaxStall <= 0 {
		cfg.MaxStall = 100 * time.Millisecond
	}
}

// Server is the running service. Create with New, submit work with
// Submit/TrySubmit (or through the HTTP handler), stop with Close.
type Server struct {
	cfg    Config
	sys    *prudence.System
	shards int

	sessionCache *prudence.Cache
	routeCache   *prudence.Cache
	sessions     *prudence.Map
	routes       *prudence.Tree

	// scratch[cpu] is the shard's value-framing buffer: the RCU
	// structures store fixed-size objects with no length, so payloads
	// travel as [uint16 length | bytes]. Only the owning worker
	// touches its slot.
	scratch [][]byte

	queues []chan *Batch
	stop   chan struct{}
	closed atomic.Bool
	// submitting counts Submit/TrySubmit calls in flight, so Close can
	// tell when no racing submitter can still enqueue.
	submitting atomic.Int64
	wg         stdsync.WaitGroup
	once       stdsync.Once

	reg     *metrics.Registry
	latency [numOpKinds]*stats.Histogram
	opsDone [numOpKinds]*metrics.Counter
	batches *metrics.Counter

	busyRejects   atomic.Uint64
	ooms          atomic.Uint64
	expedites     atomic.Uint64
	stallsServed  atomic.Uint64
	lastBacklog   atomic.Int64
	lastLatentB   atomic.Int64
	peakBacklog   atomic.Int64
	peakLatentB   atomic.Int64
	monitorPasses atomic.Uint64
}

// New builds the full stack — arena, allocator, reclamation backend,
// caches, RCU structures — and starts the shard workers and the
// backlog monitor.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	sys, err := prudence.New(prudence.Config{
		CPUs:                cfg.CPUs,
		MemoryPages:         cfg.MemoryPages,
		Allocator:           cfg.Allocator,
		Reclamation:         cfg.Reclamation,
		Arena:               cfg.Arena,
		GracePeriodInterval: cfg.GracePeriodInterval,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		sys:    sys,
		shards: sys.NumCPU(),
		stop:   make(chan struct{}),
		reg:    metrics.NewRegistry(),
	}
	s.sessionCache = sys.NewCache("server-sessions", cfg.SessionBytes)
	s.routeCache = sys.NewCache("server-routes", cfg.RouteBytes)
	scratchLen := cfg.SessionBytes
	if cfg.RouteBytes > scratchLen {
		scratchLen = cfg.RouteBytes
	}
	s.scratch = make([][]byte, sys.NumCPU())
	for i := range s.scratch {
		s.scratch[i] = make([]byte, scratchLen)
	}
	s.sessions = sys.NewMap(s.sessionCache, cfg.SessionBuckets)
	s.routes = sys.NewTree(s.routeCache)
	s.queues = make([]chan *Batch, s.shards)
	for i := range s.queues {
		s.queues[i] = make(chan *Batch, cfg.QueueDepth)
	}
	s.registerMetrics()
	s.wg.Add(s.shards + 1)
	for i := 0; i < s.shards; i++ {
		go s.worker(i)
	}
	go s.monitor()
	return s, nil
}

func (s *Server) registerMetrics() {
	for k := OpKind(0); k < numOpKinds; k++ {
		s.latency[k] = s.reg.NewHistogram("prudence_server_op_latency",
			"Submit-to-completion latency per operation, by kind.",
			metrics.Label{Name: "op", Value: k.String()})
		s.opsDone[k] = s.reg.NewCounter("prudence_server_ops_total",
			"Operations completed, by kind.", s.shards,
			metrics.Label{Name: "op", Value: k.String()})
	}
	s.batches = s.reg.NewCounter("prudence_server_batches_total",
		"Batches completed.", s.shards)
	s.reg.GaugeFunc("prudence_server_sessions_live",
		"Sessions currently resident in the session map.",
		func() float64 { return float64(s.sessions.Len()) })
	s.reg.GaugeFunc("prudence_server_routes",
		"Routes currently resident in the routing table.",
		func() float64 { return float64(s.routes.Len()) })
	s.reg.GaugeFunc("prudence_server_queue_depth",
		"Batches waiting in shard queues.", func() float64 {
			n := 0
			for _, q := range s.queues {
				n += len(q)
			}
			return float64(n)
		})
	s.reg.CounterFunc("prudence_server_busy_rejects_total",
		"TrySubmit rejections due to a full shard queue.",
		func() float64 { return float64(s.busyRejects.Load()) })
	s.reg.CounterFunc("prudence_server_oom_total",
		"Operations failed on arena exhaustion.",
		func() float64 { return float64(s.ooms.Load()) })
	s.reg.CounterFunc("prudence_server_expedites_total",
		"Expedited grace periods raised by backpressure.",
		func() float64 { return float64(s.expedites.Load()) })
	s.reg.CounterFunc("prudence_server_stalls_total",
		"Slow-loris stall operations served.",
		func() float64 { return float64(s.stallsServed.Load()) })
	s.reg.GaugeFunc("prudence_server_latent_objects",
		"Latent objects at the last monitor sample (backend retire "+
			"backlog plus allocator latent gauges).",
		func() float64 { return float64(s.lastBacklog.Load()) })
	s.reg.GaugeFunc("prudence_server_latent_bytes",
		"Estimated latent bytes at the last monitor sample.",
		func() float64 { return float64(s.lastLatentB.Load()) })
	s.reg.GaugeFunc("prudence_server_latent_bytes_peak",
		"Largest latent-byte estimate observed by the monitor.",
		func() float64 { return float64(s.peakLatentB.Load()) })
}

// System returns the prudence system underneath the server, for tests
// and load reports that need direct metric access.
func (s *Server) System() *prudence.System { return s.sys }

// Shards returns the shard (and virtual CPU) count.
func (s *Server) Shards() int { return s.shards }

// ShardFor maps a key to the shard that must execute its operations.
// All operations on one key route to one shard, so a single client's
// writes to a key are applied in submission order.
func (s *Server) ShardFor(key uint64) int {
	return int(mix64(key) % uint64(s.shards))
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche hash so
// sequential session ids spread across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Submit enqueues b on shard, blocking while the queue is full. It
// fails only once the server is closing.
func (s *Server) Submit(shard int, b *Batch) error {
	s.submitting.Add(1)
	defer s.submitting.Add(-1)
	if s.closed.Load() {
		return ErrServerClosed
	}
	b.submitted = time.Now()
	select {
	case s.queues[shard] <- b:
		return nil
	case <-s.stop:
		return ErrServerClosed
	}
}

// TrySubmit enqueues b on shard without blocking. A full queue returns
// ErrBusy and raises expedited reclamation — saturation usually means
// the backend is behind the update rate, and shedding load without
// expediting would leave the latent backlog in place.
func (s *Server) TrySubmit(shard int, b *Batch) error {
	s.submitting.Add(1)
	defer s.submitting.Add(-1)
	if s.closed.Load() {
		return ErrServerClosed
	}
	b.submitted = time.Now()
	select {
	case s.queues[shard] <- b:
		return nil
	case <-s.stop:
		return ErrServerClosed
	default:
		s.busyRejects.Add(1)
		s.expedites.Add(1)
		s.sys.ExpediteReclaim()
		return ErrBusy
	}
}

// worker owns virtual CPU `shard`: it executes every batch submitted
// to that shard, reporting quiescent states between operations and
// entering the extended quiescent state (idle) around blocking queue
// receives so an empty shard never stalls grace periods.
func (s *Server) worker(shard int) {
	defer s.wg.Done()
	q := s.queues[shard]
	for {
		select {
		case b := <-q:
			s.runBatch(shard, b)
			continue
		default:
		}
		s.sys.QuiescentState(shard)
		s.sys.EnterIdle(shard)
		select {
		case b := <-q:
			s.sys.ExitIdle(shard)
			s.runBatch(shard, b)
		case <-s.stop:
			s.sys.ExitIdle(shard)
			// Drain: every batch accepted before the stop must still
			// execute and reply, or its submitter waits forever.
			for {
				select {
				case b := <-q:
					s.runBatch(shard, b)
				default:
					s.sys.QuiescentState(shard)
					s.sys.EnterIdle(shard)
					return
				}
			}
		}
	}
}

func (s *Server) runBatch(cpu int, b *Batch) {
	for i := range b.Ops {
		s.runOp(cpu, &b.Ops[i])
		s.sys.QuiescentState(cpu)
	}
	// One latency sample per op at batch completion: queueing delay
	// plus service of everything ahead of it in the batch, which is
	// what a client sharing the batch would observe.
	lat := time.Since(b.submitted)
	for i := range b.Ops {
		k := b.Ops[i].Kind
		if k < numOpKinds {
			s.latency[k].Observe(lat)
			s.opsDone[k].Inc(cpu)
		}
	}
	s.batches.Inc(cpu)
	if b.Reply != nil {
		b.Reply <- b
	}
}

// frame packs v into cpu's scratch buffer as [uint16 length | bytes],
// truncating to the cache's usable payload capacity (size-2).
func (s *Server) frame(cpu int, v []byte, size int) []byte {
	sc := s.scratch[cpu][:size]
	n := len(v)
	if n > size-2 {
		n = size - 2
	}
	sc[0] = byte(n)
	sc[1] = byte(n >> 8)
	copy(sc[2:], v[:n])
	return sc[:2+n]
}

// readFramed copies the framed value for key out of get into dst,
// returning the payload length and whether the key existed.
func (s *Server) readFramed(cpu int, get func(int, uint64, []byte) (int, bool), key uint64, size int, dst []byte) (int, bool) {
	sc := s.scratch[cpu][:size]
	n, ok := get(cpu, key, sc)
	if !ok {
		return 0, false
	}
	if n < 2 {
		return 0, true
	}
	l := int(sc[0]) | int(sc[1])<<8
	if l > n-2 {
		l = n - 2
	}
	return copy(dst, sc[2:2+l]), true
}

func (s *Server) runOp(cpu int, op *Op) {
	switch op.Kind {
	case OpConnect, OpTouch:
		if err := s.sessions.Put(cpu, op.Key, s.frame(cpu, op.Val, s.cfg.SessionBytes)); err != nil {
			op.Status = s.failStatus(err)
			return
		}
		op.Status = StatusOK
	case OpGet:
		n, ok := s.readFramed(cpu, s.sessions.Get, op.Key, s.cfg.SessionBytes, op.Buf)
		op.N = n
		if ok {
			op.Status = StatusOK
		} else {
			op.Status = StatusNotFound
		}
	case OpDisconnect:
		ok, err := s.sessions.Delete(cpu, op.Key)
		if err != nil {
			op.Status = s.failStatus(err)
			return
		}
		if ok {
			op.Status = StatusOK
		} else {
			op.Status = StatusNotFound
		}
	case OpRouteAdd:
		if err := s.routes.Put(cpu, op.Key, s.frame(cpu, op.Val, s.cfg.RouteBytes)); err != nil {
			op.Status = s.failStatus(err)
			return
		}
		op.Status = StatusOK
	case OpRouteLookup:
		n, ok := s.readFramed(cpu, s.routes.Get, op.Key, s.cfg.RouteBytes, op.Buf)
		op.N = n
		if ok {
			op.Status = StatusOK
		} else {
			op.Status = StatusNotFound
		}
	case OpRouteDel:
		ok, err := s.routes.Delete(cpu, op.Key)
		if err != nil {
			op.Status = s.failStatus(err)
			return
		}
		if ok {
			op.Status = StatusOK
		} else {
			op.Status = StatusNotFound
		}
	case OpStall:
		s.stall(cpu, op)
	default:
		op.Status = StatusNotFound
	}
}

// stall is the slow-loris reader: it pins the shard inside a read-side
// critical section for the requested hold. Under rcu this visibly
// delays grace periods; under nebr it runs long enough to be
// neutralized; under hp it forces scans to walk a stable hazard. The
// hold is clamped so a hostile client cannot park a shard forever, and
// a closing server cuts it short.
func (s *Server) stall(cpu int, op *Op) {
	hold := op.Hold
	if hold <= 0 || hold > s.cfg.MaxStall {
		hold = s.cfg.MaxStall
	}
	s.sys.ReadLock(cpu)
	t := time.NewTimer(hold)
	select { //prudence:nolint:sleepcheck the stall op exists to park a reader inside the read-side section: it is the adversarial slow-loris input the reclamation tiers are measured against
	case <-t.C:
	case <-s.stop:
		t.Stop()
	}
	s.sys.ReadUnlock(cpu)
	s.stallsServed.Add(1)
	op.Status = StatusOK
}

func (s *Server) failStatus(err error) Status {
	if errors.Is(err, prudence.ErrOutOfMemory) {
		s.ooms.Add(1)
		s.expedites.Add(1)
		s.sys.ExpediteReclaim()
		return StatusOOM
	}
	return StatusNotFound
}

// monitor samples the stack's latent backlog: the reclamation
// backend's retire/callback queues plus the Prudence allocator's
// latent-object gauges. Past Config.BacklogHigh it raises expedited
// grace-period demand — the deployed analogue of the paper's §3.5
// memory-pressure wiring, triggered by garbage accumulation rather
// than page exhaustion.
func (s *Server) monitor() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.MonitorInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sampleBacklog()
		}
	}
}

func (s *Server) sampleBacklog() {
	g := s.sys.GatherMetrics()
	var objs, latent float64
	for name, v := range g {
		switch {
		// Exact names: the *_peak high-water variants of these gauges
		// must not count, or the estimate never comes back down.
		case name == "prudence_sync_retire_backlog",
			name == "prudence_rcu_callback_backlog":
			// Backend-side backlog (the SLUB path). Cache attribution
			// is gone by the time an object reaches the retire queue;
			// estimate with the dominant (session) object size.
			objs += v
			latent += v * float64(s.cfg.SessionBytes)
		case strings.HasPrefix(name, "prudence_cache_latent_objects"):
			// Allocator-side latent objects (the Prudence path) carry
			// cache labels, so size attribution is exact.
			objs += v
			sz := s.cfg.SessionBytes
			if strings.Contains(name, s.routeCache.Name()) {
				sz = s.cfg.RouteBytes
			}
			latent += v * float64(sz)
		}
	}
	s.monitorPasses.Add(1)
	s.lastBacklog.Store(int64(objs))
	s.lastLatentB.Store(int64(latent))
	if int64(objs) > s.peakBacklog.Load() {
		s.peakBacklog.Store(int64(objs))
	}
	if int64(latent) > s.peakLatentB.Load() {
		s.peakLatentB.Store(int64(latent))
	}
	if s.cfg.BacklogHigh >= 0 && objs > float64(s.cfg.BacklogHigh) {
		s.expedites.Add(1)
		s.sys.ExpediteReclaim()
	}
}

// Latency returns the latency histogram for one op kind.
func (s *Server) Latency(kind OpKind) *stats.Histogram { return s.latency[kind] }

// PeakLatentBytes returns the largest latent-byte estimate the monitor
// observed.
func (s *Server) PeakLatentBytes() int64 { return s.peakLatentB.Load() }

// PeakLatentObjects returns the largest latent-object count the
// monitor observed.
func (s *Server) PeakLatentObjects() int64 { return s.peakBacklog.Load() }

// Expedites returns the number of expedited grace periods raised by
// the server's backpressure paths.
func (s *Server) Expedites() uint64 { return s.expedites.Load() }

// OOMs returns the number of operations failed on arena exhaustion.
func (s *Server) OOMs() uint64 { return s.ooms.Load() }

// BusyRejects returns the number of TrySubmit shed loads.
func (s *Server) BusyRejects() uint64 { return s.busyRejects.Load() }

// LiveSessions returns the sessions currently resident.
func (s *Server) LiveSessions() int { return s.sessions.Len() }

// Routes returns the routes currently resident.
func (s *Server) Routes() int { return s.routes.Len() }

// OpsCompleted returns the total operations completed for kind.
func (s *Server) OpsCompleted(kind OpKind) uint64 { return s.opsDone[kind].Value() }

// Close shuts the service down gracefully: refuse new submissions, let
// the workers drain every accepted batch, flush the caches' latent and
// cached objects back to the arena (waiting out grace periods), then
// stop the stack. Close is idempotent and safe to call concurrently.
func (s *Server) Close() {
	s.once.Do(func() {
		s.closed.Store(true)
		close(s.stop)
		s.wg.Wait()
		// A submitter that raced Close may enqueue after its worker's
		// final drain pass (its select finds both the queue and stop
		// ready); fail those batches explicitly so no client waits
		// forever on a reply. Sweep until no submitter is in flight:
		// any later one sees closed and enqueues nothing.
		for {
			idle := s.submitting.Load() == 0
			for _, q := range s.queues {
			sweep:
				for {
					select {
					case b := <-q:
						for i := range b.Ops {
							b.Ops[i].Status = StatusShutdown
						}
						if b.Reply != nil {
							b.Reply <- b
						}
					default:
						break sweep
					}
				}
			}
			if idle {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
		s.sessionCache.Drain()
		s.routeCache.Drain()
		s.sys.Close()
	})
}
