package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	stdsync "sync"
	"time"

	"prudence"
	"prudence/internal/server"
)

const (
	serverSessions = 100_000
	serverRoutes   = 2048
	// batchOps is the server workloads' timing unit: one closed-loop
	// batch from Submit to reply. A reconnect is two ops, so a batch that
	// ends on one carries 33.
	batchOps = 32
	// serverWarmBatches is the warm-up per client before the measured
	// phase.
	serverWarmBatches = 2000
	preloadBatch      = 256
	sessionBytes      = 128
	routeBytes        = 64
	serverPages       = 16384 // 64 MiB
	serverBuckets     = 1 << 17
	// payloadBytes is every value the clients write: key, then version.
	payloadBytes = 16
)

// Key index domains: a key is fmix64(base + index), and the domains never
// overlap, so preloaded, fresh and route keys are all distinct.
const (
	freshDomain = 1 << 61
	routeDomain = 1 << 62
	// routeStamp is the version word of every route payload.
	routeStamp = 0x726f757465
)

// mix is one workload's op mix in percent: each event draws one kind, and
// the percent left over reconnects — disconnects a live session and
// connects a fresh key in its slot, keeping the population fixed.
type mix struct {
	scheme                  prudence.ReclamationKind
	get, routeLookup, touch int
}

var churnMix = mix{scheme: prudence.NEBR, get: 32, routeLookup: 8, touch: 40}

// expect is what a client knows an op must return.
type expect struct {
	key, ver uint64
}

// client is one closed-loop load goroutine: it owns every session key
// that routes to its shard, so it knows each key's last written version.
type client struct {
	shard    int
	rng      splitmix64
	base     uint64
	shardFor func(uint64) int
	m        mix

	keys   []uint64 // live session per slot
	vers   []uint64
	fresh  uint64 // next fresh-key index of this client
	routes []uint64

	b    *server.Batch
	vals [][]byte
	bufs [][]byte
	exp  []expect

	connects, disconnects int64
	submitNs              spans
}

func newClient(shard int, seed, base uint64, shardFor func(uint64) int, m mix, routes []uint64) *client {
	c := &client{
		shard:    shard,
		rng:      splitmix64{s: fmix64(seed ^ uint64(shard+1)*0x9e3779b97f4a7c15)},
		base:     base,
		shardFor: shardFor,
		m:        m,
		routes:   routes,
		b:        server.NewBatch(batchOps + 1),
		exp:      make([]expect, batchOps+1),
	}
	for i := 0; i < batchOps+1; i++ {
		c.vals = append(c.vals, make([]byte, payloadBytes))
		c.bufs = append(c.bufs, make([]byte, sessionBytes))
	}
	return c
}

func keyOf(base, index uint64) uint64 { return fmix64(base + index) }

// freshKey returns the next never-used key that routes to c's shard.
// Clients draw from disjoint index sequences.
func (c *client) freshKey() uint64 {
	for {
		k := keyOf(c.base, freshDomain+c.fresh*procs+uint64(c.shard))
		c.fresh++
		if c.shardFor(k) == c.shard {
			return k
		}
	}
}

func (c *client) add(kind server.OpKind, key uint64, e expect, write bool) {
	i := len(c.b.Ops)
	op := server.Op{Kind: kind, Key: key}
	if write {
		binary.LittleEndian.PutUint64(c.vals[i][0:], e.key)
		binary.LittleEndian.PutUint64(c.vals[i][8:], e.ver)
		op.Val = c.vals[i]
	} else {
		op.Buf = c.bufs[i]
	}
	c.b.Ops = append(c.b.Ops, op)
	c.exp[i] = e
}

// gen fills the batch with the next ops of the seeded stream and records
// what each must return.
func (c *client) gen() {
	c.b.Ops = c.b.Ops[:0]
	for len(c.b.Ops) < batchOps {
		r := int(c.rng.next() % 100)
		slot := int(c.rng.next() % uint64(len(c.keys)))
		key := c.keys[slot]
		switch {
		case r < c.m.get:
			c.add(server.OpGet, key, expect{key, c.vers[slot]}, false)
		case r < c.m.get+c.m.routeLookup:
			rk := c.routes[c.rng.next()%uint64(len(c.routes))]
			c.add(server.OpRouteLookup, rk, expect{rk, routeStamp}, false)
		case r < c.m.get+c.m.routeLookup+c.m.touch:
			c.vers[slot]++
			c.add(server.OpTouch, key, expect{key, c.vers[slot]}, true)
		default:
			c.add(server.OpDisconnect, key, expect{}, false)
			nk := c.freshKey()
			c.keys[slot], c.vers[slot] = nk, 0
			c.add(server.OpConnect, nk, expect{nk, 0}, true)
		}
	}
}

// check validates a completed batch. A non-ok status is a failed op; a
// payload other than the one last written is a violation.
func (c *client) check() (failed int64, err error) {
	for i := range c.b.Ops {
		op := &c.b.Ops[i]
		if op.Status != server.StatusOK {
			failed++
			continue
		}
		switch op.Kind {
		case server.OpGet, server.OpRouteLookup:
			e := c.exp[i]
			if op.N != payloadBytes ||
				binary.LittleEndian.Uint64(op.Buf[0:]) != e.key ||
				binary.LittleEndian.Uint64(op.Buf[8:]) != e.ver {
				return failed, violation("%s of key %#x returned % x, want key %#x version %d",
					op.Kind, op.Key, op.Buf[:op.N], e.key, e.ver)
			}
		case server.OpConnect:
			c.connects++
		case server.OpDisconnect:
			c.disconnects++
		}
	}
	return failed, nil
}

// serverStack is one built, preloaded and warmed server with its clients.
type serverStack struct {
	srv     *server.Server
	clients []*client
	// submitted counts every op handed to the server, preload included,
	// for the shutdown check.
	submitted int64
}

func serverConfig(m mix) server.Config {
	return server.Config{
		CPUs:           procs,
		MemoryPages:    serverPages,
		Allocator:      prudence.Prudence,
		Reclamation:    m.scheme,
		Arena:          arenaBackend,
		SessionBytes:   sessionBytes,
		RouteBytes:     routeBytes,
		SessionBuckets: serverBuckets,
	}
}

// newClients builds the clients of a seeded run: the preloaded session
// keys partitioned by owning shard, and the route keys every client reads.
func newClients(seed uint64, shardFor func(uint64) int, m mix) []*client {
	base := fmix64(seed)
	routes := make([]uint64, serverRoutes)
	for j := range routes {
		routes[j] = keyOf(base, routeDomain+uint64(j))
	}
	cs := make([]*client, procs)
	for i := range cs {
		cs[i] = newClient(i, seed, base, shardFor, m, routes)
	}
	for i := uint64(0); i < serverSessions; i++ {
		k := keyOf(base, i)
		c := cs[shardFor(k)]
		c.keys = append(c.keys, k)
		c.vers = append(c.vers, 0)
	}
	return cs
}

func (st *serverStack) spawn(body func(i int)) {
	var wg stdsync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i)
		}(i)
	}
	wg.Wait()
}

// preload connects every client's sessions on its own shard and adds the
// routes through shard 0; every op must succeed.
func (st *serverStack) preload() error {
	errs := make([]error, procs)
	st.spawn(func(i int) {
		c := st.clients[i]
		put := func(kind server.OpKind, keys []uint64, ver uint64) {
			for at := 0; at < len(keys) && errs[i] == nil; at += preloadBatch {
				end := min(at+preloadBatch, len(keys))
				b := server.NewBatch(end - at)
				for _, k := range keys[at:end] {
					v := make([]byte, payloadBytes)
					binary.LittleEndian.PutUint64(v[0:], k)
					binary.LittleEndian.PutUint64(v[8:], ver)
					b.Ops = append(b.Ops, server.Op{Kind: kind, Key: k, Val: v})
				}
				if err := st.srv.Submit(i, b); err != nil {
					errs[i] = err
					return
				}
				<-b.Reply
				for _, op := range b.Ops {
					if op.Status != server.StatusOK {
						errs[i] = fmt.Errorf("preload %s of %#x: %s", op.Kind, op.Key, op.Status)
						return
					}
				}
			}
		}
		put(server.OpConnect, c.keys, 0)
		if i == 0 {
			put(server.OpRouteAdd, c.routes, routeStamp)
		}
	})
	st.submitted += serverSessions + serverRoutes
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPhase drives every client's closed loop for units batches, or for
// length when units is 0.
func (st *serverStack) runPhase(units int, length time.Duration, traced bool, every func()) ([]loader, time.Duration, error) {
	ls := newLoaders(st.srv.System().UsedBytes, length, 50_000)
	ph := phase{units: units, length: length, spawn: st.spawn, every: every,
		unit: func(i int, l *loader) (time.Duration, error) {
			c := st.clients[i]
			c.gen()
			start := time.Now()
			if err := st.srv.Submit(c.shard, c.b); err != nil {
				return 0, fmt.Errorf("submit: %w", err)
			}
			if traced {
				c.submitNs.add(time.Since(start))
			}
			<-c.b.Reply
			d := time.Since(start)
			failed, err := c.check()
			l.ops += int64(len(c.b.Ops))
			l.failed += failed
			return d, err
		}}
	elapsed, err := ph.run(ls)
	st.submitted += sumOps(ls)
	return ls, elapsed, err
}

func newServerStack(m mix, seed uint64) (*serverStack, error) {
	srv, err := server.New(serverConfig(m))
	if err != nil {
		return nil, err
	}
	st := &serverStack{srv: srv, clients: newClients(seed, srv.ShardFor, m)}
	if err := st.preload(); err != nil {
		srv.Close()
		return nil, err
	}
	if _, _, err := st.runPhase(serverWarmBatches, 0, false, nil); err != nil {
		srv.Close()
		return nil, err
	}
	return st, nil
}

// close shuts the server down and runs the server correctness gate: the
// live population equals preload + connects - disconnects, and every op
// accepted before shutdown was executed.
func (st *serverStack) close() error {
	var connects, disconnects int64
	for _, c := range st.clients {
		connects += c.connects
		disconnects += c.disconnects
	}
	live := int64(st.srv.LiveSessions())
	st.srv.Close()
	if want := serverSessions + connects - disconnects; live != want {
		return violation("%d live sessions, want %d preloaded + %d connects - %d disconnects = %d",
			live, serverSessions, connects, disconnects, want)
	}
	var done int64
	for k := server.OpConnect; k <= server.OpStall; k++ {
		done += int64(st.srv.OpsCompleted(k))
	}
	if done != st.submitted {
		return violation("server completed %d ops of %d submitted", done, st.submitted)
	}
	return nil
}

func setupServer(m mix, seed uint64, runs int) (*serverStack, float64, error) {
	var times []float64
	var st *serverStack
	for r := 0; r < runs; r++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if st, err = newServerStack(m, seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, median(times), nil
}

func runServer(m mix, o options) (*outcome, error) {
	runs := setupRuns
	if o.trace {
		runs = 1
	}
	st, setup, err := setupServer(m, o.seed, runs)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	if !o.trace {
		ls, _, err := st.runPhase(0, o.seconds, false, nil)
		if cerr := st.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		summarize(out, ls, fmt.Sprintf("%d-op batch", batchOps))
		out.set("setup_s", setup, "s")
		return out, nil
	}

	// Traced run: a traced half (Submit spans, gauge sampling, per-batch
	// latencies), an untraced half (counter deltas, Go heap activity,
	// overhead reference), then a direct replay of the traced half's op
	// stream on the facade Map and Tree for the structures' own times.
	half := o.seconds / 2
	g := backlogGauges()
	tls, tElapsed, err := st.runPhase(0, half, true, func() { g.sample(st.srv.GatherMetrics()) })
	if err != nil {
		st.close()
		return nil, err
	}
	before := st.srv.GatherMetrics()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	ls, elapsed, err := st.runPhase(0, o.seconds-half, false, nil)
	runtime.ReadMemStats(&msAfter)
	after := st.srv.GatherMetrics()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	ops := sumOps(ls)
	r := layerReport{}
	r.counters("core", before, after, ops, elapsed)
	r.backlogs("core", g)
	r.goRuntime(&msBefore, &msAfter, ops, elapsed)
	r.overhead(sumOps(tls), tElapsed, ops, elapsed)
	var submits []*spans
	for _, c := range st.clients {
		submits = append(submits, &c.submitNs)
	}
	r["server.submit_ns_p50"] = spanQuantile(0.50, submits...)

	traced := make([]int, procs)
	for i := range tls {
		traced[i] = len(tls[i].lat)
	}
	rp, err := replay(m, o.seed, st.srv.ShardFor, traced)
	if err != nil {
		return nil, err
	}
	r["rcuhash.get_ns_p50"] = spanQuantile(0.50, rp.get...)
	r["rcuhash.put_ns_p50"] = spanQuantile(0.50, rp.put...)
	r["rcuhash.delete_ns_p50"] = spanQuantile(0.50, rp.del...)
	r["rcutree.get_ns_p50"] = spanQuantile(0.50, rp.route...)
	r["sync.quiescent_ns_p50"] = spanQuantile(0.50, rp.qs...)
	var self []int64
	for i := range tls {
		for j, d := range tls[i].lat {
			self = append(self, d-rp.batchNs[i][j])
		}
	}
	sortInt64(self)
	r["server.self_us_p50"] = float64(quantile(self, 0.50)) / 1e3
	r.report(out)
	for i := range tls {
		out.attempted += tls[i].ops + ls[i].ops
		out.failed += tls[i].failed + ls[i].failed
	}
	return out, nil
}

// replayResult holds the structure-call spans of a replay and, per client,
// the summed structure time of each replayed traced batch.
type replayResult struct {
	get, put, del, route, qs []*spans
	batchNs                  [][]int64
}

// replay rebuilds the server's stack without the server — same system
// configuration, caches, Map and Tree — preloads it the same way, and
// replays each client's op stream (warm-up, then its traced batches)
// directly from the owning vCPU, timing every structure call.
func replay(m mix, seed uint64, shardFor func(uint64) int, tracedBatches []int) (*replayResult, error) {
	cfg := serverConfig(m)
	sys, err := prudence.New(prudence.Config{
		CPUs:        cfg.CPUs,
		MemoryPages: cfg.MemoryPages,
		Allocator:   cfg.Allocator,
		Reclamation: cfg.Reclamation,
		Arena:       cfg.Arena,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sessCache := sys.NewCache("server-sessions", sessionBytes)
	routeCache := sys.NewCache("server-routes", routeBytes)
	sessions := sys.NewMap(sessCache, serverBuckets)
	routes := sys.NewTree(routeCache)
	clients := newClients(seed, shardFor, m)

	res := &replayResult{batchNs: make([][]int64, procs)}
	type site struct{ get, put, del, route, qs spans }
	sites := make([]site, procs)
	errs := make([]error, procs)
	sys.RunOnAllCPUs(func(cpu int) {
		c := clients[cpu]
		s := &sites[cpu]
		scratch := make([]byte, sessionBytes)
		// frame stores v as the server does: [uint16 length | bytes].
		frame := func(v []byte) []byte {
			binary.LittleEndian.PutUint16(scratch, uint16(len(v)))
			return scratch[:2+copy(scratch[2:], v)]
		}
		read := func(get func(int, uint64, []byte) (int, bool), op *server.Op, size int) {
			n, ok := get(cpu, op.Key, scratch[:size])
			if !ok {
				op.Status = server.StatusNotFound
				return
			}
			l := min(int(binary.LittleEndian.Uint16(scratch)), n-2)
			op.N, op.Status = copy(op.Buf, scratch[2:2+l]), server.StatusOK
		}
		put := func(tr func(int, uint64, []byte) error, key uint64, v []byte) error {
			return tr(cpu, key, frame(v))
		}
		for _, k := range c.keys {
			v := make([]byte, payloadBytes)
			binary.LittleEndian.PutUint64(v, k)
			if errs[cpu] = put(sessions.Put, k, v); errs[cpu] != nil {
				return
			}
			sys.QuiescentState(cpu)
		}
		if cpu == 0 {
			for _, k := range c.routes {
				v := make([]byte, payloadBytes)
				binary.LittleEndian.PutUint64(v[0:], k)
				binary.LittleEndian.PutUint64(v[8:], routeStamp)
				if errs[cpu] = put(routes.Put, k, v); errs[cpu] != nil {
					return
				}
				sys.QuiescentState(cpu)
			}
		}
		res.batchNs[cpu] = make([]int64, 0, tracedBatches[cpu])
		for n := 0; n < serverWarmBatches+tracedBatches[cpu]; n++ {
			timed := n >= serverWarmBatches
			c.gen()
			var batch time.Duration
			for i := range c.b.Ops {
				op := &c.b.Ops[i]
				var sp *spans
				start := time.Now()
				switch op.Kind {
				case server.OpGet:
					read(sessions.Get, op, sessionBytes)
					sp = &s.get
				case server.OpRouteLookup:
					read(routes.Get, op, routeBytes)
					sp = &s.route
				case server.OpTouch, server.OpConnect:
					op.Status = server.StatusOK
					if err := put(sessions.Put, op.Key, op.Val); err != nil {
						op.Status = server.StatusOOM
					}
					sp = &s.put
				case server.OpDisconnect:
					op.Status = server.StatusNotFound
					if ok, err := sessions.Delete(cpu, op.Key); ok && err == nil {
						op.Status = server.StatusOK
					}
					sp = &s.del
				}
				mid := time.Now()
				sys.QuiescentState(cpu)
				if timed {
					sp.add(mid.Sub(start))
					s.qs.add(time.Since(mid))
					batch += mid.Sub(start)
				}
			}
			if timed {
				res.batchNs[cpu] = append(res.batchNs[cpu], batch.Nanoseconds())
			}
			if _, err := c.check(); err != nil {
				errs[cpu] = fmt.Errorf("replay: %w", err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range sites {
		s := &sites[i]
		res.get = append(res.get, &s.get)
		res.put = append(res.put, &s.put)
		res.del = append(res.del, &s.del)
		res.route = append(res.route, &s.route)
		res.qs = append(res.qs, &s.qs)
	}
	sessCache.Drain()
	routeCache.Drain()
	return res, nil
}
