package cluster

// The router front-end: one connection per shard, consistent-hash
// placement by tenant, and the bookkeeping that keeps the cluster's
// counters exact under replication, drain, and shard death.
//
// Every group is owned by exactly one shard at a time (pendingGroup
// tracks which); hot tenants round-robin their groups over up to R
// replica owners, never splitting a group. Requeues (a draining shard
// refusing work) and deaths reassign a group to the next live owner
// with fresh request IDs — the old IDs leave the pending table first,
// so a late result from the old shard cannot be delivered twice. The
// per-shard Completed counters therefore attribute every request to
// exactly the shard whose result was accepted, which is the
// delivery-exactness invariant the kill tests gate: even when a dead
// shard half-executed a group that later re-ran elsewhere, the
// router's books sum to the schedule prediction.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"ciflow/internal/dataflow"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

// RouterConfig tunes the router.
type RouterConfig struct {
	// Replicas is how many distinct shards may serve one tenant
	// (groups round-robin across them); ≤ 0 means 1.
	Replicas int
}

// shardClient is the router's view of one shard connection.
type shardClient struct {
	idx  int
	name string
	conn net.Conn
	fw   *frameWriter

	down   atomic.Bool
	closed chan struct{}

	// completed counts results this shard delivered that the router
	// accepted (first delivery wins) — the router-side attribution
	// that must sum to the schedule prediction even across kills.
	completed atomic.Uint64

	// ctl serializes control round-trips (stats, ping) on this
	// connection, so concurrent tenant views can poll stats without
	// colliding on the one-outstanding-reply-per-type rule. Drain does
	// not hold it: its reply can take as long as the shard's in-flight
	// work, and it happens at most once per shard.
	ctl sync.Mutex

	// waiters holds at most one outstanding reply channel per control
	// frame type (stats, pong, drain-done).
	waitMu  sync.Mutex
	waiters map[FrameType]chan []byte

	drained atomic.Bool
	finalMu sync.Mutex
	final   serve.Stats
}

func (sc *shardClient) write(typ FrameType, payload []byte) error {
	return sc.fw.write(typ, payload)
}

// expect registers the single outstanding waiter for one reply type.
func (sc *shardClient) expect(typ FrameType) (chan []byte, error) {
	sc.waitMu.Lock()
	defer sc.waitMu.Unlock()
	if sc.waiters[typ] != nil {
		return nil, fmt.Errorf("cluster: %s already awaiting a %v reply", sc.name, typ)
	}
	ch := make(chan []byte, 1)
	sc.waiters[typ] = ch
	return ch, nil
}

func (sc *shardClient) deliverReply(typ FrameType, payload []byte) {
	sc.waitMu.Lock()
	ch := sc.waiters[typ]
	delete(sc.waiters, typ)
	sc.waitMu.Unlock()
	if ch != nil {
		ch <- payload
	}
}

func (sc *shardClient) setFinal(st serve.Stats) {
	sc.finalMu.Lock()
	sc.final = st
	sc.finalMu.Unlock()
	sc.drained.Store(true)
}

func (sc *shardClient) finalStats() serve.Stats {
	sc.finalMu.Lock()
	defer sc.finalMu.Unlock()
	return sc.final.Snapshot()
}

// pendingMember is one request of an in-flight group.
type pendingMember struct {
	pg       *pendingGroup
	rot      int
	ch       chan serve.Result
	done     bool
	requeued bool // requeue seen in the current epoch
}

// pendingGroup is one in-flight hoist group and its current
// assignment. epoch increments on every (re)assignment; a goroutine
// holding a stale epoch observes the bump and stands down, so exactly
// one reassignment wins any race between a failed sender and the
// death scan.
type pendingGroup struct {
	tenant string
	level  int
	df     dataflow.Dataflow
	input  *ring.Poly

	members []*pendingMember
	undone  int

	shard    int
	epoch    int
	curIDs   []uint64
	curCount int // members in the current wire frame
	requeues int // requeues received in the current epoch
}

// Router fronts a set of shard backends. Construct with NewRouter;
// submit through per-tenant views (TenantView) or SubmitGroup.
type Router struct {
	r      *ring.Ring
	cfg    RouterConfig
	shards []*shardClient

	mu      sync.Mutex
	hring   *hashRing
	nextID  uint64
	pending map[uint64]*pendingMember
	groups  map[*pendingGroup]struct{}
	rr      map[string]int

	delivered atomic.Uint64
}

// NewRouter dials one connection per shard address and starts the
// read loops. r must be the ring every shard serves on.
func NewRouter(r *ring.Ring, addrs []string, cfg RouterConfig) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: router needs at least one shard address")
	}
	rt := &Router{
		r:       r,
		cfg:     cfg,
		hring:   newHashRing(len(addrs)),
		pending: make(map[uint64]*pendingMember),
		groups:  make(map[*pendingGroup]struct{}),
		rr:      make(map[string]int),
	}
	for i, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			for _, sc := range rt.shards {
				sc.conn.Close()
			}
			return nil, fmt.Errorf("cluster: dial shard %d (%s): %w", i, addr, err)
		}
		rt.shards = append(rt.shards, &shardClient{
			idx:     i,
			name:    fmt.Sprintf("shard-%d(%s)", i, addr),
			conn:    conn,
			fw:      &frameWriter{w: conn},
			closed:  make(chan struct{}),
			waiters: make(map[FrameType]chan []byte),
		})
	}
	for _, sc := range rt.shards {
		go rt.readLoop(sc)
	}
	return rt, nil
}

// NumShards reports the configured shard count.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Delivered reports the total results the router has accepted.
func (rt *Router) Delivered() uint64 { return rt.delivered.Load() }

// Completed reports how many accepted results shard i served.
func (rt *Router) Completed(i int) uint64 { return rt.shards[i].completed.Load() }

// Close drops every shard connection (without shutting the shards
// down; see ShutdownShards).
func (rt *Router) Close() {
	for _, sc := range rt.shards {
		sc.conn.Close()
	}
}

// ShutdownShards tells every reachable shard process to exit.
func (rt *Router) ShutdownShards() {
	for _, sc := range rt.shards {
		if !sc.down.Load() {
			sc.write(FrameShutdown, nil)
		}
	}
}

// Kill abruptly severs shard i's connection — the test hook for the
// death path (the cluster experiment kills the whole process).
func (rt *Router) Kill(i int) { rt.markDown(rt.shards[i]) }

// readLoop consumes one shard's frames until the connection dies.
func (rt *Router) readLoop(sc *shardClient) {
	var buf []byte // result payloads land here; DecodeResult copies out
	for {
		typ, payload, err := readFrame(sc.conn, &buf)
		if err != nil {
			rt.markDown(sc)
			return
		}
		switch typ {
		case FrameResult:
			wr, err := DecodeResult(rt.r, payload)
			if err == nil {
				err = rt.handleResult(sc, wr)
			}
			if err != nil {
				rt.markDown(sc)
				return
			}
		case FrameStats, FramePong, FrameDrainDone:
			sc.deliverReply(typ, payload)
		default:
			rt.markDown(sc)
			return
		}
	}
}

// handleResult routes one result frame: terminal results deliver at
// most once (the pending table is the dedup), requeues trigger a
// whole-group reassignment once every current member has been
// requeued (a draining shard requeues groups atomically). DecodeResult
// has checked the switched pair against the ring; here it is checked
// against the request — a key switch returns its input's basis in the
// NTT domain — and a pair that is well formed but not this request's
// answer is a protocol error like any other: the error takes the shard
// down and its groups are served elsewhere, rather than a client
// indexing towers that are not there.
func (rt *Router) handleResult(sc *shardClient, wr *WireResult) error {
	rt.mu.Lock()
	m := rt.pending[wr.ReqID]
	if m == nil || m.pg.shard != sc.idx {
		// Unknown, already delivered, or reassigned: a late result
		// from a shard that lost the group. Drop it — first delivery
		// won, and counting it would double-attribute the request.
		rt.mu.Unlock()
		return nil
	}
	pg := m.pg
	if wr.Code == ResultOK {
		for _, c := range []*ring.Poly{wr.C0, wr.C1} {
			if !c.IsNTT || !c.Basis.Equal(pg.input.Basis) {
				rt.mu.Unlock()
				return fmt.Errorf("cluster: %s answered request %d over basis %v (ntt %v), want %v",
					sc.name, wr.ReqID, c.Basis, c.IsNTT, pg.input.Basis)
			}
		}
	}
	if wr.Code == ResultRequeue {
		if !m.requeued {
			m.requeued = true
			pg.requeues++
		}
		if pg.requeues == pg.curCount {
			epoch := pg.epoch
			rt.mu.Unlock()
			rt.dispatch(pg, epoch)
			return nil
		}
		rt.mu.Unlock()
		return nil
	}
	delete(rt.pending, wr.ReqID)
	m.done = true
	pg.undone--
	if pg.undone == 0 {
		delete(rt.groups, pg)
	}
	rt.mu.Unlock()

	sc.completed.Add(1)
	rt.delivered.Add(1)
	var res serve.Result
	switch wr.Code {
	case ResultOK:
		res = serve.Result{C0: wr.C0, C1: wr.C1}
	default:
		res = serve.Result{Err: fmt.Errorf("cluster: %s: %s", sc.name, wr.ErrMsg)}
	}
	m.ch <- res
	return nil
}

// markDown records a shard death: off the ring, connection closed,
// and every group it owned reassigned to a live shard.
func (rt *Router) markDown(sc *shardClient) {
	if sc.down.Swap(true) {
		return
	}
	sc.conn.Close()
	close(sc.closed)
	rt.mu.Lock()
	rt.hring.remove(sc.idx)
	type redo struct {
		pg    *pendingGroup
		epoch int
	}
	var redos []redo
	for pg := range rt.groups {
		if pg.shard == sc.idx {
			redos = append(redos, redo{pg, pg.epoch})
		}
	}
	rt.mu.Unlock()
	for _, rd := range redos {
		go rt.dispatch(rd.pg, rd.epoch)
	}
}

// dispatch (re)assigns pg's undone members to a live owner and sends
// the group frame. Only the caller whose epoch still matches proceeds
// — a failed sender and the death scan can both call dispatch for the
// same group, and the epoch bump lets exactly one win. Terminal
// failures (no live shards, encode errors) fail the remaining members
// through their result channels.
func (rt *Router) dispatch(pg *pendingGroup, wantEpoch int) {
	for {
		rt.mu.Lock()
		if pg.epoch != wantEpoch {
			rt.mu.Unlock()
			return
		}
		var ms []*pendingMember
		var rots []int
		for _, m := range pg.members {
			if !m.done {
				ms = append(ms, m)
				rots = append(rots, m.rot)
			}
		}
		if len(ms) == 0 {
			delete(rt.groups, pg)
			rt.mu.Unlock()
			return
		}
		owners := rt.hring.owners(pg.tenant, rt.cfg.Replicas)
		if len(owners) == 0 {
			rt.failLocked(pg, ms, errors.New("cluster: no live shards"))
			rt.mu.Unlock()
			return
		}
		// A tenant's groups round-robin over its replica set.
		sc := rt.shards[owners[rt.rr[pg.tenant]%len(owners)]]
		rt.rr[pg.tenant]++
		for _, id := range pg.curIDs {
			delete(rt.pending, id)
		}
		base := rt.nextID
		rt.nextID += uint64(len(ms))
		pg.curIDs = pg.curIDs[:0]
		for i, m := range ms {
			id := base + uint64(i)
			pg.curIDs = append(pg.curIDs, id)
			rt.pending[id] = m
			m.requeued = false
		}
		pg.curCount = len(ms)
		pg.requeues = 0
		pg.shard = sc.idx
		pg.epoch++
		wantEpoch = pg.epoch
		rt.groups[pg] = struct{}{}
		g := &Group{
			BaseID: base, Tenant: pg.tenant, Level: pg.level,
			Dataflow: pg.df, Rots: rots, Input: pg.input,
		}
		rt.mu.Unlock()

		err := sc.fw.send(FrameGroup, rt.r, g)
		if err == nil {
			return
		}
		if errors.As(err, new(encodeError)) {
			rt.mu.Lock()
			if pg.epoch == wantEpoch {
				rt.failLocked(pg, ms, err)
			}
			rt.mu.Unlock()
			return
		}
		// The write failed: the shard is dead. markDown may race us to
		// reassign pg; the epoch check at the top of the loop settles it.
		rt.markDown(sc)
	}
}

// failLocked terminally fails ms (members of pg) with err. Caller
// holds rt.mu.
func (rt *Router) failLocked(pg *pendingGroup, ms []*pendingMember, err error) {
	for _, id := range pg.curIDs {
		delete(rt.pending, id)
	}
	pg.curIDs = pg.curIDs[:0]
	for _, m := range ms {
		if !m.done {
			m.done = true
			pg.undone--
			m.ch <- serve.Result{Err: err}
		}
	}
	if pg.undone == 0 {
		delete(rt.groups, pg)
	}
}

// SubmitGroup routes one whole hoist group — every request must share
// one tenant, level, dataflow, and input polynomial — to a single
// owner shard, and returns one result channel per request, in order.
// It implements the contract of workload.GroupSubmitter (via
// TenantView): the group reaches one executor whole, so coalescing
// and the exact-count invariants survive the wire.
func (rt *Router) SubmitGroup(ctx context.Context, reqs []serve.Request) ([]<-chan serve.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, errors.New("cluster: empty group")
	}
	r0 := reqs[0]
	pg := &pendingGroup{
		tenant: r0.Tenant, level: r0.Level, df: r0.Dataflow,
		input: r0.Input, shard: -1, undone: len(reqs),
	}
	out := make([]<-chan serve.Result, len(reqs))
	for i, req := range reqs {
		if req.Tenant != r0.Tenant || req.Level != r0.Level ||
			req.Dataflow != r0.Dataflow || req.Input != r0.Input {
			return nil, errors.New("cluster: group members must share tenant, level, dataflow, and input")
		}
		m := &pendingMember{pg: pg, rot: req.Rot, ch: make(chan serve.Result, 1)}
		pg.members = append(pg.members, m)
		out[i] = m.ch
	}
	rt.mu.Lock()
	rt.groups[pg] = struct{}{}
	rt.mu.Unlock()
	rt.dispatch(pg, 0)
	return out, nil
}

// Submit routes one request (a group of one).
func (rt *Router) Submit(ctx context.Context, req serve.Request) (<-chan serve.Result, error) {
	rcs, err := rt.SubmitGroup(ctx, []serve.Request{req})
	if err != nil {
		return nil, err
	}
	return rcs[0], nil
}

// roundTrip is one control exchange with sc: refuse a shard that is
// down, register for the reply, send the request, and wait for the
// reply's payload or the connection's death. Under ctl it queues behind
// the connection's other control exchanges; drain goes around it,
// because its reply can be as long coming as the shard's in-flight
// work.
func (rt *Router) roundTrip(sc *shardClient, req, reply FrameType, ctl bool) ([]byte, error) {
	if sc.down.Load() {
		return nil, fmt.Errorf("cluster: %s is down", sc.name)
	}
	if ctl {
		sc.ctl.Lock()
		defer sc.ctl.Unlock()
	}
	ch, err := sc.expect(reply)
	if err != nil {
		return nil, err
	}
	if err := sc.write(req, nil); err != nil {
		rt.markDown(sc)
		return nil, err
	}
	select {
	case p := <-ch:
		return p, nil
	case <-sc.closed:
		return nil, fmt.Errorf("cluster: %s died awaiting %v", sc.name, reply)
	}
}

// Ping health-checks shard i.
func (rt *Router) Ping(i int) error {
	_, err := rt.roundTrip(rt.shards[i], FramePing, FramePong, true)
	return err
}

// ShardStats fetches shard i's serve.Stats snapshot: over the wire
// while it lives, from the cached drain-final snapshot afterwards.
func (rt *Router) ShardStats(i int) (serve.Stats, error) {
	sc := rt.shards[i]
	if sc.drained.Load() {
		return sc.finalStats(), nil
	}
	p, err := rt.roundTrip(sc, FrameStatsReq, FrameStats, true)
	if err != nil {
		// A drain that finished while this exchange was failing left
		// the final books behind.
		if sc.drained.Load() {
			return sc.finalStats(), nil
		}
		return serve.Stats{}, err
	}
	return DecodeStats(p)
}

// Drain removes shard i from the ring (so no new group lands on it),
// tells it to requeue instead of execute, waits for its in-flight
// groups to finish, and returns its final — now immutable — stats
// snapshot. Drained finals plus live deltas sum to the schedule
// prediction exactly, because requeued work is counted only by the
// shard that completed it.
func (rt *Router) Drain(i int) (serve.Stats, error) {
	sc := rt.shards[i]
	if sc.down.Load() {
		return serve.Stats{}, fmt.Errorf("cluster: %s is down", sc.name)
	}
	rt.mu.Lock()
	rt.hring.remove(sc.idx)
	rt.mu.Unlock()
	p, err := rt.roundTrip(sc, FrameDrain, FrameDrainDone, false)
	if err != nil {
		return serve.Stats{}, err
	}
	st, err := DecodeStats(p)
	if err != nil {
		return serve.Stats{}, err
	}
	sc.setFinal(st)
	return st, nil
}

// ShardState names one shard's lifecycle state in Status reports.
type ShardState string

const (
	ShardLive    ShardState = "live"
	ShardDrained ShardState = "drained"
	ShardDown    ShardState = "down"
)

// ShardStatus is one shard's entry in a cluster status report.
type ShardStatus struct {
	Shard     int         `json:"shard"`
	Name      string      `json:"name"`
	State     ShardState  `json:"state"`
	Completed uint64      `json:"completed"`
	Stats     serve.Stats `json:"stats"`
}

// Status reports every shard: state, router-side completion count,
// and the freshest stats snapshot available (zero for a shard that
// died without draining).
func (rt *Router) Status() []ShardStatus {
	out := make([]ShardStatus, len(rt.shards))
	for i, sc := range rt.shards {
		s := ShardStatus{Shard: i, Name: sc.name, Completed: sc.completed.Load()}
		switch {
		case sc.drained.Load():
			s.State = ShardDrained
			s.Stats = sc.finalStats()
		case sc.down.Load():
			s.State = ShardDown
		default:
			s.State = ShardLive
			if st, err := rt.ShardStats(i); err == nil {
				s.Stats = st
			}
		}
		out[i] = s
	}
	return out
}

// AllStats returns the freshest per-shard stats snapshots (live
// fetches plus drained finals; shards that died undrained are
// omitted). AggregateStats over this slice is the cluster-wide view
// the shard-sum invariant gates.
func (rt *Router) AllStats() []serve.Stats {
	var out []serve.Stats
	for i, sc := range rt.shards {
		if sc.down.Load() && !sc.drained.Load() {
			continue
		}
		if st, err := rt.ShardStats(i); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// TenantView is one tenant's window onto the cluster: it implements
// workload.Server (and GroupSubmitter), so the PR 5 replay client can
// drive a sharded fabric exactly as it drives one process — same
// exact-count assertions, same bit-exact serial reference.
type TenantView struct {
	Router *Router
	Tenant string
}

// Submit routes one request for the view's tenant.
func (tv *TenantView) Submit(ctx context.Context, req serve.Request) (<-chan serve.Result, error) {
	if req.Tenant != tv.Tenant {
		return nil, fmt.Errorf("cluster: tenant view %q got request for %q", tv.Tenant, req.Tenant)
	}
	return tv.Router.Submit(ctx, req)
}

// SubmitGroup routes one whole hoist group for the view's tenant.
func (tv *TenantView) SubmitGroup(ctx context.Context, reqs []serve.Request) ([]<-chan serve.Result, error) {
	for i := range reqs {
		if reqs[i].Tenant != tv.Tenant {
			return nil, fmt.Errorf("cluster: tenant view %q got request for %q", tv.Tenant, reqs[i].Tenant)
		}
	}
	return tv.Router.SubmitGroup(ctx, reqs)
}

// Stats projects the cluster-wide aggregate onto this tenant as a
// serve.Stats value, so replay deltas measure exactly this tenant's
// slice of the fabric no matter how many shards served it.
func (tv *TenantView) Stats() serve.Stats {
	return AggregateStats(tv.Router.AllStats()).ForTenant(tv.Tenant)
}
