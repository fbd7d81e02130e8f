package cluster

// The router front-end: one connection per shard, consistent-hash
// placement by tenant, and the bookkeeping that keeps the cluster's
// counters exact under replication, drain, and shard death.
//
// The router books a group by its frame. SubmitGroup builds the frame
// once and gives it a BaseID: member i is request BaseID+i for the
// group's whole life, and the pending table maps each undelivered
// request ID to its group. Every group is owned by exactly one shard
// at a time; hot tenants round-robin their groups over up to R replica
// owners, never splitting a group. A requeue (a draining shard refuses
// a frame whole) or a death reassigns the group to the next live owner
// and resends the whole frame under the same IDs: a result for a
// member already delivered finds no pending entry, and a result from a
// shard that lost the group finds it owned elsewhere, so either is
// dropped. The per-shard Completed counters therefore attribute every
// request to exactly the shard whose result was accepted, which is the
// delivery-exactness invariant the kill tests gate: a group moved off
// a dead shard runs whole, with one ModUp, on one live shard, and the
// router's books still sum to the schedule prediction.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

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

	// ctl holds the connection's one outstanding control exchange
	// (ping, stats or drain). want is the reply type it awaits, zero
	// when none; the read loop hands that reply to the one-slot reply
	// channel, and any other control frame is a protocol error.
	ctl   sync.Mutex
	want  atomic.Uint32
	reply chan []byte

	// final is the shard's drain-final stats snapshot, nil until a
	// drain completes.
	final atomic.Pointer[serve.Stats]
}

// pendingGroup is one in-flight hoist group: its frame, built once,
// one result channel per member, and its current assignment. epoch
// increments on every (re)assignment; a goroutine holding a stale
// epoch observes the bump and stands down, so exactly one reassignment
// wins any race between a failed sender and the death scan.
type pendingGroup struct {
	g     Group
	chans []chan serve.Result
	shard int
	epoch int
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
	pending map[uint64]*pendingGroup // undelivered request ID → its group
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
		pending: make(map[uint64]*pendingGroup),
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
			idx:    i,
			name:   fmt.Sprintf("shard-%d(%s)", i, addr),
			conn:   conn,
			fw:     &frameWriter{w: conn},
			closed: make(chan struct{}),
			reply:  make(chan []byte, 1),
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
			sc.fw.send(FrameShutdown, nil, rawPayload(nil))
		}
	}
}

// Kill abruptly severs shard i's connection — the test hook for the
// death path (the cluster experiment kills the whole process).
func (rt *Router) Kill(i int) { rt.markDown(rt.shards[i]) }

// readLoop consumes one shard's frames until the connection dies.
func (rt *Router) readLoop(sc *shardClient) {
	cr := newConnReader(sc.conn, rt.r)
	for {
		m, err := cr.next()
		if err != nil {
			rt.markDown(sc)
			return
		}
		switch m.typ {
		case FrameResult:
			if err := rt.handleResult(sc, m.result); err != nil {
				rt.markDown(sc)
				return
			}
		case FrameStats, FramePong, FrameDrainDone:
			if !sc.want.CompareAndSwap(uint32(m.typ), 0) {
				// Not the reply the outstanding exchange awaits, or
				// no exchange is outstanding.
				rt.markDown(sc)
				return
			}
			sc.reply <- m.payload
		default:
			rt.markDown(sc)
			return
		}
	}
}

// handleResult routes one result frame: a terminal result is
// delivered at most once (the pending table is the dedup), and the
// first requeue of the current assignment moves the whole group — the
// requeues for its other members then find it moved and are dropped.
// The read loop has checked the switched pair against the ring; here it
// is checked against the request — a key switch returns its input's
// basis in the NTT domain — and a pair that is well formed but not
// this request's answer is a protocol error like any other: the error
// takes the shard down and its groups are served elsewhere, rather
// than a client indexing towers that are not there.
func (rt *Router) handleResult(sc *shardClient, wr *WireResult) error {
	rt.mu.Lock()
	pg := rt.pending[wr.ReqID]
	if pg == nil || pg.shard != sc.idx {
		// Unknown, already delivered, or reassigned: a late result
		// from a shard that lost the group. Drop it — first delivery
		// won, and counting it would double-attribute the request.
		rt.mu.Unlock()
		return nil
	}
	switch wr.Code {
	case ResultOK:
		for _, c := range []*ring.Poly{wr.C0, wr.C1} {
			if !c.IsNTT || !c.Basis.Equal(pg.g.Input.Basis) {
				rt.mu.Unlock()
				return fmt.Errorf("cluster: %s answered request %d over basis %v (ntt %v), want %v",
					sc.name, wr.ReqID, c.Basis, c.IsNTT, pg.g.Input.Basis)
			}
		}
	case ResultRequeue:
		epoch := pg.epoch
		rt.mu.Unlock()
		rt.dispatch(pg, epoch)
		return nil
	}
	delete(rt.pending, wr.ReqID)
	rt.mu.Unlock()

	sc.completed.Add(1)
	rt.delivered.Add(1)
	res := serve.Result{C0: wr.C0, C1: wr.C1}
	if wr.Code != ResultOK {
		res = serve.Result{Err: fmt.Errorf("cluster: %s: %s", sc.name, wr.ErrMsg)}
	}
	pg.chans[wr.ReqID-pg.g.BaseID] <- res
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
	redo := make(map[*pendingGroup]int)
	for _, pg := range rt.pending {
		if pg.shard == sc.idx {
			redo[pg] = pg.epoch
		}
	}
	rt.mu.Unlock()
	for pg, epoch := range redo {
		go rt.dispatch(pg, epoch)
	}
}

// dispatch (re)assigns pg to a live owner and sends its whole frame.
// Only the caller whose epoch still matches proceeds — a failed sender
// and the death scan can both call dispatch for the same group, and
// the epoch bump lets exactly one win. A group with no member left to
// deliver is not sent. Terminal failures (no live shards, encode
// errors) fail the undelivered members through their result channels.
func (rt *Router) dispatch(pg *pendingGroup, epoch int) {
	for {
		rt.mu.Lock()
		if pg.epoch != epoch || !rt.undeliveredLocked(pg) {
			rt.mu.Unlock()
			return
		}
		owners := rt.hring.owners(pg.g.Tenant, rt.cfg.Replicas)
		if len(owners) == 0 {
			rt.failLocked(pg, errors.New("cluster: no live shards"))
			rt.mu.Unlock()
			return
		}
		// A tenant's groups round-robin over its replica set.
		sc := rt.shards[owners[rt.rr[pg.g.Tenant]%len(owners)]]
		rt.rr[pg.g.Tenant]++
		pg.shard = sc.idx
		pg.epoch++
		epoch = pg.epoch
		rt.mu.Unlock()

		err := sc.fw.send(FrameGroup, rt.r, &pg.g)
		if err == nil {
			return
		}
		if errors.As(err, new(encodeError)) {
			rt.mu.Lock()
			if pg.epoch == epoch {
				rt.failLocked(pg, err)
			}
			rt.mu.Unlock()
			return
		}
		// The write failed: the shard is dead. markDown may race us to
		// reassign pg; the epoch check at the top of the loop settles it.
		rt.markDown(sc)
	}
}

// undeliveredLocked reports whether a member of pg still awaits its
// result. Caller holds rt.mu.
func (rt *Router) undeliveredLocked(pg *pendingGroup) bool {
	for i := range pg.chans {
		if rt.pending[pg.g.BaseID+uint64(i)] == pg {
			return true
		}
	}
	return false
}

// failLocked terminally fails pg's undelivered members with err.
// Caller holds rt.mu.
func (rt *Router) failLocked(pg *pendingGroup, err error) {
	for i, ch := range pg.chans {
		id := pg.g.BaseID + uint64(i)
		if rt.pending[id] == pg {
			delete(rt.pending, id)
			ch <- serve.Result{Err: err}
		}
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
		g: Group{
			Tenant: r0.Tenant, Level: r0.Level, Dataflow: r0.Dataflow,
			Rots: make([]int, len(reqs)), Input: r0.Input,
		},
		chans: make([]chan serve.Result, len(reqs)),
		shard: -1,
	}
	out := make([]<-chan serve.Result, len(reqs))
	for i, req := range reqs {
		if req.Tenant != r0.Tenant || req.Level != r0.Level ||
			req.Dataflow != r0.Dataflow || req.Input != r0.Input {
			return nil, errors.New("cluster: group members must share tenant, level, dataflow, and input")
		}
		pg.g.Rots[i] = req.Rot
		pg.chans[i] = make(chan serve.Result, 1)
		out[i] = pg.chans[i]
	}
	rt.mu.Lock()
	pg.g.BaseID = rt.nextID
	rt.nextID += uint64(len(reqs))
	for i := range reqs {
		rt.pending[pg.g.BaseID+uint64(i)] = pg
	}
	rt.mu.Unlock()
	rt.dispatch(pg, 0)
	return out, nil
}

// roundTrip is one control exchange with sc: take the connection's one
// control slot, refuse a shard that is down, send the request, and
// wait for the reply's payload or the connection's death. Drain holds
// the slot too, so a ping or stats poll of a draining shard waits for
// its DrainDone.
func (rt *Router) roundTrip(sc *shardClient, req, reply FrameType) ([]byte, error) {
	sc.ctl.Lock()
	defer sc.ctl.Unlock()
	if sc.down.Load() {
		return nil, fmt.Errorf("cluster: %s is down", sc.name)
	}
	sc.want.Store(uint32(reply))
	if err := sc.fw.send(req, nil, rawPayload(nil)); err != nil {
		rt.markDown(sc)
		return nil, err
	}
	select {
	case p := <-sc.reply:
		return p, nil
	case <-sc.closed:
		return nil, fmt.Errorf("cluster: %s died awaiting %v", sc.name, reply)
	}
}

// roundTripStats is a control exchange whose reply is a stats
// snapshot; a snapshot that does not decode takes the shard down.
func (rt *Router) roundTripStats(sc *shardClient, req, reply FrameType) (serve.Stats, error) {
	p, err := rt.roundTrip(sc, req, reply)
	if err != nil {
		return serve.Stats{}, err
	}
	st, err := DecodeStats(p)
	if err != nil {
		rt.markDown(sc)
	}
	return st, err
}

// Ping health-checks shard i.
func (rt *Router) Ping(i int) error {
	_, err := rt.roundTrip(rt.shards[i], FramePing, FramePong)
	return err
}

// ShardStats fetches shard i's serve.Stats snapshot: over the wire
// while it lives, from the cached drain-final snapshot afterwards —
// rebuilt by serve.MergeStats, so the caller's copy shares no storage
// with the cached books.
func (rt *Router) ShardStats(i int) (serve.Stats, error) {
	sc := rt.shards[i]
	if final := sc.final.Load(); final != nil {
		return serve.MergeStats(*final), nil
	}
	st, err := rt.roundTripStats(sc, FrameStatsReq, FrameStats)
	if final := sc.final.Load(); err != nil && final != nil {
		// A drain that finished while this exchange was failing left
		// the final books behind.
		return serve.MergeStats(*final), nil
	}
	return st, err
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
	st, err := rt.roundTripStats(sc, FrameDrain, FrameDrainDone)
	if err != nil {
		return serve.Stats{}, err
	}
	sc.final.Store(&st)
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
// died without draining). The state is read after the fetch, so a
// shard whose fetch failed — which takes it down — reports down.
func (rt *Router) Status() []ShardStatus {
	out := make([]ShardStatus, len(rt.shards))
	for i, sc := range rt.shards {
		st, _ := rt.ShardStats(i)
		s := ShardStatus{Shard: i, Name: sc.name, State: ShardLive, Completed: sc.completed.Load(), Stats: st}
		switch {
		case sc.final.Load() != nil:
			s.State = ShardDrained
		case sc.down.Load():
			s.State = ShardDown
		}
		out[i] = s
	}
	return out
}

// AllStats returns the freshest per-shard stats snapshots: Status()
// less the shards that died undrained. AggregateStats over this slice
// is the cluster-wide view the shard-sum invariant gates.
func (rt *Router) AllStats() []serve.Stats {
	var out []serve.Stats
	for _, s := range rt.Status() {
		if s.State != ShardDown {
			out = append(out, s.Stats)
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

// Submit routes one request for the view's tenant (a group of one).
func (tv *TenantView) Submit(ctx context.Context, req serve.Request) (<-chan serve.Result, error) {
	rcs, err := tv.SubmitGroup(ctx, []serve.Request{req})
	if err != nil {
		return nil, err
	}
	return rcs[0], nil
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
