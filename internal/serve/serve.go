// Package serve is an in-process, multi-tenant key-switching service:
// it accepts a stream of rotation/key-switch requests — each addressed
// to an explicit keyspace (tenant) and ciphertext level — and
// schedules them onto the internal/engine worker pool with the same
// reuse logic CiFlow applies inside one switch, lifted one level up —
// across requests.
//
// The paper's argument is that key switching is dominated by data
// movement, above all by evaluation-key traffic, so a serving layer
// lives or dies by how it manages key residency across the request
// stream. A server handling many rotations for many tenants at many
// levels has redundancy between requests, and serve removes it with
// three layers while keeping keyspaces strictly apart:
//
//  1. An evaluation-key cache (cache.go): a tenant-sharded LRU over
//     KeyID{Tenant, Rot, Level}, bounded by one global *byte* budget
//     with eviction weighted by the resident material's SizeBytes, a
//     per-tenant residency floor of one key, singleflight loading, and
//     per-tenant hit/miss/eviction/byte accounting. The cache stores
//     hks.KeyMaterial: a source handing back seed-compressed keys
//     (hks.CompressedEvk) is charged its B-half packed at residue
//     width plus the seeds, about a third of the dense footprint at
//     40/41-bit towers, so one budget holds about three times the
//     working set. A compressed key replays as a dense one does — the
//     engine's apply tiles draw its A-half from the seeds and multiply
//     its packed B-half in as they go — bit-exact with the dense path.
//  2. Hoist groups: requests of one tenant on one input polynomial at
//     one level share a single hks.Hoisted Decompose+ModUp and replay
//     only ApplyKey+ModDown per key. A caller that knows its fan-out
//     hands it over whole with SubmitGroup: one call, one queue item,
//     one ModUp, no waiting. Separate Submit calls that happen to
//     carry the same input pointer are coalesced into a group when
//     they are adjacent in their tenant's queue: a group formed from a
//     Submit takes along every matching Submit queued right behind it
//     when it is popped. A group is formed once and nothing joins it
//     later; it is scoped to one (tenant, level, input, dataflow), so
//     keyspaces never share hoisted state.
//  3. Per-tenant dispatch with isolation: every tenant gets its own
//     dispatcher goroutine and its own bounded queue of submissions
//     (capacity queueDepth each). The dispatcher takes one of its
//     tenant's Engine.Workers()+1 slots, then pops a group, which
//     starts at once on a goroutine of its own and gives the slot back
//     when it is done — as a task starts once its operands are ready;
//     nothing waits for a round of others. A busy tenant's queue fills
//     while its dispatcher waits for a slot, so the next group it pops
//     takes along everything queued behind it. Backpressure is per
//     tenant — a hot tenant saturating its queue
//     blocks only its own producers, and a tenant's slow key loads
//     stall only its own groups — while all tenants share one engine
//     and one switcher pool.
//
// The books are kept once, at the tenant (stats.go): a tenant's worker
// owns the only live counters, level slices, phase clocks and latency
// window, so serving a request touches nothing another tenant's
// request touches, and Stats derives the service-wide totals from the
// tenants' books at snapshot time — as MergeStats does across the
// shards of a cluster and Stats.ForTenant for one tenant's view.
//
// Requests carry a Level, and the service lazily resolves one
// hks.Switcher per level through its hks.SwitcherPool, so a
// rescale-heavy multi-level stream is served by one Service instance
// instead of one per (tenant, level). Switchers hold no secret
// material, so one pool serves every tenant.
//
// Every served result is bit-exact with a direct hks.KeySwitch or
// hks.SwitchHoisted of the same input and key — coalescing and
// grouping change scheduling, never values — which is what the
// equivalence tests in this package assert under -race.
//
// The service operates at the hks layer: a request carries the
// key-switch input polynomial (for a rotation, the ciphertext's c1 in
// hoisting form) and a rotation amount that the key cache resolves —
// through the request's KeyID — to an evaluation key. SeedKeySource
// wires the cache to ckks.KeyChain.HoistKey; finishing a rotation (Galois
// automorphism of the switched pair plus c0 addition) is cheap and
// stays with the caller. `ciflow serve` replays schedule DAGs through
// this package and checks its books against their predictions; `go run
// ./bench` times it (serve_fanout, serve_unshared).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("serve: service closed")

// TenantChecker is an optional KeySource extension: a source that can
// tell cheaply whether a tenant exists lets Submit reject requests for
// unknown tenants *before* allocating that tenant's dispatcher, queue,
// and cache shard — which otherwise live until Close. Services fed
// untrusted tenant names should use a KeySource that implements it
// (SeedKeySource does); without it an unknown tenant still fails, but only
// at key-load time, after its worker exists.
type TenantChecker interface {
	HasTenant(tenant string) bool
}

// Request is one key-switch to perform: switch Input (NTT domain over
// B_Level) with tenant Tenant's evaluation key for rotation amount
// Rot, scheduling the work under Dataflow (the zero value is
// dataflow.MP). Tenant names the keyspace — the zero value "" is the
// single keyspace of a one-tenant service. Level selects the
// ciphertext level; the zero value routes to Config.DefaultLevel, so
// a stream at literal level 0 needs DefaultLevel left at 0. A caller
// that knows several requests share one Input passes them to
// SubmitGroup together. Input pointer identity is how *separate*
// Submit calls meet: those of one tenant with the same Input pointer,
// Level, and Dataflow that are adjacent in its queue when the first of
// them is popped coalesce onto one shared hoisted ModUp; requests of
// different tenants never coalesce. Input must not
// change while any request on it is outstanding: the group's replays
// read its rows as the digits' own towers (hks.HoistParallel).
type Request struct {
	Input    *ring.Poly
	Rot      int
	Dataflow dataflow.Dataflow
	Tenant   string
	Level    int
}

// Result is the switched pair (c0, c1) over B_Level, or the error that
// prevented serving the request (key-load failure or a context
// cancelled while the request was still queued). The pair is the
// receiver's, for good: the service draws it from the ring's pool
// (ring.GetPoly; the replay overwrites every row) and never touches it
// again. A receiver that is done with a pair and is its only holder may
// hand it back with ring.PutPoly: the cluster shard once the result
// frame is written, and an unchecked workload.Replay once no later
// group will derive its input from the pair. One that keeps its results
// just keeps them.
type Result struct {
	C0, C1 *ring.Poly
	Err    error
}

// queueDepth bounds each tenant's queue, in Submit and SubmitGroup
// calls: a full queue blocks that tenant's submitters — backpressure —
// until its dispatcher drains or the submitter's context is cancelled;
// other tenants' queues are unaffected. It also bounds a group formed
// of Submits; a SubmitGroup call is never split, however long.
const queueDepth = 256

// Config tunes the service; zero values select the documented
// defaults.
type Config struct {
	// Engine executes the hoist/replay graphs, shared by every tenant
	// and level; each tenant runs at most Workers()+1 groups on it at
	// once. Nil selects engine.Default(). The service does not close it.
	Engine *engine.Engine
	// KeyBudget bounds the bytes of evaluation keys resident in the
	// cache, across all tenants (default 256 MiB). Eviction is LRU
	// weighted by the resident material's SizeBytes — compressed keys
	// are charged their compressed footprint; see cache.go.
	KeyBudget int64
	// DefaultLevel is the ciphertext level served when a request
	// leaves Level at its zero value (default 0).
	DefaultLevel int
}

// pending is one queued request with its completion channel. The
// request's Level is already normalized (DefaultLevel applied) and its
// switcher resolved, so the dispatcher never re-routes.
type pending struct {
	req  Request
	sw   *hks.Switcher
	ctx  context.Context // nil = no cancellation
	enq  time.Time
	deq  time.Time // set at queue pop; enq→deq is the enqueue phase
	done chan Result
}

// submission is one queue item: the requests of one Submit or
// SubmitGroup call. A sealed submission is a hoist group its caller
// declared whole — it runs as exactly one group; an unsealed one holds
// a single request, and the group it opens takes along the adjacent
// matching Submits queued behind it.
type submission struct {
	reqs   []*pending
	sealed bool
}

// tenantWorker is one tenant's dispatcher: a bounded queue, the
// goroutine that alone reads it, and the tenant's books — the only
// counters the service keeps (stats.go). Workers are created lazily at
// a tenant's first Submit and live until Close.
type tenantWorker struct {
	tenant string
	queue  chan submission
	done   chan struct{} // dispatcher exit

	// mu guards closed against the queue send in Submit. The lock is
	// *per worker* so that a Submit blocked on this tenant's full
	// queue (it holds the read lock across the send) can only hold up
	// this tenant's Close step and this tenant's other producers —
	// never another tenant's Submit. Close's write lock still makes
	// progress because the dispatcher keeps draining the queue.
	mu     sync.RWMutex
	closed bool

	stats  counters
	levels levelCounters
	lats   latencyRecorder
	phases phaseCounters
}

// send enqueues under the worker's read lock so Close cannot close the
// queue beneath an in-flight sender.
func (w *tenantWorker) send(ctx context.Context, sub submission) error {
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		return ErrClosed
	}
	select {
	case w.queue <- sub:
		w.stats.submitted.Add(uint64(len(sub.reqs)))
		return nil
	case <-cancel:
		return ctx.Err()
	}
}

// Service is the multi-tenant key-switch service. Construct
// with New, submit with Submit/SubmitGroup, observe with Stats, and
// Close to drain. Safe for concurrent use.
type Service struct {
	pool *hks.SwitcherPool
	keys *keyCache
	cfg  Config

	// mu guards closed and the workers map. Critical sections under it
	// are short and never block on queue space (sends synchronize on
	// the per-worker lock instead), so one tenant's backpressure can
	// not stall another tenant's Submit here.
	mu      sync.RWMutex
	closed  bool
	workers map[string]*tenantWorker
}

// New starts a service resolving levels to switchers through pool and
// loading evaluation keys through keys. Callers own the engine; Close
// only stops the service's dispatchers.
func New(pool *hks.SwitcherPool, keys KeySource, cfg Config) (*Service, error) {
	if pool == nil {
		return nil, fmt.Errorf("serve: nil switcher pool")
	}
	if keys == nil {
		return nil, fmt.Errorf("serve: nil key source")
	}
	if cfg.Engine == nil {
		cfg.Engine = engine.Default()
	}
	if cfg.KeyBudget <= 0 {
		cfg.KeyBudget = 256 << 20
	}
	return &Service{
		pool:    pool,
		keys:    newKeyCache(keys, cfg.KeyBudget),
		cfg:     cfg,
		workers: make(map[string]*tenantWorker),
	}, nil
}

// worker returns (creating and starting if needed) the dispatcher for
// a tenant.
func (s *Service) worker(tenant string) (*tenantWorker, error) {
	s.mu.RLock()
	w, ok := s.workers[tenant]
	s.mu.RUnlock()
	if ok {
		return w, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if w, ok := s.workers[tenant]; ok {
		return w, nil
	}
	w = &tenantWorker{
		tenant: tenant,
		queue:  make(chan submission, queueDepth),
		done:   make(chan struct{}),
	}
	s.workers[tenant] = w
	go s.dispatch(w)
	return w, nil
}

// isClosed is the fail-fast check; the authoritative one happens under
// the worker's lock at send time.
func (s *Service) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// admit checks one request the way the dispatcher relies on — known
// tenant, resolvable level, well-formed input, known dataflow — and
// returns it, Level normalized, as a pending. It allocates nothing on
// the tenant's behalf, so a rejected request leaves no trace.
func (s *Service) admit(ctx context.Context, req Request) (*pending, error) {
	// Reject unknown tenants before anything is allocated for them —
	// when the key source can tell (see TenantChecker).
	if tc, ok := s.keys.src.(TenantChecker); ok && !tc.HasTenant(req.Tenant) {
		return nil, fmt.Errorf("serve: unknown tenant %q", req.Tenant)
	}
	if req.Level == 0 {
		req.Level = s.cfg.DefaultLevel
	}
	sw, err := s.pool.Switcher(req.Level)
	if err != nil {
		return nil, err
	}
	if err := sw.CheckInput(req.Input); err != nil {
		return nil, err
	}
	// Reject unknown dataflows here: past this point the request runs
	// in one of its tenant's groups, where a panic would take down the
	// service rather than fail one request.
	if !req.Dataflow.Valid() {
		return nil, fmt.Errorf("serve: unknown dataflow %v", req.Dataflow)
	}
	return &pending{req: req, sw: sw, ctx: ctx, enq: time.Now(), done: make(chan Result, 1)}, nil
}

// enqueue puts one admitted submission on its tenant's queue.
func (s *Service) enqueue(ctx context.Context, sub submission) error {
	w, err := s.worker(sub.reqs[0].req.Tenant)
	if err != nil {
		return err
	}
	return w.send(ctx, sub)
}

// Submit enqueues a request on its tenant's queue and returns its
// completion channel, which receives exactly one Result. It blocks
// only when that tenant's queue is full (per-tenant backpressure); ctx
// cancels the wait for queue space and, if the request is still queued
// when ctx is cancelled, the Result carries the context error instead
// of outputs. A nil ctx never cancels.
func (s *Service) Submit(ctx context.Context, req Request) (<-chan Result, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	p, err := s.admit(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := s.enqueue(ctx, submission{reqs: []*pending{p}}); err != nil {
		return nil, err
	}
	return p.done, nil
}

// SubmitGroup enqueues one hoist group — requests sharing one Input,
// Tenant, Level and Dataflow, differing in Rot — as a single queue
// item and returns one completion channel per request, in order. The
// group is admitted whole or not at all: if any member would be
// rejected by Submit, or differs from the first in a shared field, the
// call fails and nothing is enqueued. It then runs as exactly one
// group — one Decompose+ModUp however long it is and whatever else is
// queued, never split, never merged with another call's requests even
// on an equal Input pointer or with a Submit. ctx and backpressure are
// as for Submit, for the call as a whole.
func (s *Service) SubmitGroup(ctx context.Context, reqs []Request) ([]<-chan Result, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	if len(reqs) == 0 {
		return nil, errors.New("serve: empty group")
	}
	sub := submission{reqs: make([]*pending, len(reqs)), sealed: true}
	out := make([]<-chan Result, len(reqs))
	for i, req := range reqs {
		p, err := s.admit(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("serve: group member %d: %w", i, err)
		}
		// Levels compare as admitted, so 0 and DefaultLevel agree.
		if r0 := sub.reqs[0]; i > 0 && (groupKeyOf(p) != groupKeyOf(r0) || p.req.Tenant != r0.req.Tenant) {
			return nil, fmt.Errorf("serve: group member %d does not share the group's input, tenant, level and dataflow", i)
		}
		sub.reqs[i], out[i] = p, p.done
	}
	// Once enqueued the submission is the dispatcher's.
	if err := s.enqueue(ctx, sub); err != nil {
		return nil, err
	}
	return out, nil
}

// Close stops accepting requests, waits for every queued request of
// every tenant to be served — each dispatcher waits out its running
// groups before it stops — and stops the dispatchers. Safe to call
// more than once. Close drains by contract, so a tenant whose
// group is wedged in a key load holds it up.
func (s *Service) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	workers := make([]*tenantWorker, 0, len(s.workers))
	for _, w := range s.workers {
		workers = append(workers, w)
	}
	s.mu.Unlock()
	if !already {
		for _, w := range workers {
			// The write lock waits out in-flight senders (their read
			// lock spans the send), so nothing can send on the closed
			// queue.
			w.mu.Lock()
			w.closed = true
			w.mu.Unlock()
			close(w.queue)
		}
	}
	for _, w := range workers {
		<-w.done
	}
}

// ---- Per-tenant dispatchers: a group forms when its tenant has a slot ----

// dispatch is the tenant's one reader of its queue. It takes one of the
// tenant's Engine.Workers()+1 slots, and only then pops the next
// submission, or the one its last drain set aside. A sealed submission
// is a group as it stands; an unsealed one takes along every matching
// Submit already queued right behind it, and the first submission that
// does not match is set aside as next. Every group runs on its own
// goroutine and gives its slot back when it is done. Once the queue is
// closed and drained, the dispatcher waits for its groups and exits.
func (s *Service) dispatch(w *tenantWorker) {
	slots := make(chan struct{}, s.cfg.Engine.Workers()+1)
	var running sync.WaitGroup
	defer func() {
		running.Wait()
		close(w.done)
	}()
	var next submission // reqs == nil: none set aside
	for {
		slots <- struct{}{}
		g := next
		next = submission{}
		if g.reqs == nil {
			if g = <-w.queue; g.reqs == nil {
				return // closed and drained
			}
			w.popped(g)
		}
		// Only this goroutine reads the queue, so what it holds now can
		// be drained without waiting.
		for n := len(w.queue); !g.sealed && n > 0 && next.reqs == nil; n-- {
			sub := <-w.queue
			w.popped(sub)
			if sub.sealed || groupKeyOf(sub.reqs[0]) != groupKeyOf(g.reqs[0]) {
				next = sub
			} else {
				g.reqs = append(g.reqs, sub.reqs[0])
			}
		}
		w.stats.groups.Add(1)
		running.Add(1)
		go func() {
			defer running.Done()
			s.runGroup(w, g.reqs)
			<-slots
		}()
	}
}

// popped stamps a submission's requests as dequeued and books their
// enqueue phase.
func (w *tenantWorker) popped(sub submission) {
	now := time.Now()
	for _, p := range sub.reqs {
		p.deq = now
		w.phases.add(phaseEnqueue, now.Sub(p.enq))
	}
}

// groupKey routes an unsealed request within one tenant's queue: the
// same input at the same level under the same dataflow shares one
// hoisted ModUp. Distinct dataflows on one input stay separate — each
// hoists and replays by its own plan — and distinct levels run on
// different switchers. A queue is one tenant's, so keyspaces cannot
// share a group by construction.
type groupKey struct {
	in    *ring.Poly
	df    dataflow.Dataflow
	level int
}

func groupKeyOf(p *pending) groupKey {
	return groupKey{in: p.req.Input, df: p.req.Dataflow, level: p.req.Level}
}

// runGroup serves one group — requests sharing input, level and
// dataflow, and so one switcher — as one hoisted Decompose+ModUp with a
// per-key replay, the exact hks.SwitchHoisted structure, so results are
// bit-exact with independent switches. A lone request is a group of
// one. Requests whose context died in the queue are failed; the rest
// resolve their key material before anything is hoisted, so a member
// whose key fails costs the group nothing further, and a group none of
// whose keys resolves runs — and books — nothing.
func (s *Service) runGroup(w *tenantWorker, reqs []*pending) {
	if tr := obs.ActiveTracer(); tr != nil {
		defer func(t0 time.Time) { tr.SpanTrack("serve", "group/"+w.tenant, t0, time.Now()) }(time.Now())
	}
	start := time.Now()
	p0 := reqs[0]
	sw, in, df, level := p0.sw, p0.req.Input, p0.req.Dataflow, p0.req.Level
	e := s.cfg.Engine
	type member struct {
		p    *pending
		mat  hks.KeyMaterial
		keys time.Duration // its key fetch, booked to the keys phase
	}
	var members []member
	// live counts the requests that entered alive, key failures
	// included: the coalesce credit is booked on it.
	live := 0
	for _, p := range reqs {
		w.phases.add(phaseDispatch, start.Sub(p.deq))
		if p.ctx != nil && p.ctx.Err() != nil {
			w.finish(p, Result{Err: p.ctx.Err()})
			continue
		}
		live++
		mat, took, err := s.getKey(w, sw, KeyID{Tenant: w.tenant, Rot: p.req.Rot, Level: level})
		if err != nil {
			w.finish(p, Result{Err: err})
			continue
		}
		members = append(members, member{p: p, mat: mat, keys: took})
	}
	if len(members) == 0 {
		return
	}
	t0 := time.Now()
	h := sw.HoistParallel(e, df, in)
	hoisted := time.Now()
	w.phases.add(phaseHoist, hoisted.Sub(t0))
	// One ModUp for the group, and — when it was formed of two or more
	// requests — the whole group's coalesce credit with it, whichever
	// keys failed; each request's switch is counted just before its
	// result delivers, so a caller that snapshots Stats after receiving
	// its last result sees it, in the level slices and in their sums.
	shared := live > 1
	var coalesced uint64
	if shared {
		coalesced = uint64(live)
	}
	w.levels.add(level, 0, 1, coalesced)
	for i, m := range members {
		c0 := sw.R.GetPoly(sw.QBasis())
		c1 := sw.R.GetPoly(sw.QBasis())
		t1 := time.Now()
		if shared {
			// The member has been in the group since it started; what of
			// that is booked to no phase on its behalf is the wait: the
			// other members' key fetches, the shared hoist (booked once,
			// to the group — carried here by the first member), and the
			// replays before this one.
			booked := m.keys
			if i == 0 {
				booked += hoisted.Sub(t0)
			}
			w.phases.add(phaseGroupWait, t1.Sub(start)-booked)
		}
		// A compressed key is drawn in the replay's apply tiles, once per
		// use — on cache hits too: that is the compression trade.
		if _, ok := m.mat.(*hks.CompressedEvk); ok {
			w.stats.expanded.Add(1)
		}
		h.SwitchParallelInto(e, m.mat, c0, c1)
		w.phases.add(phaseReplay, time.Since(t1))
		w.levels.add(level, 1, 0, 0)
		if i == len(members)-1 {
			// The last replay has returned: let go of the input before
			// its last result tells the caller it may reuse it.
			h.Release()
		}
		w.finish(m.p, Result{C0: c0, C1: c1})
	}
}

// getKey loads evaluation-key material through the cache and validates
// its digit structure, so a misbehaving KeySource fails the one request
// instead of panicking an engine worker. It books the fetch to the keys
// phase and returns how long it took.
func (s *Service) getKey(w *tenantWorker, sw *hks.Switcher, id KeyID) (hks.KeyMaterial, time.Duration, error) {
	t0 := time.Now()
	mat, err := s.keys.Get(id)
	if err == nil {
		err = sw.CheckMaterial(mat)
	}
	took := time.Since(t0)
	w.phases.add(phaseKeys, took)
	return mat, took, err
}

func (w *tenantWorker) finish(p *pending, res Result) {
	t0 := time.Now()
	if res.Err != nil {
		w.stats.failed.Add(1)
	} else {
		w.lats.record(t0.Sub(p.enq))
	}
	p.done <- res // buffered; never blocks
	w.phases.add(phaseReply, time.Since(t0))
}
