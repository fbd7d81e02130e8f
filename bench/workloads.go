package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/cluster"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
	"ciflow/internal/workload"
)

// The fixed shape: 6 Q towers of 40 bits and 3 P towers of 41 bits at
// ring degree 2^logN (13 for every recorded number), switching at the
// top level. Shape A decomposes into 3 digits; shape B, the DAG shape,
// into 2, because the bootstrap schedule descends to level 1 and three
// digits leave one empty there.
const (
	qTowers  = 6
	qBits    = 40
	pTowers  = 3
	pBits    = 41
	topLevel = qTowers - 1
	dnumA    = 3
	dnumB    = 2

	fanoutWidth  = 8  // serve_fanout: rotations per operation, and keys per tenant
	unsharedKeys = 48 // serve_unshared: keys per tenant
)

// workloadDef names one workload and why it exists; BENCHMARK.json
// repeats both for the driver.
type workloadDef struct {
	Name string
	Why  string
	dnum int
	make func(env) (load, error)
}

var workloads = []workloadDef{
	{Name: "switch_direct", dnum: dnumA, make: newSwitchDirect,
		Why: "1 caller cycling MP/DC/OC through hks on the engine: kernels, hks and engine do all the work, serve/workload/cluster none"},
	{Name: "serve_fanout", dnum: dnumA, make: func(e env) (load, error) { return newServeLoad(e, true) },
		Why: "2 tenants submit 8 rotations of one input to serve, all keys resident: ModUp is shared 8 ways, so serve batching, replay and allocation carry the cost"},
	{Name: "serve_unshared", dnum: dnumA, make: func(e env) (load, error) { return newServeLoad(e, false) },
		Why: "2 tenants submit single rotations over 48 keys against a budget holding 18: every request pays a full ModUp and most a cache miss and eviction"},
	{Name: "replay_bootstrap", dnum: dnumB, make: func(e env) (load, error) { return newDagLoad(e, false) },
		Why: "1 client replays a 57-switch depth-9 bootstrap DAG through one in-process service: latency-bound by depth, so wave scheduling and dispatch gaps matter"},
	{Name: "cluster_bootstrap", dnum: dnumB, make: func(e env) (load, error) { return newDagLoad(e, true) },
		Why: "the same DAG for 2 tenants through the router to 2 shards on loopback TCP: adds wire encode/decode, TCP and routing to exactly that work"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what one run shares across set-ups: the run's parameters and
// its one engine.
type env struct {
	cfg config
	def workloadDef
	e   *engine.Engine
}

func (e env) n() int { return 1 << e.cfg.logN }

// load is one set-up workload instance: a fixed number of closed-loop
// clients, each issuing op after op.
type load interface {
	clients() int
	ring() *ring.Ring
	// prepare warms the instance (keys generated, caches and pools
	// filled) and verifies its outputs against a reference that does
	// not share the path under test. All of it is set-up time.
	prepare() (warm, verify tally, digest string, err error)
	op(c, i int, parent uint64) (switches int, err error)
	// trace makes the operations record request spans into l (nil
	// stops it). Not called while operations run.
	trace(l *spanLog)
	close()
}

// digest accumulates an output digest. Ordered outputs are hashed as a
// stream; outputs that arrive in scheduling order (a DAG's results) are
// hashed one by one and summed, which does not depend on the order.
type digest struct {
	r      *ring.Ring
	stream hash.Hash
	sum    atomic.Uint64
}

func newDigest(r *ring.Ring) *digest { return &digest{r: r, stream: sha256.New()} }

func (d *digest) ordered(ps ...*ring.Poly) {
	for _, p := range ps {
		_ = d.r.WritePoly(d.stream, p) // a hash never fails a write
	}
}

func (d *digest) unordered(ps ...*ring.Poly) {
	h := sha256.New()
	for _, p := range ps {
		_ = d.r.WritePoly(h, p)
	}
	d.sum.Add(binary.LittleEndian.Uint64(h.Sum(nil)))
}

func (d *digest) String() string {
	s := binary.LittleEndian.Uint64(d.stream.Sum(nil)) + d.sum.Load()
	return fmt.Sprintf("%016x", s)
}

// uniformNTT samples one key-switch input over b.
func uniformNTT(s *ring.Sampler, b ring.Basis) *ring.Poly {
	p := s.Uniform(b)
	p.IsNTT = true
	return p
}

// ---- switch_direct ----

type switchDirect struct {
	e      *engine.Engine
	r      *ring.Ring
	sw     *hks.Switcher
	evk    *hks.Evk
	inputs []*ring.Poly
	c0, c1 *ring.Poly
}

func newSwitchDirect(e env) (load, error) {
	r, err := ring.NewRingGenerated(e.n(), qTowers, qBits, pTowers, pBits)
	if err != nil {
		return nil, err
	}
	sw, err := hks.NewSwitcher(r, topLevel, e.def.dnum)
	if err != nil {
		return nil, err
	}
	s := ring.NewSampler(r, e.cfg.seed)
	full := r.DBasis(topLevel)
	l := &switchDirect{e: e.e, r: r, sw: sw,
		evk: sw.GenEvk(s, s.Ternary(full), s.Ternary(full)),
		c0:  r.NewPoly(sw.QBasis()), c1: r.NewPoly(sw.QBasis())}
	for i := 0; i < 16; i++ {
		l.inputs = append(l.inputs, uniformNTT(s, sw.QBasis()))
	}
	return l, nil
}

func (l *switchDirect) clients() int     { return 1 }
func (l *switchDirect) ring() *ring.Ring { return l.r }
func (l *switchDirect) trace(*spanLog)   {}
func (l *switchDirect) close()           {}

func (l *switchDirect) op(_, i int, _ uint64) (int, error) {
	dfs := dataflow.AllDataflows()
	l.sw.SwitchParallelInto(l.e, dfs[i%len(dfs)], l.inputs[i%len(l.inputs)], l.evk, l.c0, l.c1)
	return 1, nil
}

func (l *switchDirect) prepare() (warm, verify tally, dg string, err error) {
	for i := 0; i < 2*len(l.inputs); i++ {
		l.op(0, i, 0)
		warm.attempted++
	}
	d := newDigest(l.r)
	for _, in := range l.inputs[:4] {
		ref0, ref1 := l.sw.KeySwitch(in, l.evk)
		for _, df := range dataflow.AllDataflows() {
			l.sw.SwitchParallelInto(l.e, df, in, l.evk, l.c0, l.c1)
			verify.attempted++
			if !l.c0.Equal(ref0) || !l.c1.Equal(ref1) {
				verify.failed++
				err = errors.Join(err, fmt.Errorf("%s output differs from serial KeySwitch", df))
			}
			d.ordered(l.c0, l.c1)
		}
	}
	return warm, verify, d.String(), err
}

// ---- serve_fanout and serve_unshared ----

// serveLoad drives serve.Service directly, one client per tenant. Both
// workloads chain their inputs (the next operation switches the
// previous one's first C1), so no two operations can coalesce.
type serveLoad struct {
	cctx    *ckks.Context
	src     *serve.SeedKeySource
	svc     *serve.Service
	tenants []string
	fanout  bool
	seed    int64
	in      []*ring.Poly // per client: the chain's current input
	rots    []*rand.Rand // per client: serve_unshared's rotation draw
	spans   *spanLog
}

// rotationDraw is serve_unshared's request sequence for one client: a
// pure function of the seed and the client index.
func rotationDraw(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
}

func nextRotation(rng *rand.Rand) int { return 1 + rng.Intn(unsharedKeys) }

func newServeLoad(e env, fanout bool) (load, error) {
	cctx, err := ckks.NewContext(e.n(), qTowers, qBits, pTowers, pBits, e.def.dnum)
	if err != nil {
		return nil, err
	}
	l := &serveLoad{cctx: cctx, tenants: []string{"t0", "t1"}, fanout: fanout, seed: e.cfg.seed}
	if l.src, err = serve.NewSeedKeySource(cctx, l.tenants, true); err != nil {
		return nil, err
	}
	// One service configuration (serve's defaults) for both workloads;
	// only the traffic and the key budget differ. serve_fanout's budget
	// holds every key; serve_unshared's (32 MiB at 2^13) holds about 18
	// of the 96 compressed keys.
	cfg := serve.Config{Engine: e.e, DefaultLevel: topLevel, KeyBudget: 256 << 20}
	if !fanout {
		cfg.KeyBudget = int64(32<<20) * int64(e.n()) / 8192
	}
	if l.svc, err = serve.New(cctx.Switchers(), l.src, cfg); err != nil {
		return nil, err
	}
	s := ring.NewSampler(cctx.R, e.cfg.seed)
	for c := range l.tenants {
		l.in = append(l.in, uniformNTT(s, cctx.R.QBasis(topLevel)))
		l.rots = append(l.rots, rotationDraw(e.cfg.seed, c))
	}
	return l, nil
}

func (l *serveLoad) clients() int      { return len(l.tenants) }
func (l *serveLoad) ring() *ring.Ring  { return l.cctx.R }
func (l *serveLoad) trace(sp *spanLog) { l.spans = sp }
func (l *serveLoad) close()            { l.svc.Close() }

// submit sends one operation's rotations of in for a tenant and waits
// for all of them.
func (l *serveLoad) submit(tenant string, in *ring.Poly, rots []int, parent uint64) ([]serve.Result, error) {
	chans := make([]<-chan serve.Result, len(rots))
	sent := make([]time.Time, len(rots))
	req0 := l.spans.newReq(len(rots))
	for k, rot := range rots {
		sent[k] = time.Now()
		ch, err := l.svc.Submit(context.Background(), serve.Request{
			Input: in, Rot: rot, Dataflow: dataflow.OC, Tenant: tenant, Level: topLevel})
		if err != nil {
			return nil, err
		}
		chans[k] = ch
	}
	out := make([]serve.Result, len(rots))
	for k, ch := range chans {
		out[k] = <-ch
		l.spans.add(parent, req0+uint64(k), spanRequest, sent[k], time.Now())
		if out[k].Err != nil {
			return nil, out[k].Err
		}
	}
	return out, nil
}

var fanoutRots = []int{1, 2, 3, 4, 5, 6, 7, 8}

func (l *serveLoad) op(c, _ int, parent uint64) (int, error) {
	rots := fanoutRots
	if !l.fanout {
		rots = []int{nextRotation(l.rots[c])}
	}
	res, err := l.submit(l.tenants[c], l.in[c], rots, parent)
	if err != nil {
		return 0, err
	}
	l.in[c] = res[0].C1
	return len(rots), nil
}

func (l *serveLoad) prepare() (warm, verify tally, dg string, err error) {
	if !l.fanout {
		// Generate all 96 keys now, so the window's misses pay the
		// cache's load/compress/evict path and never GenEvk.
		for _, t := range l.tenants {
			for rot := 1; rot <= unsharedKeys; rot++ {
				if _, err := l.src.Key(serve.KeyID{Tenant: t, Rot: rot, Level: topLevel}); err != nil {
					return warm, verify, "", err
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		for c := range l.tenants {
			warm.attempted++
			if _, err := l.op(c, i, 0); err != nil {
				return warm, verify, "", err
			}
		}
	}

	// One fan-out per tenant (for serve_unshared, four single requests
	// drawn like the window's) against direct SwitchHoisted under the
	// same keys.
	d := newDigest(l.cctx.R)
	s := ring.NewSampler(l.cctx.R, l.seed+1)
	for c, t := range l.tenants {
		groups := [][]int{fanoutRots}
		if !l.fanout {
			rng := rotationDraw(l.seed+1, c)
			groups = [][]int{{nextRotation(rng)}, {nextRotation(rng)}, {nextRotation(rng)}, {nextRotation(rng)}}
		}
		kc, err := l.src.Chain(t)
		if err != nil {
			return warm, verify, "", err
		}
		sw, err := kc.Switcher(topLevel)
		if err != nil {
			return warm, verify, "", err
		}
		in := uniformNTT(s, sw.QBasis())
		for _, rots := range groups {
			evks := make([]*hks.Evk, len(rots))
			for k, rot := range rots {
				if evks[k], err = kc.HoistKey(rot, topLevel); err != nil {
					return warm, verify, "", err
				}
			}
			want0, want1 := sw.SwitchHoisted(in, evks)
			verify.attempted++
			got, serr := l.submit(t, in, rots, 0)
			if serr != nil {
				verify.failed++
				err = errors.Join(err, serr)
				continue
			}
			exact := true
			for k := range got {
				exact = exact && got[k].C0.Equal(want0[k]) && got[k].C1.Equal(want1[k])
				d.ordered(got[k].C0, got[k].C1)
			}
			if !exact {
				verify.failed++
				err = errors.Join(err, fmt.Errorf("tenant %s rotations %v differ from direct SwitchHoisted", t, rots))
			}
		}
	}
	return warm, verify, d.String(), err
}

// ---- replay_bootstrap and cluster_bootstrap ----

// dagLoad replays one bootstrap schedule per tenant, concurrently,
// either through one in-process service or through a router and two
// shards. One operation is every tenant's replay finishing.
type dagLoad struct {
	cctx    *ckks.Context
	sched   *workload.Schedule
	tenants []string
	seed    int64
	keys    *serve.SeedKeySource // the reference's keys, and the in-process service's
	servers []workload.Server    // per tenant
	stats   func() serve.Stats   // the serve layer's books, fabric-wide
	router  *cluster.Router      // cluster_bootstrap only
	closers []func()
	spans   *spanLog

	mu      sync.Mutex
	replays []*workload.ReplayResult // timed replays, in completion order
}

func newDagLoad(e env, fabric bool) (_ load, err error) {
	cctx, err := ckks.NewContext(e.n(), qTowers, qBits, pTowers, pBits, e.def.dnum)
	if err != nil {
		return nil, err
	}
	l := &dagLoad{cctx: cctx, seed: e.cfg.seed, tenants: []string{"t0"}}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	if l.sched, err = workload.Bootstrap(workload.BootstrapParams{LogSlots: 12, Top: topLevel}); err != nil {
		return nil, err
	}
	scfg := workload.ReplayServiceConfig(l.sched)
	scfg.Engine = e.e
	if !fabric {
		if l.keys, err = serve.NewSeedKeySource(cctx, l.tenants, true); err != nil {
			return nil, err
		}
		svc, err := serve.New(cctx.Switchers(), l.keys, scfg)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, svc.Close)
		l.servers = []workload.Server{svc}
		l.stats = svc.Stats
		return l, nil
	}

	l.tenants = []string{"t0", "t1"}
	// The reference derives the tenants' keys from their seeds, as the
	// shards do: no key crosses the wire.
	if l.keys, err = serve.NewSeedKeySource(cctx, l.tenants, true); err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		sh, err := cluster.NewShard(cctx, l.tenants, scfg)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, sh.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		served := make(chan struct{})
		go func() { defer close(served); _ = sh.Serve(ln) }() // returns once Close stops the listener
		l.closers = append(l.closers, func() { <-served })
	}
	if l.router, err = cluster.NewRouter(cctx.R, addrs, cluster.RouterConfig{Replicas: 1}); err != nil {
		return nil, err
	}
	for _, t := range l.tenants {
		l.servers = append(l.servers, &cluster.TenantView{Router: l.router, Tenant: t})
	}
	l.stats = func() serve.Stats { return cluster.AggregateStats(l.router.AllStats()) }
	return l, nil
}

func (l *dagLoad) clients() int      { return 1 }
func (l *dagLoad) ring() *ring.Ring  { return l.cctx.R }
func (l *dagLoad) trace(sp *spanLog) { l.spans = sp }

func (l *dagLoad) close() {
	if l.router != nil {
		l.router.Close()
	}
	for _, f := range l.closers {
		f()
	}
}

// replayOne replays tenant t's schedule against svc.
func (l *dagLoad) replayOne(t int, svc workload.Server, check bool) (*workload.ReplayResult, error) {
	return workload.Replay(context.Background(), svc, l.cctx.Switchers(), l.keys, l.cctx.R, l.sched,
		workload.ReplayConfig{Tenant: l.tenants[t], Dataflow: dataflow.OC, Seed: l.seed, Check: check})
}

// replayAll runs every tenant's replay concurrently and returns the
// results in tenant order. wrap, if set, stands between the replay
// client and the tenant's server.
func (l *dagLoad) replayAll(check bool, wrap func(workload.Server) workload.Server) ([]*workload.ReplayResult, error) {
	out := make([]*workload.ReplayResult, len(l.tenants))
	errs := make([]error, len(l.tenants))
	var wg sync.WaitGroup
	for t := range l.tenants {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			svc := l.servers[t]
			if wrap != nil {
				svc = wrap(svc)
			}
			out[t], errs[t] = l.replayOne(t, svc, check)
		}(t)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// replayExact is the per-replay correctness condition: the service's
// counters equal the schedule's prediction and no result overtook a
// predecessor.
func replayExact(res *workload.ReplayResult) error {
	if !res.CountsExact {
		return fmt.Errorf("counters differ from the schedule: %v", res.Mismatches)
	}
	if res.DepViolations != 0 {
		return fmt.Errorf("%d dependency-order violations", res.DepViolations)
	}
	if res.Checked && !res.BitExact {
		return fmt.Errorf("outputs differ from the serial replay: %v", res.Mismatches)
	}
	return nil
}

func (l *dagLoad) op(_, _ int, parent uint64) (int, error) {
	var wrap func(workload.Server) workload.Server
	if l.spans != nil {
		wrap = func(s workload.Server) workload.Server {
			return &wrapServer{inner: s, spans: l.spans, parent: parent, wire: l.router != nil}
		}
	}
	results, err := l.replayAll(false, wrap)
	if err != nil {
		return 0, err
	}
	switches := 0
	for _, res := range results {
		err = errors.Join(err, replayExact(res))
		switches += int(res.Served)
	}
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.replays = append(l.replays, results...)
	l.mu.Unlock()
	return switches, nil
}

// takeReplays hands over the timed replays recorded since the last call.
func (l *dagLoad) takeReplays() []*workload.ReplayResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.replays
	l.replays = nil
	return out
}

func (l *dagLoad) prepare() (warm, verify tally, dg string, err error) {
	// One checked replay is verification and warm-up at once: it
	// generates and caches every key the schedule touches and fills the
	// pools, and the serial reference it is compared with runs after it.
	d := newDigest(l.cctx.R)
	results, err := l.replayAll(true, func(s workload.Server) workload.Server {
		return &wrapServer{inner: s, digest: d}
	})
	verify.attempted++
	for _, res := range results {
		if err == nil {
			err = replayExact(res)
		}
	}
	if err != nil {
		verify.failed++
	}
	return warm, verify, d.String(), err
}

// wrapServer stands between workload.Replay and a tenant's server, in
// the benchmark's own files: it records a span per request (submit to
// result) and, around a cluster.TenantView, a span per submit call;
// for the verify replay it digests every result instead.
type wrapServer struct {
	inner  workload.Server
	spans  *spanLog
	parent uint64
	wire   bool
	digest *digest
}

func (w *wrapServer) Stats() serve.Stats { return w.inner.Stats() }

func (w *wrapServer) Submit(ctx context.Context, req serve.Request) (<-chan serve.Result, error) {
	chans, err := w.SubmitGroup(ctx, []serve.Request{req})
	if err != nil {
		return nil, err
	}
	return chans[0], nil
}

// SubmitGroup hands a hoist group over whole where the server takes
// groups (the cluster's tenant view) and as a tight Submit loop where
// it does not, which is what the replay client itself would do.
func (w *wrapServer) SubmitGroup(ctx context.Context, reqs []serve.Request) ([]<-chan serve.Result, error) {
	req0 := w.spans.newReq(len(reqs))
	t0 := time.Now()
	var chans []<-chan serve.Result
	if gs, ok := w.inner.(workload.GroupSubmitter); ok {
		var err error
		if chans, err = gs.SubmitGroup(ctx, reqs); err != nil {
			return nil, err
		}
	} else {
		for _, req := range reqs {
			ch, err := w.inner.Submit(ctx, req)
			if err != nil {
				return nil, err
			}
			chans = append(chans, ch)
		}
	}
	if w.wire {
		w.spans.add(w.parent, req0, spanSubmit, t0, time.Now())
	}
	out := make([]<-chan serve.Result, len(chans))
	for k, ch := range chans {
		fwd := make(chan serve.Result, 1)
		out[k] = fwd
		go func() {
			res := <-ch
			w.spans.add(w.parent, req0+uint64(k), spanRequest, t0, time.Now())
			if w.digest != nil && res.Err == nil {
				w.digest.unordered(res.C0, res.C1)
			}
			fwd <- res
		}()
	}
	return out, nil
}
