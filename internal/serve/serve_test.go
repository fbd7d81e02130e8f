package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// benchLevel is the level every testBench request targets (the pool
// serves others, but keys are pregenerated here only).
const benchLevel = 3

// testBench is a tiny switcher pool plus pregenerated per-tenant keys:
// big enough to exercise every pipeline stage, small enough for -race.
type testBench struct {
	r    *ring.Ring
	pool *hks.SwitcherPool
	sw   *hks.Switcher // the benchLevel switcher
	s    *ring.Sampler
	evks map[string]map[int]*hks.Evk // tenant -> rot -> key
	// loads counts backing-store loads across all KeyIDs.
	loads atomic.Uint64
}

// newTestBench pregenerates rots keys for each named tenant (none
// means the anonymous tenant ""). Tenants get independently sampled
// key material — genuinely distinct keyspaces.
func newTestBench(t *testing.T, rots int, tenants ...string) *testBench {
	t.Helper()
	if len(tenants) == 0 {
		tenants = []string{""}
	}
	r, err := ring.NewRingGenerated(32, 4, 40, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	pool := hks.NewSwitcherPool(r, 2)
	sw, err := pool.Switcher(benchLevel)
	if err != nil {
		t.Fatal(err)
	}
	b := &testBench{r: r, pool: pool, sw: sw, s: ring.NewSampler(r, 1), evks: map[string]map[int]*hks.Evk{}}
	full := r.DBasis(r.NumQ - 1)
	for _, tenant := range tenants {
		b.evks[tenant] = map[int]*hks.Evk{}
		for i := 0; i < rots; i++ {
			b.evks[tenant][i] = sw.GenEvk(b.s, b.s.Ternary(full), b.s.Ternary(full))
		}
	}
	return b
}

// keySource is a memoized backing store, like SeedKeySource: every
// load of one KeyID returns identical key material.
func (b *testBench) keySource() KeySource {
	return KeyMaterialFunc(func(id KeyID) (hks.KeyMaterial, error) {
		b.loads.Add(1)
		if id.Level != benchLevel {
			return nil, fmt.Errorf("no keys at level %d", id.Level)
		}
		evk, ok := b.evks[id.Tenant][id.Rot]
		if !ok {
			return nil, fmt.Errorf("no key for tenant %q rotation %d", id.Tenant, id.Rot)
		}
		return evk, nil
	})
}

// config routes zero-Level requests to benchLevel.
func (b *testBench) config(cfg Config) Config {
	cfg.DefaultLevel = benchLevel
	return cfg
}

func (b *testBench) newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(b.pool, b.keySource(), b.config(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func (b *testBench) input() *ring.Poly {
	d := b.s.Uniform(b.sw.QBasis())
	d.IsNTT = true
	return d
}

// wantSwitch is the reference result: the direct serial pipeline with
// the tenant's own key.
func (b *testBench) wantSwitch(tenant string, d *ring.Poly, rot int) (c0, c1 *ring.Poly) {
	return b.sw.KeySwitch(d, b.evks[tenant][rot])
}

// tenantStats picks one tenant's breakdown out of a snapshot.
func tenantStats(t *testing.T, st Stats, tenant string) Stats {
	t.Helper()
	for _, ts := range st.Tenants {
		if ts.Tenant == tenant {
			return ts
		}
	}
	t.Fatalf("no stats for tenant %q in %+v", tenant, st.Tenants)
	return Stats{}
}

// do is Submit plus waiting for the result, with a failed Submit
// folded into Result.Err.
func do(svc *Service, req Request) Result {
	ch, err := svc.Submit(context.Background(), req)
	if err != nil {
		return Result{Err: err}
	}
	return <-ch
}

// parkRot is the rotation of a tenant's first parking request (see
// park); the i-th parks on parkRot-i, so that each is a load of its own.
// No test asks a key source for a negative rotation otherwise.
const parkRot = -1

// gating wraps src so that loading a key gated reports true for parks
// the loading group — and sends its tenant on entered — until release
// is closed, then fails with fail or, when fail is nil, loads the key
// from src. The cache loads a key once, so only its first use parks.
func gating(src KeySource, gated func(KeyID) bool, fail error) (_ KeySource, entered <-chan string, release chan struct{}) {
	in, release := make(chan string, 4), make(chan struct{})
	return KeyMaterialFunc(func(id KeyID) (hks.KeyMaterial, error) {
		if !gated(id) {
			return src.Key(id)
		}
		in <- id.Tenant
		<-release
		if fail != nil {
			return nil, fail
		}
		return src.Key(id)
	}), in, release
}

// parking gates src on the parking rotations' keys, failing each load
// once released.
func parking(src KeySource) (parked KeySource, entered <-chan string, release chan struct{}) {
	return gating(src, func(id KeyID) bool { return id.Rot <= parkRot }, errors.New("parked"))
}

// hold submits reqs one at a time, each once the one before is parked
// in its gated key load (see gating), so that each is a group of its own
// holding one of its tenant's slots. Given a request per slot, it leaves
// the tenant's dispatcher waiting for a slot: everything the tenant
// submits until release is closed stays queued, in order, and a Submit
// past queueDepth blocks.
func hold(t *testing.T, svc *Service, entered <-chan string, reqs ...Request) []<-chan Result {
	t.Helper()
	chans := make([]<-chan Result, len(reqs))
	for i, req := range reqs {
		ch, err := svc.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		chans[i] = ch
	}
	return chans
}

// park wedges tenant with one parking request on in per slot (svc's
// source must come from parking; see hold). Once released, what queued
// behind them forms groups as the dispatcher pops it: adjacent matching
// Submits make one. A parking request fails before any ModUp: each
// books one submission, group, cache miss and failure, and no switch.
func park(t *testing.T, svc *Service, entered <-chan string, in *ring.Poly, tenant string) wedge {
	t.Helper()
	reqs := make([]Request, svc.cfg.Engine.Workers()+1)
	for i := range reqs {
		reqs[i] = Request{Input: in, Rot: parkRot - i, Tenant: tenant}
	}
	return hold(t, svc, entered, reqs...)
}

// wedge is the result channels of park's requests.
type wedge []<-chan Result

// failed waits, once released, for every parking request to fail — a
// failure is booked before it is delivered — and returns how many
// there were.
func (w wedge) failed(t *testing.T) uint64 {
	t.Helper()
	for i, ch := range w {
		if res := <-ch; res.Err == nil {
			t.Fatalf("parking request %d served", i)
		}
	}
	return uint64(len(w))
}

// newParkedService is newService over b's dense keys behind parking.
func (b *testBench) newParkedService(t *testing.T, cfg Config) (*Service, <-chan string, chan struct{}) {
	t.Helper()
	src, entered, release := parking(b.keySource())
	svc, err := New(b.pool, src, b.config(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return svc, entered, release
}

func checkResult(t *testing.T, res Result, want0, want1 *ring.Poly, what string) {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("%s: %v", what, res.Err)
	}
	if !res.C0.Equal(want0) || !res.C1.Equal(want1) {
		t.Fatalf("%s: served result differs from direct key switch", what)
	}
}

// TestCoalescedBitExact floods the queue — behind a parked
// dispatcher — with G inputs × K rotations and asserts (a) every
// result is bit-exact with an independent SwitchHoisted, (b) the
// coalescer ran exactly one ModUp per input, (c) the key cache loaded
// each rotation exactly once.
func TestCoalescedBitExact(t *testing.T) {
	const G, K = 3, 4
	b := newTestBench(t, K)
	e := engine.New(2)
	defer e.Close()

	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer svc.Close()
	wedged := park(t, svc, entered, b.input(), "")

	inputs := make([]*ring.Poly, G)
	want0 := make([][]*ring.Poly, G)
	want1 := make([][]*ring.Poly, G)
	for g := range inputs {
		inputs[g] = b.input()
		evks := make([]*hks.Evk, K)
		for k := range evks {
			evks[k] = b.evks[""][k]
		}
		want0[g], want1[g] = b.sw.SwitchHoisted(inputs[g], evks)
	}

	chs := make([][]<-chan Result, G)
	for g := 0; g < G; g++ {
		chs[g] = make([]<-chan Result, K)
		for k := 0; k < K; k++ {
			ch, err := svc.Submit(context.Background(), Request{Input: inputs[g], Rot: k})
			if err != nil {
				t.Fatal(err)
			}
			chs[g][k] = ch
		}
	}
	close(release)
	for g := 0; g < G; g++ {
		for k := 0; k < K; k++ {
			checkResult(t, <-chs[g][k], want0[g][k], want1[g][k],
				fmt.Sprintf("input %d rot %d", g, k))
		}
	}

	parked := wedged.failed(t)
	st := svc.Stats()
	if st.Served != G*K || st.Failed != parked {
		t.Fatalf("served %d / failed %d, want %d / %d (the parking requests)", st.Served, st.Failed, G*K, parked)
	}
	if st.ModUps != G {
		t.Fatalf("ran %d ModUps for %d coalesced inputs", st.ModUps, G)
	}
	if st.CoalescingFactor != K {
		t.Fatalf("coalescing factor %.2f, want %d", st.CoalescingFactor, K)
	}
	if st.Keys.Misses != K+parked || b.loads.Load() != K {
		t.Fatalf("cache loaded %d times with %d misses, want %d distinct keys and the parking misses",
			b.loads.Load(), st.Keys.Misses, K)
	}
	if st.Keys.HitRate <= 0.5 {
		t.Fatalf("hit rate %.2f, want > 0.5", st.Keys.HitRate)
	}
	if st.P99 < st.P50 || st.P50 <= 0 {
		t.Fatalf("implausible latencies p50=%v p99=%v", st.P50, st.P99)
	}
	// The anonymous tenant's breakdown carries the whole load.
	ts := tenantStats(t, st, "")
	if ts.Served != G*K || ts.ModUps != G || ts.Keys.Misses != K+parked {
		t.Fatalf("tenant breakdown %+v disagrees with global stats", ts)
	}
}

// TestPerDataflowRouting submits the same input under two dataflows:
// the groups must not merge (differently shaped hoist graphs), and
// both must produce bit-exact results.
func TestPerDataflowRouting(t *testing.T) {
	const K = 3
	b := newTestBench(t, K)
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer svc.Close()

	in := b.input()
	park(t, svc, entered, in, "")
	var chans []<-chan Result
	var wants [][2]*ring.Poly
	for _, df := range []dataflow.Dataflow{dataflow.DC, dataflow.OC} {
		for k := 0; k < K; k++ {
			ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: k, Dataflow: df})
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
			w0, w1 := b.wantSwitch("", in, k)
			wants = append(wants, [2]*ring.Poly{w0, w1})
		}
	}
	close(release)
	for i, ch := range chans {
		checkResult(t, <-ch, wants[i][0], wants[i][1], fmt.Sprintf("request %d", i))
	}
	if st := svc.Stats(); st.ModUps != 2 {
		t.Fatalf("%d ModUps, want 2 (one per dataflow group)", st.ModUps)
	}
}

// TestSingletonDirectPath serves one lone request — a group of one, on
// the group path, with no coalesce credit — and checks it against the
// serial pipeline.
func TestSingletonDirectPath(t *testing.T) {
	b := newTestBench(t, 1)
	e := engine.New(2)
	defer e.Close()
	svc := b.newService(t, Config{Engine: e})
	defer svc.Close()

	in := b.input()
	want0, want1 := b.wantSwitch("", in, 0)
	res := do(svc, Request{Input: in, Rot: 0})
	checkResult(t, res, want0, want1, "singleton")
	st := svc.Stats()
	if st.ModUps != 1 || st.Coalesced != 0 || st.CoalescingFactor != 1 {
		t.Fatalf("singleton stats: %+v", st)
	}
}

// TestEvictionMidFlight runs two concurrent coalesced groups through a
// one-key byte budget: every load evicts the other group's key while
// that key is still feeding an in-flight replay. Results must stay
// bit-exact and the cache must report reload churn.
func TestEvictionMidFlight(t *testing.T) {
	const G, K = 2, 3
	b := newTestBench(t, K)
	e := engine.New(2)
	defer e.Close()
	oneKey := int64(b.evks[""][0].SizeBytes())
	svc, entered, release := b.newParkedService(t, Config{
		Engine:    e,
		KeyBudget: oneKey, // capacity-one cache, in bytes
	})
	defer svc.Close()

	inputs := [G]*ring.Poly{b.input(), b.input()}
	park(t, svc, entered, inputs[0], "")
	var chs [G][K]<-chan Result
	for g := 0; g < G; g++ {
		for k := 0; k < K; k++ {
			ch, err := svc.Submit(context.Background(), Request{Input: inputs[g], Rot: k})
			if err != nil {
				t.Fatal(err)
			}
			chs[g][k] = ch
		}
	}
	close(release)
	for g := 0; g < G; g++ {
		for k := 0; k < K; k++ {
			want0, want1 := b.wantSwitch("", inputs[g], k)
			checkResult(t, <-chs[g][k], want0, want1, fmt.Sprintf("input %d rot %d", g, k))
		}
	}
	st := svc.Stats()
	if st.Keys.Evictions == 0 {
		t.Fatal("one-key budget under 3 rotations evicted nothing")
	}
	if st.Keys.Bytes > oneKey {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Keys.Bytes, oneKey)
	}
	if b.loads.Load() < K {
		t.Fatalf("only %d loads for %d distinct keys", b.loads.Load(), K)
	}
}

// TestConcurrentClients hammers the service from client goroutines
// with interleaved inputs and rotations — the -race workhorse for the
// dispatcher, coalescer, and cache together.
func TestConcurrentClients(t *testing.T) {
	const clients, ops, K = 4, 3, 3
	b := newTestBench(t, K)
	e := engine.New(2)
	defer e.Close()
	svc := b.newService(t, Config{Engine: e})
	defer svc.Close()

	// Sample inputs and reference outputs up front: the sampler is not
	// safe for concurrent use (the switcher is).
	inputs := make([]*ring.Poly, clients)
	for c := range inputs {
		inputs[c] = b.input()
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(in *ring.Poly) {
			defer wg.Done()
			var want0, want1 [K]*ring.Poly
			for k := 0; k < K; k++ {
				want0[k], want1[k] = b.wantSwitch("", in, k)
			}
			for op := 0; op < ops; op++ {
				var chans [K]<-chan Result
				for k := 0; k < K; k++ {
					ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: k})
					if err != nil {
						errc <- err
						return
					}
					chans[k] = ch
				}
				for k := 0; k < K; k++ {
					res := <-chans[k]
					if res.Err != nil {
						errc <- res.Err
						return
					}
					if !res.C0.Equal(want0[k]) || !res.C1.Equal(want1[k]) {
						errc <- fmt.Errorf("client result differs from direct switch")
						return
					}
				}
			}
		}(inputs[c])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Served != clients*ops*K {
		t.Fatalf("served %d, want %d", st.Served, clients*ops*K)
	}
	if st.Keys.Misses != K {
		t.Fatalf("memoized backing store missed %d times, want %d", st.Keys.Misses, K)
	}
}

// TestCrossTenantNoCoalesce submits the same input polynomial
// concurrently from two tenants: the requests must never share a
// hoisted ModUp — each tenant's results come from its own keyspace —
// and the per-tenant ModUps must sum to the service total (zero
// cross-tenant coalesces). Run
// under -race this also exercises two dispatchers racing on the
// shared engine and cache.
func TestCrossTenantNoCoalesce(t *testing.T) {
	const K = 3
	b := newTestBench(t, K, "a", "b")
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer svc.Close()

	in := b.input() // the *same* polynomial for both tenants
	park(t, svc, entered, in, "a")
	park(t, svc, entered, in, "b")
	var chans [2][K]<-chan Result
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for ti, tenant := range []string{"a", "b"} {
		wg.Add(1)
		go func(ti int, tenant string) {
			defer wg.Done()
			for k := 0; k < K; k++ {
				ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: k, Tenant: tenant})
				if err != nil {
					errc <- err
					return
				}
				chans[ti][k] = ch
			}
		}(ti, tenant)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	close(release)

	results := make([][2]*ring.Poly, 0, 2*K)
	for ti, tenant := range []string{"a", "b"} {
		for k := 0; k < K; k++ {
			want0, want1 := b.wantSwitch(tenant, in, k)
			res := <-chans[ti][k]
			checkResult(t, res, want0, want1, fmt.Sprintf("tenant %s rot %d", tenant, k))
			results = append(results, [2]*ring.Poly{res.C0, res.C1})
		}
	}
	// Distinct keyspaces must produce distinct outputs for the same
	// (input, rotation) — shared hoisted state across tenants would
	// have served one tenant's replay with the other's key.
	for k := 0; k < K; k++ {
		if results[k][0].Equal(results[K+k][0]) {
			t.Fatalf("rot %d: tenants produced identical outputs from distinct keys", k)
		}
	}

	st := svc.Stats()
	if st.ModUps != 2 {
		t.Fatalf("%d ModUps, want 2 (one per tenant, never shared)", st.ModUps)
	}
	var sum uint64
	for _, ts := range st.Tenants {
		if ts.ModUps != 1 {
			t.Fatalf("tenant %q ran %d ModUps, want 1 (its own coalesced group)", ts.Tenant, ts.ModUps)
		}
		sum += ts.ModUps
	}
	if sum != st.ModUps {
		t.Fatalf("per-tenant ModUps sum %d != global %d: a group crossed tenants", sum, st.ModUps)
	}
}

// fillQueue queues queueDepth Submits of in for tenant — a full queue,
// behind a wedged tenant — and returns their result channels.
func fillQueue(t *testing.T, svc *Service, in *ring.Poly, tenant string) []<-chan Result {
	t.Helper()
	chans := make([]<-chan Result, queueDepth)
	for i := range chans {
		ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: 1, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	return chans
}

// drain requires every channel to deliver a served result.
func drain(t *testing.T, chans []<-chan Result) {
	t.Helper()
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// TestTenantIsolationBackpressure wedges one tenant — every slot in an
// indefinitely blocked key load — with its queue saturated,
// then serves another tenant: the light tenant must complete — its
// queue, dispatcher, and latency are untouched by the hot tenant's
// backpressure, which is the whole point of per-tenant queues. (With
// the hot tenant blocked *indefinitely*, any light-tenant completion
// proves its p99 does not depend on the hot tenant.)
func TestTenantIsolationBackpressure(t *testing.T) {
	b := newTestBench(t, 2, "hot", "light")
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer func() { svc.Close() }()

	in := b.input()
	park(t, svc, entered, in, "hot") // every hot slot is stuck loading a key
	hot := fillQueue(t, svc, in, "hot")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := svc.Submit(ctx, Request{Input: in, Rot: 1, Tenant: "hot"}); err != context.DeadlineExceeded {
		t.Fatalf("over-queue hot Submit returned %v, want context.DeadlineExceeded", err)
	}

	// The hot tenant is saturated and wedged; the light tenant must be
	// completely unaffected.
	for k := 0; k < 2; k++ {
		want0, want1 := b.wantSwitch("light", in, k)
		res := do(svc, Request{Input: in, Rot: k, Tenant: "light"})
		checkResult(t, res, want0, want1, fmt.Sprintf("light rot %d under hot backpressure", k))
	}
	select {
	case res := <-hot[0]:
		t.Fatalf("hot request completed while its tenant was wedged: %+v", res.Err)
	default:
	}
	st := svc.Stats()
	light := tenantStats(t, st, "light")
	if light.Served != 2 || light.Failed != 0 {
		t.Fatalf("light tenant stats %+v, want 2 served", light)
	}
	if light.P99 <= 0 {
		t.Fatal("light tenant recorded no latencies")
	}
	if hot := tenantStats(t, st, "hot"); hot.Served != 0 {
		t.Fatalf("hot tenant served %d while parked", hot.Served)
	}

	close(release) // release the hot dispatcher; everything drains
	drain(t, hot)
}

// TestSubmitBlockedDoesNotStallNewTenant pins the locking granularity
// of Submit: while one producer is *blocked inside Submit* on a wedged
// tenant's full queue, a first-ever request from a brand-new tenant
// (which must create its worker — a map write) has to get through. A
// service-wide lock spanning the queue send would deadlock here via
// writer priority.
func TestSubmitBlockedDoesNotStallNewTenant(t *testing.T) {
	b := newTestBench(t, 2, "hot", "fresh")
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer func() { svc.Close() }()

	in := b.input()
	park(t, svc, entered, in, "hot") // hot tenant wedged in its key loads
	hot := fillQueue(t, svc, in, "hot")
	// This producer blocks *inside Submit* (nil-cancel send on a full
	// queue) until the hot tenant is released.
	hotBlocked := make(chan Result, 1)
	go func() {
		hotBlocked <- do(svc, Request{Input: in, Rot: 1, Tenant: "hot"})
	}()
	// Give the blocked Submit time to park in the send.
	time.Sleep(10 * time.Millisecond)

	want0, want1 := b.wantSwitch("fresh", in, 0)
	done := make(chan Result, 1)
	go func() {
		done <- do(svc, Request{Input: in, Rot: 0, Tenant: "fresh"})
	}()
	select {
	case res := <-done:
		checkResult(t, res, want0, want1, "new tenant under a blocked Submit")
	case <-time.After(10 * time.Second):
		t.Fatal("new tenant's first Submit stalled behind another tenant's blocked send")
	}

	close(release)
	drain(t, append(hot, hotBlocked))
}

// TestUnknownTenantRejectedEarly: a KeySource implementing
// TenantChecker (like SeedKeySource) makes Submit reject unknown
// tenants before a dispatcher, queue, or cache shard is allocated for
// them.
func TestUnknownTenantRejectedEarly(t *testing.T) {
	ctx, err := ckks.NewContext(32, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSeedKeySource(ctx, []string{""}, false)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(1)
	defer e.Close()
	svc, err := New(ctx.Switchers(), src, Config{Engine: e, DefaultLevel: ctx.MaxLevel})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sw, err := ctx.Switchers().Switcher(ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	s := ring.NewSampler(ctx.R, 3)
	in := s.Uniform(sw.QBasis())
	in.IsNTT = true
	if _, err := svc.Submit(context.Background(), Request{Input: in, Rot: 1, Tenant: "nobody"}); err == nil {
		t.Fatal("unknown tenant accepted by a TenantChecker-backed service")
	}
	if st := svc.Stats(); len(st.Tenants) != 0 {
		t.Fatalf("rejected tenant left a worker behind: %+v", st.Tenants)
	}
}

// TestBackpressure parks every slot of a tenant in a key load, fills the
// bounded queue to its constant depth, and asserts a further Submit
// blocks until its context dies rather than buffering without limit.
func TestBackpressure(t *testing.T) {
	b := newTestBench(t, 2)
	e := engine.New(1)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer func() { svc.Close() }()

	in := b.input()
	park(t, svc, entered, in, "")
	queued := fillQueue(t, svc, in, "")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := svc.Submit(ctx, Request{Input: in, Rot: 1}); err != context.DeadlineExceeded {
		t.Fatalf("over-queue Submit returned %v, want context.DeadlineExceeded", err)
	}

	close(release) // release the dispatcher; everything drains
	drain(t, queued)
}

// TestSubmitCoalescesAtDefaults is serve_fanout's shape at the
// service's own grouping constants: eight Submits of one input, queued
// behind a wedged tenant, are one group — one ModUp, eight
// coalesced requests — bit-exact with SwitchHoisted.
func TestSubmitCoalescesAtDefaults(t *testing.T) {
	const K = 8
	b := newTestBench(t, K)
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer svc.Close()

	in := b.input()
	park(t, svc, entered, in, "")
	rots := make([]int, K)
	chans := make([]<-chan Result, K)
	for k := range rots {
		rots[k] = k
		ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: k})
		if err != nil {
			t.Fatal(err)
		}
		chans[k] = ch
	}
	close(release)
	b.checkGroup(t, "", in, rots, chans, "coalesced fan-out")
	if st := svc.Stats(); st.Served != K || st.ModUps != 1 || st.Coalesced != K {
		t.Fatalf("served %d mod_ups %d coalesced %d, want %d/1/%d", st.Served, st.ModUps, st.Coalesced, K, K)
	}
}

// TestCloseDrains closes the service with requests still queued for
// two tenants: all of them must complete, and later Submits must fail
// fast.
func TestCloseDrains(t *testing.T) {
	const K = 3
	b := newTestBench(t, K, "", "other")
	e := engine.New(2)
	defer e.Close()
	svc := b.newService(t, Config{Engine: e})

	in := b.input()
	var chans [2 * K]<-chan Result
	for k := 0; k < K; k++ {
		for ti, tenant := range []string{"", "other"} {
			ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: k, Tenant: tenant})
			if err != nil {
				t.Fatal(err)
			}
			chans[2*k+ti] = ch
		}
	}
	svc.Close()
	for k := 0; k < K; k++ {
		for ti, tenant := range []string{"", "other"} {
			want0, want1 := b.wantSwitch(tenant, in, k)
			checkResult(t, <-chans[2*k+ti], want0, want1,
				fmt.Sprintf("drained tenant %q rot %d", tenant, k))
		}
	}
	if _, err := svc.Submit(context.Background(), Request{Input: in, Rot: 0}); err != ErrClosed {
		t.Fatalf("Submit after Close returned %v, want ErrClosed", err)
	}
	if _, err := svc.Submit(context.Background(), Request{Input: in, Rot: 0, Tenant: "new"}); err != ErrClosed {
		t.Fatalf("Submit for a fresh tenant after Close returned %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestRequestErrors covers the request-level failure paths: invalid
// inputs and levels rejected at Submit, key-load failures delivered
// per request (and not poisoning the cache or the rest of the group),
// and a group left with no key at all running nothing.
func TestRequestErrors(t *testing.T) {
	b := newTestBench(t, 2)
	e := engine.New(1)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer svc.Close()

	if _, err := svc.Submit(context.Background(), Request{Input: nil}); err == nil {
		t.Fatal("nil input accepted")
	}
	coeff := b.s.Uniform(b.sw.QBasis()) // coefficient domain: invalid
	if _, err := svc.Submit(context.Background(), Request{Input: coeff}); err == nil {
		t.Fatal("non-NTT input accepted")
	}
	bogus := Request{Input: b.input(), Rot: 0, Dataflow: dataflow.Dataflow(99)}
	if _, err := svc.Submit(context.Background(), bogus); err == nil {
		t.Fatal("unknown dataflow accepted (would panic the dispatcher)")
	}
	if _, err := svc.Submit(context.Background(), Request{Input: b.input(), Level: 99}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	// A valid level whose basis does not match the input fails the
	// input check, not the whole service.
	if _, err := svc.Submit(context.Background(), Request{Input: b.input(), Level: 1}); err == nil {
		t.Fatal("level/basis mismatch accepted")
	}

	// One good and one unknown rotation in the same coalesced group,
	// queued behind parking requests that fail.
	in := b.input()
	wedged := park(t, svc, entered, in, "")
	good, err := svc.Submit(context.Background(), Request{Input: in, Rot: 0})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := svc.Submit(context.Background(), Request{Input: in, Rot: 99})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if res := <-bad; res.Err == nil {
		t.Fatal("unknown rotation served without error")
	}
	want0, want1 := b.wantSwitch("", in, 0)
	checkResult(t, <-good, want0, want1, "good request in mixed group")

	// An unknown tenant fails its own request only.
	stray, err := svc.Submit(context.Background(), Request{Input: in, Rot: 0, Tenant: "nobody"})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-stray; res.Err == nil {
		t.Fatal("unknown tenant served without error")
	}

	// The mixed group ran for its one good key: one ModUp, and the
	// coalesce credit of the group as it was formed.
	parked := wedged.failed(t)
	st := svc.Stats()
	if st.Failed != parked+2 || st.Served != 1 || st.ModUps != 1 || st.Coalesced != 2 {
		t.Fatalf("failed %d / served %d / mod_ups %d / coalesced %d, want %d / 1 / 1 / 2",
			st.Failed, st.Served, st.ModUps, st.Coalesced, parked+2)
	}

	// A group none of whose keys resolves has nobody to hoist for: it
	// fails every member and books nothing else — like the lone stray
	// above, and unlike a ModUp run for no one.
	dead, err := svc.SubmitGroup(context.Background(), groupOf(b.input(), "", 98, 99))
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range dead {
		if res := <-ch; res.Err == nil {
			t.Fatalf("member %d of the keyless group served without error", i)
		}
	}
	after := svc.Stats()
	if after.Failed != st.Failed+2 || after.ModUps != st.ModUps || after.Coalesced != st.Coalesced ||
		!reflect.DeepEqual(after.PerLevel, st.PerLevel) {
		t.Fatalf("keyless group moved the books: failed %d mod_ups %d coalesced %d levels %+v, were %d / %d / %d / %+v",
			after.Failed, after.ModUps, after.Coalesced, after.PerLevel, st.Failed, st.ModUps, st.Coalesced, st.PerLevel)
	}
	for _, ps := range after.Phases {
		if ps.Phase == "hoist" && ps.Count != 1 {
			t.Fatalf("%d hoists booked, want the mixed group's one", ps.Count)
		}
	}
}

// TestWrongLevelKeyFailsOneRequest: a KeySource that hands back a key
// generated at another level — right digit count, wrong extended
// basis — must cost exactly the requests that asked for it. Before
// CheckMaterial validated bases such a key reached the apply tiles and
// the index fault there took the whole process down. Covered for a
// lone request and inside a coalesced group, for dense and compressed
// material.
func TestWrongLevelKeyFailsOneRequest(t *testing.T) {
	b := newTestBench(t, 1)
	swLow, err := b.pool.Switcher(benchLevel - 2)
	if err != nil {
		t.Fatal(err)
	}
	if swLow.Dnum != b.sw.Dnum {
		t.Fatalf("level %d has dnum %d, want the serving level's %d", len(swLow.QBasis())-1, swLow.Dnum, b.sw.Dnum)
	}
	full := b.r.DBasis(b.r.NumQ - 1)
	low := swLow.GenEvk(b.s, b.s.Ternary(full), b.s.Ternary(full))
	lowC, ok := low.Compress()
	if !ok {
		t.Fatal("evk did not compress")
	}
	src := KeyMaterialFunc(func(id KeyID) (hks.KeyMaterial, error) {
		switch id.Rot {
		case 1:
			return low, nil
		case 2:
			return lowC, nil
		}
		return b.evks[""][0], nil
	})
	e := engine.New(2)
	defer e.Close()
	parked, entered, release := parking(src)
	svc, err := New(b.pool, parked, b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	submit := func(in *ring.Poly, rot int) <-chan Result {
		t.Helper()
		ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: rot})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	mustFail := func(ch <-chan Result, what string) {
		t.Helper()
		if res := <-ch; res.Err == nil || !strings.Contains(res.Err.Error(), "basis") {
			t.Fatalf("%s: got %v, want a basis error", what, res.Err)
		}
	}
	// Alone in the queue: groups of one.
	mustFail(submit(b.input(), 1), "dense wrong-level key, singleton")
	mustFail(submit(b.input(), 2), "compressed wrong-level key, singleton")
	// Coalesced with a good request on one hoisted input.
	in := b.input()
	wedged := park(t, svc, entered, in, "")
	good, badDense, badComp := submit(in, 0), submit(in, 1), submit(in, 2)
	close(release)
	mustFail(badDense, "dense wrong-level key, coalesced")
	mustFail(badComp, "compressed wrong-level key, coalesced")
	want0, want1 := b.wantSwitch("", in, 0)
	checkResult(t, <-good, want0, want1, "good request beside wrong-level keys")
	// And the service is still serving.
	in = b.input()
	want0, want1 = b.wantSwitch("", in, 0)
	checkResult(t, <-submit(in, 0), want0, want1, "request after the failures")
	n := wedged.failed(t)
	if st := svc.Stats(); st.Failed != n+4 || st.Served != 2 {
		t.Fatalf("failed %d / served %d, want %d / 2 (the parking requests among the failures)", st.Failed, st.Served, n+4)
	}
}

// TestNewConfigErrors checks constructor validation.
func TestNewConfigErrors(t *testing.T) {
	b := newTestBench(t, 1)
	if _, err := New(nil, b.keySource(), Config{}); err == nil {
		t.Fatal("nil switcher pool accepted")
	}
	if _, err := New(b.pool, nil, Config{}); err == nil {
		t.Fatal("nil key source accepted")
	}
}

// chainService serves the one tenant "" of a SeedKeySource over ctx,
// behind parking, and returns the tenant's ckks.KeyChain.
func chainService(t *testing.T, ctx *ckks.Context, e *engine.Engine, level int) (*Service, *ckks.KeyChain, <-chan string, chan struct{}) {
	t.Helper()
	src, err := NewSeedKeySource(ctx, []string{""}, false)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := src.Chain("")
	if err != nil {
		t.Fatal(err)
	}
	parked, entered, release := parking(src)
	svc, err := New(ctx.Switchers(), parked, Config{Engine: e, DefaultLevel: level})
	if err != nil {
		t.Fatal(err)
	}
	return svc, kc, entered, release
}

// levelInput samples a key-switch input at level.
func levelInput(t *testing.T, kc *ckks.KeyChain, s *ring.Sampler, level int) *ring.Poly {
	t.Helper()
	sw, err := kc.Switcher(level)
	if err != nil {
		t.Fatal(err)
	}
	in := s.Uniform(sw.QBasis())
	in.IsNTT = true
	return in
}

// TestServeKeyChain serves hoisting-form rotations from a
// ckks.KeyChain — SeedKeySource resolves keys through it — and checks
// them against the direct switch with the same (memoized) keys.
func TestServeKeyChain(t *testing.T) {
	ctx, err := ckks.NewContext(32, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	level := ctx.MaxLevel
	e := engine.New(2)
	defer e.Close()
	svc, kc, entered, release := chainService(t, ctx, e, level)
	defer svc.Close()

	sw, err := kc.Switcher(level)
	if err != nil {
		t.Fatal(err)
	}
	s := ring.NewSampler(ctx.R, 3)
	in := s.Uniform(sw.QBasis())
	in.IsNTT = true
	park(t, svc, entered, in, "")

	rots := []int{1, 2, 5}
	chans := make([]<-chan Result, len(rots))
	for i, rot := range rots {
		ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: rot})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	close(release)
	for i, rot := range rots {
		evk, err := kc.HoistKey(rot, level)
		if err != nil {
			t.Fatal(err)
		}
		want0, want1 := sw.KeySwitch(in, evk)
		checkResult(t, <-chans[i], want0, want1, fmt.Sprintf("rotation %d", rot))
	}
	if st := svc.Stats(); st.ModUps != 1 {
		t.Fatalf("%d ModUps for one coalesced ciphertext, want 1", st.ModUps)
	}
}

// TestLevelRouting drives one service at two ciphertext levels: each
// request must run on its level's switcher with its level's key and
// come back bit-exact with the direct switch at that level.
func TestLevelRouting(t *testing.T) {
	ctx, err := ckks.NewContext(32, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(2)
	defer e.Close()

	top := ctx.MaxLevel
	levels := []int{top, top - 1}
	svc, kc, entered, release := chainService(t, ctx, e, top)
	defer svc.Close()

	s := ring.NewSampler(ctx.R, 4)
	park(t, svc, entered, levelInput(t, kc, s, top), "")
	const rot = 2
	type want struct {
		ch     <-chan Result
		c0, c1 *ring.Poly
		level  int
	}
	var wants []want
	for _, level := range levels {
		sw, err := kc.Switcher(level)
		if err != nil {
			t.Fatal(err)
		}
		in := s.Uniform(sw.QBasis())
		in.IsNTT = true
		for k := 0; k < 2; k++ {
			ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: rot + k, Level: level})
			if err != nil {
				t.Fatal(err)
			}
			evk, err := kc.HoistKey(rot+k, level)
			if err != nil {
				t.Fatal(err)
			}
			w0, w1 := sw.KeySwitch(in, evk)
			wants = append(wants, want{ch: ch, c0: w0, c1: w1, level: level})
		}
	}
	close(release)
	for i, w := range wants {
		res := <-w.ch
		checkResult(t, res, w.c0, w.c1, fmt.Sprintf("request %d at level %d", i, w.level))
		if got := len(res.C0.Basis); got != w.level+1 {
			t.Fatalf("level %d result spans %d towers", w.level, got)
		}
	}
	st := svc.Stats()
	if st.Served != 4 || st.ModUps != 2 {
		t.Fatalf("stats %+v: want 4 served over 2 level-scoped ModUps", st)
	}
}

// TestPerLevelCounters drives two levels through one service and
// checks the per-level switch/ModUp breakdown — globally and in the
// tenant slice — matches what was submitted: at each level, two
// rotations sharing one input are 2 switches over 1 hoisted ModUp.
func TestPerLevelCounters(t *testing.T) {
	ctx, err := ckks.NewContext(32, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(2)
	defer e.Close()
	svc, kc, entered, release := chainService(t, ctx, e, ctx.MaxLevel)
	defer svc.Close()

	s := ring.NewSampler(ctx.R, 4)
	park(t, svc, entered, levelInput(t, kc, s, ctx.MaxLevel), "")
	levels := []int{ctx.MaxLevel, ctx.MaxLevel - 1}
	var chans []<-chan Result
	for _, level := range levels {
		in := levelInput(t, kc, s, level)
		for k := 0; k < 2; k++ {
			ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: 1 + k, Level: level})
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
	}
	close(release)
	drain(t, chans)

	st := svc.Stats()
	if len(st.PerLevel) != 2 {
		t.Fatalf("PerLevel %+v, want both levels", st.PerLevel)
	}
	var sumSw, sumMu uint64
	for i, lc := range st.PerLevel {
		if lc.Level != levels[i] {
			t.Fatalf("PerLevel not descending: %+v", st.PerLevel)
		}
		if lc.Switches != 2 || lc.ModUps != 1 {
			t.Fatalf("level %d counters %+v, want 2 switches / 1 ModUp", lc.Level, lc)
		}
		sumSw += lc.Switches
		sumMu += lc.ModUps
	}
	// The slice must reproduce the totals.
	if sumSw != st.Served || sumMu != st.ModUps {
		t.Fatalf("per-level sums %d/%d vs totals %d/%d", sumSw, sumMu, st.Served, st.ModUps)
	}
	// The single tenant's breakdown is the whole breakdown.
	ts := tenantStats(t, st, "")
	if len(ts.PerLevel) != 2 || ts.PerLevel[0] != st.PerLevel[0] || ts.PerLevel[1] != st.PerLevel[1] {
		t.Fatalf("tenant PerLevel %+v differs from global %+v", ts.PerLevel, st.PerLevel)
	}
}

// TestStatsSnapshotIsolated pins the two serialization properties the
// cluster wire format relies on: a Stats() value shares no storage with
// later ones (mutating one cannot corrupt another), and the JSON field
// names are the stable wire contract.
func TestStatsSnapshotIsolated(t *testing.T) {
	b := newTestBench(t, 2)
	svc := b.newService(t, Config{})
	defer svc.Close()
	in := b.input()
	for k := 0; k < 2; k++ {
		ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: k})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { <-ch }()
	}
	var st Stats
	waitUntil := time.Now().Add(5 * time.Second)
	for st = svc.Stats(); st.Served < 2 && time.Now().Before(waitUntil); st = svc.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Served != 2 || len(st.PerLevel) == 0 || len(st.Tenants) == 0 {
		t.Fatalf("snapshot incomplete: %+v", st)
	}

	// Mutating the snapshot's slices must not leak into fresh ones.
	st.PerLevel[0].Switches = 999
	st.Tenants[0].PerLevel[0].ModUps = 999
	st.Keys.Tenants[0].Hits = 999
	fresh := svc.Stats()
	if fresh.PerLevel[0].Switches == 999 || fresh.Tenants[0].PerLevel[0].ModUps == 999 ||
		fresh.Keys.Tenants[0].Hits == 999 {
		t.Fatal("snapshot mutation visible in a fresh snapshot")
	}

	// The JSON wire names are a compatibility contract: a stats frame
	// written by one shard build must parse on another.
	raw, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"submitted", "served", "failed", "batches", "groups", "mod_ups",
		"coalesced", "coalescing_factor", "keys", "p50", "p99", "per_level", "tenants",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("stats JSON missing %q: %s", key, raw)
		}
	}
	var back Stats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, fresh) {
		t.Fatalf("stats JSON round trip differs:\n%+v\n%+v", back, fresh)
	}
}
