package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// compressedSource is the testBench backing store handing back
// seed-compressed material: the same keys as keySource, in the form a
// SeedKeySource with compression on would serve them.
func (b *testBench) compressedSource(t *testing.T) KeySource {
	t.Helper()
	return KeyMaterialFunc(func(id KeyID) (hks.KeyMaterial, error) {
		b.loads.Add(1)
		if id.Level != benchLevel {
			return nil, fmt.Errorf("no keys at level %d", id.Level)
		}
		evk, ok := b.evks[id.Tenant][id.Rot]
		if !ok {
			return nil, fmt.Errorf("no key for tenant %q rotation %d", id.Tenant, id.Rot)
		}
		c, ok := evk.Compress()
		if !ok {
			return nil, fmt.Errorf("key for rotation %d did not compress", id.Rot)
		}
		return c, nil
	})
}

// TestCompressedServingBitExact serves a coalesced group and a
// singleton from a compressed key source and checks every result
// against the dense direct switch: drawing the A-half in the apply tiles
// must change residency and scheduling, never values. It also pins the
// expansion accounting — one expansion per served request (hits draw
// too; that is the compression trade) — and that the cache charges the
// compressed footprint, below what the same keys expanded occupy.
func TestCompressedServingBitExact(t *testing.T) {
	const K = 4
	b := newTestBench(t, K)
	e := engine.New(4)
	defer e.Close()
	svc, err := New(b.pool, b.compressedSource(t), b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Coalesced group: K rotations of one input.
	in := b.input()
	chans := make([]<-chan Result, K)
	for rot := 0; rot < K; rot++ {
		ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: rot})
		if err != nil {
			t.Fatal(err)
		}
		chans[rot] = ch
	}
	for rot := 0; rot < K; rot++ {
		want0, want1 := b.wantSwitch("", in, rot)
		checkResult(t, <-chans[rot], want0, want1, fmt.Sprintf("coalesced rotation %d", rot))
	}
	// Singleton on a fresh input: a group of one.
	lone := b.input()
	want0, want1 := b.wantSwitch("", lone, 1)
	checkResult(t, do(svc, Request{Input: lone, Rot: 1}), want0, want1, "singleton")

	st := svc.Stats()
	if st.Served != K+1 {
		t.Fatalf("served %d, want %d", st.Served, K+1)
	}
	if st.KeyExpansions != K+1 {
		t.Fatalf("%d key expansions for %d served requests, want one each", st.KeyExpansions, K+1)
	}
	if ts := tenantStats(t, st, ""); ts.KeyExpansions != K+1 {
		t.Fatalf("tenant expansions %d, want %d", ts.KeyExpansions, K+1)
	}
	var dense int
	for rot := 0; rot < K; rot++ {
		c, _ := b.evks[""][rot].Compress()
		dense += c.Expand(b.r).SizeBytes()
	}
	if int64(dense) <= st.Keys.Bytes {
		t.Fatalf("dense footprint %d not above compressed resident %d", dense, st.Keys.Bytes)
	}
	// K keys × dnum 2 × (N 32 × (4 × 5 bytes of a 40-bit Q residue +
	// 3 × 6 of a 41-bit P residue) + 32 bytes of seed).
	const wantComp = K * 2496
	if st.Keys.Bytes != wantComp {
		t.Fatalf("compressed resident %d bytes, want %d", st.Keys.Bytes, wantComp)
	}
}

// TestCompressedHalvedBudget runs the identical request sequence
// through a dense service with budget B and a compressed service with
// budget B/2: the halved budget must hold the same working set — same
// hits, misses, evictions — and serve bit-identical results.
func TestCompressedHalvedBudget(t *testing.T) {
	const K = 4
	b := newTestBench(t, K)
	e := engine.New(4)
	defer e.Close()

	denseKey := int64(b.evks[""][0].SizeBytes())
	budget := K*denseKey + 4096 // all K dense keys fit, with slack

	run := func(keys KeySource, budget int64) (Stats, []Result) {
		svc, err := New(b.pool, keys, b.config(Config{Engine: e, KeyBudget: budget}))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var out []Result
		// Two passes over every rotation: pass one misses, pass two hits.
		for pass := 0; pass < 2; pass++ {
			in := b.input()
			chans := make([]<-chan Result, K)
			for rot := 0; rot < K; rot++ {
				ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: rot})
				if err != nil {
					t.Fatal(err)
				}
				chans[rot] = ch
			}
			for rot := 0; rot < K; rot++ {
				res := <-chans[rot]
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				want0, want1 := b.wantSwitch("", in, rot)
				checkResult(t, res, want0, want1, fmt.Sprintf("pass %d rotation %d", pass, rot))
				out = append(out, res)
			}
		}
		return svc.Stats(), out
	}

	dense, _ := run(b.keySource(), budget)
	comp, _ := run(b.compressedSource(t), budget/2)

	dk, ck := dense.Keys, comp.Keys
	if ck.Hits != dk.Hits || ck.Misses != dk.Misses || ck.Evictions != dk.Evictions {
		t.Fatalf("halved-budget compressed cache (h/m/e %d/%d/%d) differs from full-budget dense (%d/%d/%d)",
			ck.Hits, ck.Misses, ck.Evictions, dk.Hits, dk.Misses, dk.Evictions)
	}
	if dk.Evictions != 0 {
		t.Fatalf("dense run evicted %d keys; budget was sized to fit", dk.Evictions)
	}
	if ck.Bytes > budget/2 {
		t.Fatalf("compressed resident %d exceeds halved budget %d", ck.Bytes, budget/2)
	}
	if dense.KeyExpansions != 0 {
		t.Fatalf("dense run counted %d expansions", dense.KeyExpansions)
	}
	if comp.KeyExpansions == 0 {
		t.Fatal("compressed run counted no expansions")
	}
}

// TestTenantSeed: the seed every process derives a tenant's keys from
// is a function of the name alone, differs between tenants, and is
// positive — never the zero that would read as "unset".
func TestTenantSeed(t *testing.T) {
	if TenantSeed("t0") != TenantSeed("t0") {
		t.Fatal("TenantSeed not deterministic")
	}
	if TenantSeed("t0") == TenantSeed("t1") {
		t.Fatal("TenantSeed collides on distinct tenants")
	}
	for _, tn := range []string{"", "t0", "t1", "a-long-tenant-name"} {
		if TenantSeed(tn) <= 0 {
			t.Fatalf("TenantSeed(%q) = %d, want positive", tn, TenantSeed(tn))
		}
	}
}

// TestSeedKeySourceUnified pins the satellite contract: the
// single-process service and the cluster shards construct keys through
// one code path. A SeedKeySource's material — compressed or dense —
// must be bit-identical to an independently built chain seeded with
// TenantSeed (what a shard does), and serving through it must match
// that chain's direct switch.
func TestSeedKeySourceUnified(t *testing.T) {
	ctx, err := ckks.NewContext(32, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"alpha", "beta"}
	src, err := NewSeedKeySource(ctx, tenants, true)
	if err != nil {
		t.Fatal(err)
	}
	srcDense, err := NewSeedKeySource(ctx, tenants, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSeedKeySource(nil, tenants, false); err == nil {
		t.Fatal("nil context accepted")
	}
	if _, err := NewSeedKeySource(ctx, []string{"a", "a"}, false); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if !src.HasTenant("alpha") || src.HasTenant("gamma") {
		t.Fatal("HasTenant does not match the fixed tenant set")
	}
	if _, err := src.Key(KeyID{Tenant: "gamma"}); err == nil {
		t.Fatal("unknown tenant served a key")
	}

	level := ctx.MaxLevel
	sw, err := ctx.Switchers().Switcher(level)
	if err != nil {
		t.Fatal(err)
	}
	const rot = 3
	for _, tenant := range tenants {
		// The shard-side reference: an independent chain from the seed.
		refChain, _ := ckks.GenKeys(ctx, TenantSeed(tenant))
		ref, err := refChain.HoistKey(rot, level)
		if err != nil {
			t.Fatal(err)
		}
		id := KeyID{Tenant: tenant, Rot: rot, Level: level}
		mat, err := src.Key(id)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := mat.(*hks.CompressedEvk)
		if !ok {
			t.Fatalf("compressing source returned %T", mat)
		}
		got := c.Expand(ctx.R)
		matDense, err := srcDense.Key(id)
		if err != nil {
			t.Fatal(err)
		}
		dense, ok := matDense.(*hks.Evk)
		if !ok {
			t.Fatalf("dense source returned %T", matDense)
		}
		for _, evk := range []*hks.Evk{got, dense} {
			for j := range ref.B {
				if !evk.B[j].Equal(ref.B[j]) || !evk.A[j].Equal(ref.A[j]) {
					t.Fatalf("tenant %q digit %d differs from the seed-chain reference", tenant, j)
				}
			}
		}
	}

	// Serving through the compressing source is bit-exact with the
	// chain's direct switch.
	e := engine.New(2)
	defer e.Close()
	svc, err := New(ctx.Switchers(), src, Config{Engine: e, DefaultLevel: level})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s := ring.NewSampler(ctx.R, 9)
	in := s.Uniform(sw.QBasis())
	in.IsNTT = true
	kc, err := src.Chain("alpha")
	if err != nil {
		t.Fatal(err)
	}
	evk, err := kc.HoistKey(rot, level)
	if err != nil {
		t.Fatal(err)
	}
	want0, want1 := sw.KeySwitch(in, evk)
	res := do(svc, Request{Input: in, Rot: rot, Tenant: "alpha"})
	checkResult(t, res, want0, want1, "seed-source serve")
	if st := svc.Stats(); st.KeyExpansions == 0 {
		t.Fatal("compressed serve counted no expansions")
	}
}

// A KeySource's error return must carry the nil interface: a typed nil
// *hks.CompressedEvk inside a non-nil KeyMaterial would slip past every
// `mat == nil` check downstream. Both forms, unknown tenant and
// unservable level.
func TestSeedKeySourceErrorsReturnNilInterface(t *testing.T) {
	ctx, err := ckks.NewContext(32, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{true, false} {
		src, err := NewSeedKeySource(ctx, []string{"alpha"}, compress)
		if err != nil {
			t.Fatal(err)
		}
		for what, id := range map[string]KeyID{
			"unknown tenant":     {Tenant: "gamma", Rot: 1, Level: ctx.MaxLevel},
			"level out of range": {Tenant: "alpha", Rot: 1, Level: ctx.MaxLevel + 1},
		} {
			mat, err := src.Key(id)
			if err == nil {
				t.Fatalf("compress=%v, %s: served a key", compress, what)
			}
			if mat != nil {
				t.Fatalf("compress=%v, %s: error came with non-nil material %T", compress, what, mat)
			}
		}
	}
}

// Results belong to whoever received them. The service draws them from
// the ring's pool and must never hand one back: a caller that holds 64
// results while 64 more requests run finds each of them exactly as
// delivered, and no two results sharing a polynomial.
func TestHeldResultsSurviveLaterRequests(t *testing.T) {
	const K = 4
	b := newTestBench(t, K)
	e := engine.New(2)
	defer e.Close()
	svc, err := New(b.pool, b.compressedSource(t), b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	type held struct {
		res    Result
		c0, c1 *ring.Poly // copies taken at delivery
	}
	round := func(n int) []held {
		var out []held
		for len(out) < n {
			chans, err := svc.SubmitGroup(context.Background(), groupOf(b.input(), "", 0, 1, 2, 3))
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range chans {
				res := <-ch
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				out = append(out, held{res, res.C0.Copy(), res.C1.Copy()})
			}
			lone := do(svc, Request{Input: b.input(), Rot: 1})
			if lone.Err != nil {
				t.Fatal(lone.Err)
			}
			out = append(out, held{lone, lone.C0.Copy(), lone.C1.Copy()})
		}
		return out
	}
	first := round(64)
	round(64)
	seen := map[*ring.Poly]bool{}
	for i, h := range first {
		if !h.res.C0.Equal(h.c0) || !h.res.C1.Equal(h.c1) {
			t.Fatalf("held result %d was mutated by a later request", i)
		}
		if seen[h.res.C0] || seen[h.res.C1] || h.res.C0 == h.res.C1 {
			t.Fatalf("held result %d shares a polynomial with another result", i)
		}
		seen[h.res.C0], seen[h.res.C1] = true, true
	}
}

// One tenant's first key load must not stall another tenant's
// admission: HasTenant is on the path of every Submit of every tenant,
// and Chain("a") spends tens of milliseconds in ckks.GenKeys on a ring
// this size. While that build runs, a second goroutine's HasTenant("b")
// calls must keep completing — behind a mutex shared with the build
// they would all wait for it to end.
func TestHasTenantDoesNotWaitForChainBuild(t *testing.T) {
	ctx, err := ckks.NewContext(1<<16, 8, 40, 2, 41, 4)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSeedKeySource(ctx, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !src.HasTenant("b") {
				t.Error("tenant b unknown")
				return
			}
			calls.Add(1)
		}
	}()
	for calls.Load() == 0 { // the prober is running
		runtime.Gosched()
	}
	before, start := calls.Load(), time.Now()
	kc, err := src.Chain("a")
	if err != nil {
		t.Fatal(err)
	}
	during, build := calls.Load()-before, time.Since(start)
	close(stop)
	<-stopped
	t.Logf("%d HasTenant(b) calls during the %v build", during, build)
	if during < 1000 {
		t.Fatalf("%d HasTenant(b) calls completed during the %v build of tenant a's chain: admission waits on another tenant's key load", during, build)
	}
	if again, _ := src.Chain("a"); again != kc {
		t.Fatal("Chain rebuilt a tenant's chain")
	}
}
