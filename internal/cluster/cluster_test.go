package cluster

import (
	"context"
	"math/bits"
	"net"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
	"ciflow/internal/workload"
)

// testCluster is an in-process fabric: n shards on loopback TCP, one
// router, all sharing one ckks context (the processes of `ciflow
// serve -shards`, minus the process boundary — the wire between
// them is the real one).
type testCluster struct {
	cctx   *ckks.Context
	rt     *Router
	shards []*Shard
	addrs  []string // per shard
}

func startCluster(t *testing.T, n int, tenants []string, s *workload.Schedule, rcfg RouterConfig) *testCluster {
	t.Helper()
	cctx := testCtx(t)
	tc := &testCluster{cctx: cctx}
	for i := 0; i < n; i++ {
		e := engine.New(2)
		t.Cleanup(e.Close)
		cfg := workload.ReplayServiceConfig(s)
		cfg.Engine = e
		sh, err := NewShard(cctx, tenants, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go sh.Serve(ln)
		t.Cleanup(sh.Close)
		tc.shards = append(tc.shards, sh)
		tc.addrs = append(tc.addrs, ln.Addr().String())
	}
	rt, err := NewRouter(cctx.R, tc.addrs, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tc.rt = rt
	return tc
}

// replayTenant drives one tenant's schedule through the router with
// the serial bit-exactness reference enabled; the reference keys are
// re-derived locally from the tenant's deterministic seed, never
// fetched from a shard.
func (tc *testCluster) replayTenant(s *workload.Schedule, tenant string) (*workload.ReplayResult, error) {
	chains, err := serve.NewSeedKeySource(tc.cctx, []string{tenant}, false)
	if err != nil {
		return nil, err
	}
	tv := &TenantView{Router: tc.rt, Tenant: tenant}
	return workload.Replay(context.Background(), tv, tc.cctx.Switchers(), chains, tc.cctx.R,
		s, workload.ReplayConfig{Tenant: tenant, Seed: 7, Check: true})
}

func testSchedule(t *testing.T) *workload.Schedule {
	t.Helper()
	s, err := workload.Bootstrap(workload.BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func assertReplayExact(t *testing.T, res *workload.ReplayResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !res.CountsExact {
		t.Fatalf("cluster counters drifted from the schedule: %v", res.Mismatches)
	}
	if !res.Checked || !res.BitExact {
		t.Fatalf("serial reference check failed over the wire: %v", res.Mismatches)
	}
	if res.DepViolations != 0 {
		t.Fatalf("%d dependency-order violations", res.DepViolations)
	}
}

// assertShardSum checks the cluster's cardinal invariant: per-shard
// stats summed across the fabric equal tenants× the schedule
// prediction, including the per-level breakdown.
func assertShardSum(t *testing.T, rt *Router, s *workload.Schedule, tenants int) {
	t.Helper()
	if drift := s.CompareBooks(serve.Stats{}, AggregateStats(rt.AllStats()), tenants); drift != nil {
		t.Fatalf("shard-sum against schedule×%d: %v", tenants, drift)
	}
}

func TestClusterReplayExactMultiTenant(t *testing.T) {
	s := testSchedule(t)
	tenants := []string{"t0", "t1"}
	tc := startCluster(t, 2, tenants, s, RouterConfig{})

	type out struct {
		res *workload.ReplayResult
		err error
	}
	results := make(chan out, len(tenants))
	for _, tn := range tenants {
		go func(tn string) {
			res, err := tc.replayTenant(s, tn)
			results <- out{res, err}
		}(tn)
	}
	for range tenants {
		o := <-results
		assertReplayExact(t, o.res, o.err)
	}
	assertShardSum(t, tc.rt, s, len(tenants))
	if got := tc.rt.Delivered(); got != uint64(2*s.Counts().Switches) {
		t.Fatalf("router delivered %d results, want %d", got, 2*s.Counts().Switches)
	}
	for i := range tc.shards {
		if err := tc.rt.Ping(i); err != nil {
			t.Fatalf("ping shard %d: %v", i, err)
		}
	}
}

// With replication, one tenant's groups round-robin over two owners —
// and the shard-sum invariant must still hold exactly, because groups
// never split across replicas and key material is deterministic.
func TestClusterReplicationExact(t *testing.T) {
	s := testSchedule(t)
	tc := startCluster(t, 2, []string{"t0"}, s, RouterConfig{Replicas: 2})
	res, err := tc.replayTenant(s, "t0")
	assertReplayExact(t, res, err)
	assertShardSum(t, tc.rt, s, 1)
	for i := range tc.shards {
		if tc.rt.Completed(i) == 0 {
			t.Fatalf("replica shard %d served nothing; replication did not spread the load", i)
		}
	}
}

// Draining a shard mid-replay must keep the books exact: the drained
// shard's final snapshot plus the survivors' counters still sum to
// the prediction, because a draining shard requeues groups before
// executing them — requeued work lands in exactly one shard's stats.
func TestClusterDrainMidReplayExact(t *testing.T) {
	s := testSchedule(t)
	tc := startCluster(t, 3, []string{"t0"}, s, RouterConfig{})

	type out struct {
		res *workload.ReplayResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := tc.replayTenant(s, "t0")
		done <- out{res, err}
	}()
	waitFor(t, "first delivery", func() bool { return tc.rt.Delivered() >= 1 })
	victim := 0
	for i := range tc.shards {
		if tc.rt.Completed(i) > tc.rt.Completed(victim) {
			victim = i
		}
	}
	final, err := tc.rt.Drain(victim)
	if err != nil {
		t.Fatalf("drain shard %d: %v", victim, err)
	}
	if final.Served == 0 {
		t.Fatalf("drained the owner shard %d but its final snapshot served nothing", victim)
	}
	o := <-done
	assertReplayExact(t, o.res, o.err)
	assertShardSum(t, tc.rt, s, 1)

	st := tc.rt.Status()
	if st[victim].State != ShardDrained {
		t.Fatalf("victim state %q, want drained", st[victim].State)
	}
	// The drained final is immutable: requeued groups may not have
	// leaked into it after DrainDone.
	after, err := tc.rt.ShardStats(victim)
	if err != nil || after.Served != final.Served || after.ModUps != final.ModUps {
		t.Fatalf("drained shard stats moved after DrainDone: %+v -> %+v (%v)", final, after, err)
	}
}

// Killing a shard abruptly mid-replay (severed connection, no drain)
// must preserve delivery exactness: every request completes, results
// stay bit-exact (deterministic keys make the re-execution identical),
// no result is delivered or attributed twice — the router's per-shard
// completion counters still sum exactly to the schedule prediction.
func TestClusterKillMidReplayDelivery(t *testing.T) {
	s := testSchedule(t)
	tenants := []string{"t0", "t1"}
	tc := startCluster(t, 3, tenants, s, RouterConfig{})

	type out struct {
		res *workload.ReplayResult
		err error
	}
	results := make(chan out, len(tenants))
	for _, tn := range tenants {
		go func(tn string) {
			res, err := tc.replayTenant(s, tn)
			results <- out{res, err}
		}(tn)
	}
	waitFor(t, "first delivery", func() bool { return tc.rt.Delivered() >= 1 })
	victim := 0
	for i := range tc.shards {
		if tc.rt.Completed(i) > tc.rt.Completed(victim) {
			victim = i
		}
	}
	tc.rt.markDown(tc.rt.shards[victim])

	for range tenants {
		o := <-results
		if o.err != nil {
			t.Fatalf("replay failed after shard kill: %v", o.err)
		}
		// Counters measured through serve.Stats may legitimately be
		// inexact here — the killed shard took its books down with it,
		// and a half-executed group re-ran whole elsewhere, its members
		// already delivered included. Delivery must still be perfect:
		// bit-exact results, dependency order intact.
		if !o.res.Checked || !o.res.BitExact {
			t.Fatalf("results not bit-exact after shard kill: %v", o.res.Mismatches)
		}
		if o.res.DepViolations != 0 {
			t.Fatalf("%d dependency violations after shard kill", o.res.DepViolations)
		}
	}
	want := uint64(len(tenants) * s.Counts().Switches)
	if got := tc.rt.Delivered(); got != want {
		t.Fatalf("router delivered %d results, want exactly %d (no loss, no double delivery)", got, want)
	}
	var completed uint64
	for i := range tc.shards {
		completed += tc.rt.Completed(i)
	}
	if completed != want {
		t.Fatalf("per-shard completions sum to %d, want exactly %d: a request was attributed to two shards", completed, want)
	}
	if st := tc.rt.Status(); st[victim].State != ShardDown {
		t.Fatalf("victim state %q, want down", st[victim].State)
	}
}

// TestAggregateStats: the cluster-wide view is serve.MergeStats of the
// shards' snapshots — tenants merged by name, totals derived from the
// merged tenants (a shard's shipped totals are not trusted: b's are
// wrong on purpose), budgets added, worst-shard percentiles, and the
// profiles merged bucket by bucket. The summation itself is pinned in
// serve (TestMergeStats).
func TestAggregateStats(t *testing.T) {
	l3 := func(sw, mu uint64) []serve.LevelStats {
		return []serve.LevelStats{{Level: 3, Switches: sw, ModUps: mu}}
	}
	a := serve.Stats{
		Submitted: 4, Served: 4, Batches: 2, Groups: 2, ModUps: 2, Coalesced: 2,
		P50: 2 * time.Millisecond, P99: 5 * time.Millisecond,
		PerLevel: l3(4, 2),
		Tenants: []serve.Stats{{
			Tenant: "t0", Submitted: 4, Served: 4, Groups: 2, ModUps: 2, Coalesced: 2,
			PerLevel: l3(4, 2), Keys: serve.CacheStats{Tenant: "t0", Hits: 3, Misses: 1},
		}},
	}
	a.Keys.BudgetBytes = 100
	b := serve.Stats{
		Submitted: 999, Served: 999, ModUps: 999, // not the sum of its tenants
		P50: 3 * time.Millisecond, P99: 4 * time.Millisecond,
		Tenants: []serve.Stats{
			{Tenant: "t0", Submitted: 2, Served: 2, Groups: 2, ModUps: 2,
				PerLevel: l3(2, 2), Keys: serve.CacheStats{Tenant: "t0", Hits: 1, Misses: 1}},
			{Tenant: "t1", Submitted: 4, Served: 4, Groups: 2, ModUps: 2, Coalesced: 2,
				PerLevel: []serve.LevelStats{{Level: 1, Switches: 4, ModUps: 2}},
				Keys:     serve.CacheStats{Tenant: "t1", Misses: 2}},
		},
	}
	b.Keys.BudgetBytes = 50

	// Each shard ships the profile of its own recorder. What the
	// aggregate must hold is tallied here from the observations
	// themselves: bucket i counts the durations of bit length i.
	type hist struct {
		count, sumNs uint64
		buckets      map[int]uint64
	}
	want := map[string]*hist{}
	recs := [2]obs.Recorder{}
	for i, o := range []struct {
		stage obs.Stage
		ns    uint64
	}{
		{obs.StageModUp, 900}, {obs.StageModUp, 70_000},
		{obs.StageModUp, 1000}, {obs.StageApply, 3},
		{obs.StageModDown, 1 << 20}, {obs.StageApply, 5_000_000},
		{obs.StageModUp, 1}, {obs.StageModUp, 70_001},
	} {
		recs[i%2].Stage(o.stage, time.Duration(o.ns))
		k := o.stage.String()
		if want[k] == nil {
			want[k] = &hist{buckets: map[int]uint64{}}
		}
		want[k].count++
		want[k].sumNs += o.ns
		want[k].buckets[bits.Len64(o.ns)]++
	}
	a.Profile, b.Profile = recs[0].Snapshot(), recs[1].Snapshot()

	agg := AggregateStats([]serve.Stats{a, b})
	if agg.Profile == nil || len(agg.Profile.Stages) != len(want) {
		t.Fatalf("aggregate profile %+v, want %d stage histograms", agg.Profile, len(want))
	}
	for _, hs := range agg.Profile.Stages {
		w := want[hs.Name]
		if w == nil || hs.Count != w.count || hs.SumNs != w.sumNs {
			t.Fatalf("aggregate %s: %+v, tallied %+v", hs.Name, hs, w)
		}
		var inBuckets uint64
		for i, v := range hs.Buckets {
			if v != w.buckets[i] {
				t.Fatalf("aggregate %s bucket %d holds %d, tallied %d", hs.Name, i, v, w.buckets[i])
			}
			inBuckets += v
		}
		if inBuckets != w.count {
			t.Fatalf("aggregate %s buckets hold %d of %d observations", hs.Name, inBuckets, w.count)
		}
	}
	if agg.Submitted != 10 || agg.Served != 10 || agg.Batches != 6 ||
		agg.Groups != 6 || agg.ModUps != 6 || agg.Coalesced != 4 {
		t.Fatalf("aggregate counters wrong: %+v", agg)
	}
	if agg.P50 != 3*time.Millisecond || agg.P99 != 5*time.Millisecond {
		t.Fatalf("aggregate percentiles should take the worst shard: p50=%v p99=%v", agg.P50, agg.P99)
	}
	if agg.CoalescingFactor != float64(10)/6 {
		t.Fatalf("coalescing factor %v not recomputed from summed counters", agg.CoalescingFactor)
	}
	if agg.Keys.Hits != 4 || agg.Keys.Misses != 4 || agg.Keys.HitRate != 0.5 || agg.Keys.BudgetBytes != 150 {
		t.Fatalf("aggregate key-cache stats wrong: %+v", agg.Keys)
	}
	wantLevels := []serve.LevelStats{{Level: 3, Switches: 6, ModUps: 4}, {Level: 1, Switches: 4, ModUps: 2}}
	if len(agg.PerLevel) != 2 || agg.PerLevel[0] != wantLevels[0] || agg.PerLevel[1] != wantLevels[1] {
		t.Fatalf("aggregate per-level merge wrong: %+v", agg.PerLevel)
	}
	if len(agg.Tenants) != 2 || agg.Tenants[0].Tenant != "t0" || agg.Tenants[1].Tenant != "t1" {
		t.Fatalf("aggregate tenants wrong: %+v", agg.Tenants)
	}
	if agg.Tenants[0].Served != 6 || agg.Tenants[0].ModUps != 4 {
		t.Fatalf("tenant t0 merge wrong: %+v", agg.Tenants[0])
	}
	if len(agg.Tenants[0].PerLevel) != 1 || agg.Tenants[0].PerLevel[0] != (serve.LevelStats{Level: 3, Switches: 6, ModUps: 4}) {
		t.Fatalf("tenant t0 per-level merge wrong: %+v", agg.Tenants[0].PerLevel)
	}
}

// A group frame is one SubmitGroup call on the shard, admitted whole or
// not at all: a frame the service refuses — here, one for a tenant the
// shard does not hold — comes back as ResultErr for every member, and
// the connection goes on to serve the next group.
func TestShardGroupRefusedWhole(t *testing.T) {
	s := testSchedule(t)
	tc := startCluster(t, 1, []string{"t0"}, s, RouterConfig{})
	sw, err := tc.cctx.Switchers().Switcher(3)
	if err != nil {
		t.Fatal(err)
	}
	in := ring.NewSampler(tc.cctx.R, 3).Uniform(sw.QBasis())
	in.IsNTT = true

	conn, err := net.Dial("tcp", tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	fw, cr := &frameWriter{w: conn}, newConnReader(conn, tc.cctx.R)
	roundTrip := func(g *Group) map[uint64]*WireResult {
		t.Helper()
		if err := fw.send(FrameGroup, tc.cctx.R, g); err != nil {
			t.Fatal(err)
		}
		out := map[uint64]*WireResult{}
		for range g.Rots {
			m, err := cr.next()
			if err != nil || m.typ != FrameResult {
				t.Fatalf("reading a result frame: type %v, %v", m.typ, err)
			}
			out[m.result.ReqID] = m.result
		}
		return out
	}

	before := tc.shards[0].svc.Stats()
	rots := []int{1, 2, 3}
	refused := roundTrip(&Group{BaseID: 100, Tenant: "nobody", Level: 3, Rots: rots, Input: in})
	for i := range rots {
		wr := refused[100+uint64(i)]
		if wr == nil || wr.Code != ResultErr || wr.ErrMsg == "" {
			t.Fatalf("member %d of the refused frame: got %+v, want ResultErr", i, wr)
		}
	}
	if st := tc.shards[0].svc.Stats(); st.Submitted != before.Submitted {
		t.Fatalf("the refused frame enqueued %d requests", st.Submitted-before.Submitted)
	}

	served := roundTrip(&Group{BaseID: 200, Tenant: "t0", Level: 3, Rots: rots, Input: in})
	kc, _ := ckks.GenKeys(tc.cctx, serve.TenantSeed("t0"))
	evks := make([]*hks.Evk, len(rots))
	for i, rot := range rots {
		if evks[i], err = kc.HoistKey(rot, 3); err != nil {
			t.Fatal(err)
		}
	}
	want0, want1 := sw.SwitchHoisted(in, evks)
	for i := range rots {
		wr := served[200+uint64(i)]
		if wr == nil || wr.Code != ResultOK {
			t.Fatalf("member %d of the next frame: got %+v, want ResultOK", i, wr)
		}
		if !wr.C0.Equal(want0[i]) || !wr.C1.Equal(want1[i]) {
			t.Fatalf("member %d of the next frame differs from SwitchHoisted", i)
		}
	}
	st := tc.shards[0].svc.Stats()
	if d := st.ModUps - before.ModUps; d != 1 {
		t.Fatalf("the served frame ran %d ModUps, want 1", d)
	}
}
