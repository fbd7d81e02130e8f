package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/hks"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

// fakeAndLive is a router over two shards: a fake one answering as
// answer says, placed where the tenant's first group goes, and one
// live in-process shard.
type fakeAndLive struct {
	rt      *Router
	live    *Shard
	fakeIdx int
	cctx    *ckks.Context
}

func startFakeAndLive(t *testing.T, tenant string, cfg RouterConfig,
	answer func(r *ring.Ring) func(message) ([]frame, bool)) *fakeAndLive {
	t.Helper()
	live := startCluster(t, 1, []string{tenant}, testSchedule(t), RouterConfig{})
	// Placement depends on the shard count alone; with replicas the
	// first group goes to the highest-ranked owner.
	fakeIdx := newHashRing(2).owners(tenant, 1)[0]
	addrs := []string{live.addrs[0], live.addrs[0]}
	addrs[fakeIdx] = fakeShard(t, live.cctx.R, answer(live.cctx.R))
	rt, err := NewRouter(live.cctx.R, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return &fakeAndLive{rt: rt, live: live.shards[0], fakeIdx: fakeIdx, cctx: live.cctx}
}

// submitHoisted submits one group switching in under rots and returns
// its result channels and what SwitchHoisted computes for it.
func (fl *fakeAndLive) submitHoisted(t *testing.T, tenant string, level int, in *ring.Poly, rots []int) ([]<-chan serve.Result, []*ring.Poly, []*ring.Poly) {
	t.Helper()
	sw, err := fl.cctx.Switchers().Switcher(level)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := ckks.GenKeys(fl.cctx, serve.TenantSeed(tenant))
	evks := make([]*hks.Evk, len(rots))
	reqs := make([]serve.Request, len(rots))
	for i, rot := range rots {
		if evks[i], err = kc.HoistKey(rot, level); err != nil {
			t.Fatal(err)
		}
		reqs[i] = serve.Request{Input: in, Rot: rot, Tenant: tenant, Level: level}
	}
	want0, want1 := sw.SwitchHoisted(in, evks)
	chans, err := fl.rt.SubmitGroup(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return chans, want0, want1
}

// receive takes each channel's result, failing on a result error or a
// channel that stays empty.
func receive(t *testing.T, chans []<-chan serve.Result) []serve.Result {
	t.Helper()
	out := make([]serve.Result, len(chans))
	for i, ch := range chans {
		select {
		case out[i] = <-ch:
			if out[i].Err != nil {
				t.Fatalf("member %d: %v", i, out[i].Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("member %d: no result", i)
		}
	}
	return out
}

// settle drains the live shard. Its DrainDone follows every result
// frame it wrote, so once Drain returns the router has handled them
// all. The live shard must have run the group whole — k served under
// one ModUp — and no member may have been delivered twice.
func (fl *fakeAndLive) settle(t *testing.T, before serve.Stats, chans []<-chan serve.Result) {
	t.Helper()
	final, err := fl.rt.Drain(1 - fl.fakeIdx)
	if err != nil {
		t.Fatal(err)
	}
	k := uint64(len(chans))
	if ds, dm := final.Served-before.Served, final.ModUps-before.ModUps; ds != k || dm != 1 {
		t.Fatalf("live shard served %d under %d ModUps, want %d under 1", ds, dm, k)
	}
	for i, ch := range chans {
		select {
		case <-ch:
			t.Fatalf("member %d delivered twice", i)
		default:
		}
	}
	if d := fl.rt.Delivered(); d != k {
		t.Fatalf("router delivered %d results, want %d", d, k)
	}
}

// A draining shard refuses a group frame whole, one requeue per
// member. Here a fake shard answers every group frame that way (and
// every stats poll with empty books): the first requeue must move the
// whole group to the other replica, where it runs once under one
// ModUp, and the requeues for the other members must find it moved.
func TestRouterRequeueMovesWholeGroup(t *testing.T) {
	const level, tenant = 3, "t0"
	fl := startFakeAndLive(t, tenant, RouterConfig{Replicas: 2}, func(r *ring.Ring) func(message) ([]frame, bool) {
		group := groupAnswer(func(g *Group) []*WireResult {
			out := make([]*WireResult, len(g.Rots))
			for i := range g.Rots {
				out[i] = &WireResult{ReqID: g.BaseID + uint64(i), Code: ResultRequeue}
			}
			return out
		})
		return func(m message) ([]frame, bool) {
			if m.typ != FrameStatsReq {
				return group(m)
			}
			p, err := EncodeStats(serve.Stats{})
			if err != nil {
				t.Errorf("fake shard: %v", err)
				return nil, true
			}
			return []frame{{FrameStats, rawPayload(p)}}, false
		}
	})
	before := fl.live.svc.Stats()
	rots := []int{1, 2, 3, 4}
	chans, want0, want1 := fl.submitHoisted(t, tenant, level, uniformNTT(fl.cctx.R, 11, level), rots)
	for i, res := range receive(t, chans) {
		if !res.C0.Equal(want0[i]) || !res.C1.Equal(want1[i]) {
			t.Fatalf("member %d differs from SwitchHoisted", i)
		}
	}
	fl.settle(t, before, chans)
	if got := fl.rt.Completed(fl.fakeIdx); got != 0 {
		t.Fatalf("the requeueing shard completed %d requests, want 0", got)
	}
	if got := fl.rt.Completed(1 - fl.fakeIdx); got != uint64(len(rots)) {
		t.Fatalf("the live shard completed %d requests, want %d", got, len(rots))
	}
	if st := fl.rt.Status(); st[fl.fakeIdx].State != ShardLive {
		t.Fatalf("the requeueing shard is %s, want live", st[fl.fakeIdx].State)
	}
}

// A shard that answers member 0 and then dies leaves the rest of its
// group undelivered. The router resends the whole frame under the same
// request IDs, so the group runs whole on the live shard — k served
// under one ModUp — and member 0's second answer finds it delivered:
// the first delivery wins, and each request is attributed once.
func TestRouterResendAfterDeathIsWholeFrame(t *testing.T) {
	const level, tenant = 3, "t0"
	var fakeC0, fakeC1 *ring.Poly
	fl := startFakeAndLive(t, tenant, RouterConfig{}, func(r *ring.Ring) func(message) ([]frame, bool) {
		fakeC0, fakeC1 = uniformNTT(r, 21, level), uniformNTT(r, 22, level)
		answer := groupAnswer(func(g *Group) []*WireResult {
			return []*WireResult{{ReqID: g.BaseID, Code: ResultOK, C0: fakeC0, C1: fakeC1}}
		})
		return func(m message) ([]frame, bool) {
			reply, _ := answer(m)
			return reply, m.typ == FrameGroup
		}
	})
	before := fl.live.svc.Stats()
	rots := []int{1, 2, 3, 4}
	chans, want0, want1 := fl.submitHoisted(t, tenant, level, uniformNTT(fl.cctx.R, 12, level), rots)
	for i, res := range receive(t, chans) {
		c0, c1 := want0[i], want1[i]
		if i == 0 {
			c0, c1 = fakeC0, fakeC1
		}
		if !res.C0.Equal(c0) || !res.C1.Equal(c1) {
			t.Fatalf("member %d is not its first delivery", i)
		}
	}
	fl.settle(t, before, chans)
	if f, l := fl.rt.Completed(fl.fakeIdx), fl.rt.Completed(1-fl.fakeIdx); f != 1 || l != uint64(len(rots)-1) {
		t.Fatalf("completed: fake %d, live %d; want 1 and %d", f, l, len(rots)-1)
	}
}

// One control exchange is outstanding per connection, and its reply
// must be of the type it awaits: a pong in answer to a stats request
// is a protocol error that takes the shard down, not a reply to hang
// on.
func TestRouterRefusesWrongControlReply(t *testing.T) {
	r := testCtx(t).R
	addr := fakeShard(t, r, func(m message) ([]frame, bool) {
		if m.typ == FrameStatsReq {
			return []frame{{FramePong, rawPayload(nil)}}, false
		}
		return nil, false
	})
	rt, err := NewRouter(r, []string{addr}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	done := make(chan error, 1)
	go func() {
		_, err := rt.ShardStats(0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a pong answering a stats request was taken as the stats")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ShardStats still waiting 10s after a pong answered it")
	}
	if st := rt.Status(); st[0].State != ShardDown {
		t.Fatalf("shard is %s after a wrong-type reply, want down", st[0].State)
	}
}

// A drained shard's books are cached on the router, and ShardStats
// hands out a copy of them that shares no storage with the cache: a
// caller that edits what it got (a report adding its own figures)
// cannot change what the next caller reads, and the copy equals the
// books the shard sent.
func TestRouterDrainedStatsUnaliased(t *testing.T) {
	var rec obs.Recorder
	rec.Stage(obs.StageModUp, 900)
	rec.Kernel(obs.KernelNTT, 300)
	books := serve.MergeStats(serve.Stats{
		P50: time.Millisecond, P99: 2 * time.Millisecond, Kernel: "generic", Profile: rec.Snapshot(),
		Keys: serve.CacheStats{BudgetBytes: 64},
		Tenants: []serve.Stats{{
			Tenant: "t0", Submitted: 3, Served: 3, Groups: 1, ModUps: 1, Coalesced: 2,
			P50: time.Millisecond, P99: 2 * time.Millisecond,
			PerLevel: []serve.LevelStats{{Level: 3, Switches: 3, ModUps: 1, Coalesced: 2}},
			Phases:   []serve.PhaseStats{{Phase: "hoist", Count: 1, TotalNs: 100}},
			Keys:     serve.CacheStats{Tenant: "t0", Size: 3, Bytes: 48, Misses: 3},
		}},
	})
	r := testCtx(t).R
	addr := fakeShard(t, r, func(m message) ([]frame, bool) {
		if m.typ != FrameDrain {
			return nil, false
		}
		p, err := EncodeStats(books)
		if err != nil {
			t.Errorf("fake shard: %v", err)
			return nil, true
		}
		return []frame{{FrameDrainDone, rawPayload(p)}}, false
	})
	rt, err := NewRouter(r, []string{addr}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	final, err := rt.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.ShardStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, final) || !reflect.DeepEqual(got, books) {
		t.Fatalf("drained shard stats %+v, the shard sent %+v", got, books)
	}
	got.PerLevel[0].Switches = 999
	got.Phases[0].Count = 999
	got.Tenants[0].PerLevel[0].ModUps = 999
	got.Tenants[0].Phases[0].TotalNs = 999
	got.Keys.Tenants[0].Hits = 999
	got.Profile.Stages[0].Buckets[len(got.Profile.Stages[0].Buckets)-1] = 999
	got.Profile.Kernels[0].Count = 999
	again, err := rt.ShardStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, books) {
		t.Fatalf("an edit of one ShardStats copy reached the cached books: %+v", again)
	}
}
