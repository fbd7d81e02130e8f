package cluster

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

// The wire path per result, end to end as Shard.writeResult and
// Router.readLoop run it: the frame is written as its header runs and
// its polynomials' rows in place, and the connection reader decodes it
// as it arrives into two polynomials drawn from the ring's pool, which
// the client here hands back as an unchecked replay does. Warm, a round
// trip allocates a few small objects (the WireResult, each
// polynomial's header and basis) — no polynomial, no payload, no
// per-tower temporary. One P, so the pipe's two ends alternate
// deterministically and the pool hands back what was put on it.
func TestWarmResultRoundTripAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	cctx, err := ckks.NewContext(1024, 4, 40, 3, 41, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := cctx.R
	basis := r.QBasis(3)
	s := ring.NewSampler(r, 5)
	wr := &WireResult{ReqID: 1, Code: ResultOK, C0: s.Uniform(basis), C1: s.Uniform(basis)}
	wr.C0.IsNTT, wr.C1.IsNTT = true, true

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shardEnd, routerEnd := net.Pipe()
	defer routerEnd.Close()
	const warm, runs = 3, 20
	fw := &frameWriter{w: shardEnd}
	go func() {
		defer shardEnd.Close()
		for i := 0; i < warm+runs; i++ {
			if err := fw.send(FrameResult, r, wr); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	cr := newConnReader(routerEnd, r)
	cycle := func() {
		m, err := cr.next()
		if err != nil || m.typ != FrameResult {
			t.Fatalf("reading a result frame: type %v, %v", m.typ, err)
		}
		got := m.result
		if !got.C0.Equal(wr.C0) || !got.C1.Equal(wr.C1) {
			t.Fatal("result changed on the wire")
		}
		r.PutPoly(got.C0)
		r.PutPoly(got.C1)
	}
	for i := 0; i < warm; i++ {
		cycle()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	poly := uint64(len(basis) * r.N * 8)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / runs
	if perCycle > 2048 {
		t.Fatalf("warm result round trip allocates %d bytes in %d allocations, want small change (one result polynomial is %d bytes)",
			perCycle, (after.Mallocs-before.Mallocs)/runs, poly)
	}
}

// poolRetains reports whether a sync.Pool hands back what was just put
// into it. The race detector makes Put drop a quarter of its items at
// random, and then nothing that draws from a pool can be pinned to an
// allocation count.
func poolRetains() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}

// Four groups of eight rotations in flight at once on one shard
// connection. The shard hands each result's polynomials back to the
// ring as soon as its frame is written, and each group's decoded input
// after its last result frame, while the other groups decode their
// inputs and replay into polynomials drawn from the same pool — so a
// polynomial recycled before its frame had left or while its group
// still hoists, or two writers' frames interleaved, would show up
// as a delivered result that differs from hks.SwitchHoisted. The
// results are read with the router's connection reader.
// Meaningful under -race.
func TestConcurrentGroupsOnOneConnectionExact(t *testing.T) {
	const level, groups = 3, 4
	rots := []int{1, 2, 3, 4, 5, 6, 7, 8}
	tc := startCluster(t, 1, []string{"t0"}, testSchedule(t), RouterConfig{})
	r := tc.cctx.R
	sw, err := tc.cctx.Switchers().Switcher(level)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := ckks.GenKeys(tc.cctx, serve.TenantSeed("t0"))
	evks := make([]*hks.Evk, len(rots))
	for i, rot := range rots {
		if evks[i], err = kc.HoistKey(rot, level); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := net.Dial("tcp", tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	cr := newConnReader(conn, r)
	for round := 0; round < 3; round++ {
		type want struct{ c0, c1 *ring.Poly }
		wants := map[uint64]want{}
		fw := &frameWriter{w: conn}
		var senders sync.WaitGroup
		for g := 0; g < groups; g++ {
			in := uniformNTT(r, int64(10*round+g), level)
			base := uint64(1000*round + 100*g)
			c0s, c1s := sw.SwitchHoisted(in, evks)
			for i := range rots {
				wants[base+uint64(i)] = want{c0s[i], c1s[i]}
			}
			senders.Add(1)
			go func() {
				defer senders.Done()
				if err := fw.send(FrameGroup, r, &Group{BaseID: base, Tenant: "t0", Level: level,
					Dataflow: dataflow.OC, Rots: rots, Input: in}); err != nil {
					t.Error(err)
				}
			}()
		}
		senders.Wait()
		for range groups * len(rots) {
			m, err := cr.next()
			if err != nil || m.typ != FrameResult {
				t.Fatalf("reading a result frame: type %v, %v", m.typ, err)
			}
			wr := m.result
			w, ok := wants[wr.ReqID]
			if !ok || wr.Code != ResultOK {
				t.Fatalf("round %d: unexpected result %+v", round, wr)
			}
			if !wr.C0.Equal(w.c0) || !wr.C1.Equal(w.c1) {
				t.Fatalf("round %d: request %d differs from SwitchHoisted", round, wr.ReqID)
			}
			delete(wants, wr.ReqID)
		}
	}
}

// frame is one frame a test writes: its type and the value it carries.
type frame struct {
	typ FrameType
	p   framePayload
}

// fakeShard accepts one router connection over ring r and answers every
// frame it reads with the frames answer returns, in order, until answer
// says to hang up or the router does. It reads and writes as a shard
// does, through a connReader and a frameWriter.
func fakeShard(t *testing.T, r *ring.Ring, answer func(m message) (reply []frame, hangUp bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		cr, fw := newConnReader(conn, r), &frameWriter{w: conn}
		for {
			m, err := cr.next()
			if err != nil {
				return
			}
			reply, hangUp := answer(m)
			for _, f := range reply {
				if fw.send(f.typ, r, f.p) != nil {
					return
				}
			}
			if hangUp {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// groupAnswer adapts a per-group answer to fakeShard: each group frame
// is answered with one result frame per WireResult, and every other
// frame is read and ignored.
func groupAnswer(answer func(g *Group) []*WireResult) func(message) ([]frame, bool) {
	return func(m message) ([]frame, bool) {
		if m.typ != FrameGroup {
			return nil, false
		}
		var out []frame
		for _, wr := range answer(m.group) {
			out = append(out, frame{FrameResult, wr})
		}
		return out, false
	}
}

// A result frame can pass every check against the ring and still not
// be the answer to its request: here a shard replies ResultOK with a
// one-tower C1. Delivered, that pair panics the replay client the
// first time it indexes the towers the request's level promises. The
// router must treat it like an undecodable frame — shard down, group
// served again elsewhere — and deliver only the live shard's answer.
func TestRouterRejectsWrongBasisResult(t *testing.T) {
	const level = 3
	const tenant = "t0"
	live := startCluster(t, 1, []string{tenant}, testSchedule(t), RouterConfig{})
	cctx := live.cctx
	r := cctx.R
	fake := fakeShard(t, r, groupAnswer(func(g *Group) []*WireResult {
		c0 := r.NewPoly(r.QBasis(g.Level))
		c1 := r.NewPoly(r.QBasis(0))
		c0.IsNTT, c1.IsNTT = true, true
		return []*WireResult{{ReqID: g.BaseID, Code: ResultOK, C0: c0, C1: c1}}
	}))
	// Placement depends on the shard count alone, so put the fake shard
	// at the index the tenant's groups go to first.
	fakeIdx := newHashRing(2).owners(tenant, 1)[0]
	addrs := []string{live.addrs[0], live.addrs[0]}
	addrs[fakeIdx] = fake
	rt, err := NewRouter(r, addrs, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	sw, err := cctx.Switchers().Switcher(level)
	if err != nil {
		t.Fatal(err)
	}
	in := uniformNTT(r, 9, level)
	rots := []int{1, 2}
	reqs := make([]serve.Request, len(rots))
	for i, rot := range rots {
		reqs[i] = serve.Request{Input: in, Rot: rot, Tenant: tenant, Level: level}
	}
	chans, err := rt.SubmitGroup(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := ckks.GenKeys(cctx, serve.TenantSeed(tenant))
	evks := make([]*hks.Evk, len(rots))
	for i, rot := range rots {
		if evks[i], err = kc.HoistKey(rot, level); err != nil {
			t.Fatal(err)
		}
	}
	want0, want1 := sw.SwitchHoisted(in, evks)
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("rotation %d: %v", rots[i], res.Err)
			}
			if !res.C0.Equal(want0[i]) || !res.C1.Equal(want1[i]) {
				t.Fatalf("rotation %d: delivered result differs from SwitchHoisted", rots[i])
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("rotation %d: no result", rots[i])
		}
	}
	if st := rt.Status(); st[fakeIdx].State != ShardDown || st[1-fakeIdx].State != ShardLive {
		t.Fatalf("shard states %s/%s, want the lying one down and the other live", st[fakeIdx].State, st[1-fakeIdx].State)
	}
	if f, l := rt.Completed(fakeIdx), rt.Completed(1-fakeIdx); f != 0 || l != uint64(len(rots)) {
		t.Fatalf("completed: fake %d, live %d; want 0 and %d", f, l, len(rots))
	}
}
