package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// groupOf builds one hoist group: rots rotations of in for a tenant.
func groupOf(in *ring.Poly, tenant string, rots ...int) []Request {
	reqs := make([]Request, len(rots))
	for i, rot := range rots {
		reqs[i] = Request{Input: in, Rot: rot, Tenant: tenant}
	}
	return reqs
}

// checkGroup compares a served group with a direct SwitchHoisted of
// the same input under the same keys.
func (b *testBench) checkGroup(t *testing.T, tenant string, in *ring.Poly, rots []int, chans []<-chan Result, what string) {
	t.Helper()
	evks := make([]*hks.Evk, len(rots))
	for i, rot := range rots {
		evks[i] = b.evks[tenant][rot]
	}
	want0, want1 := b.sw.SwitchHoisted(in, evks)
	for i := range rots {
		checkResult(t, <-chans[i], want0[i], want1[i], fmt.Sprintf("%s rotation %d", what, rots[i]))
	}
}

// A sealed group is one ModUp however wide, dense and compressed keys
// both. "hour window" is a narrow group: it runs at once, however long
// it would have to wait for more. "batch of one" is a group one wider
// than the most Submits a queue holds: it is not split. In both a group
// of one then runs like any other, without the coalesce credit.
func TestSubmitGroupOneModUp(t *testing.T) {
	const K = 5
	for _, tc := range []struct {
		name       string
		compressed bool
		width      int
	}{
		{"dense/hour window", false, K},
		{"dense/batch of one", false, queueDepth + 1},
		{"compressed/hour window", true, K},
		{"compressed/batch of one", true, queueDepth + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			W := tc.width
			rots := make([]int, W)
			for i := range rots {
				rots[i] = i % K
			}
			b := newTestBench(t, K)
			e := engine.New(2)
			defer e.Close()
			src := b.keySource()
			if tc.compressed {
				src = b.compressedSource(t)
			}
			svc, err := New(b.pool, src, b.config(Config{Engine: e}))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			in := b.input()
			start := time.Now()
			chans, err := svc.SubmitGroup(context.Background(), groupOf(in, "", rots...))
			if err != nil {
				t.Fatal(err)
			}
			b.checkGroup(t, "", in, rots, chans, "group")
			lone := b.input()
			chans, err = svc.SubmitGroup(context.Background(), groupOf(lone, "", 2))
			if err != nil {
				t.Fatal(err)
			}
			b.checkGroup(t, "", lone, []int{2}, chans, "group of one")
			if d := time.Since(start); d > time.Minute {
				t.Fatalf("two groups took %v: something waited for more requests", d)
			}

			st := svc.Stats()
			if st.Submitted != uint64(W+1) || st.Served != uint64(W+1) || st.Failed != 0 {
				t.Fatalf("submitted %d served %d failed %d, want %d/%d/0", st.Submitted, st.Served, st.Failed, W+1, W+1)
			}
			if st.ModUps != 2 || st.Groups != 2 || st.Coalesced != uint64(W) {
				t.Fatalf("mod_ups %d groups %d coalesced %d, want 2/2/%d", st.ModUps, st.Groups, st.Coalesced, W)
			}
			if tc.compressed && st.KeyExpansions != uint64(W+1) {
				t.Fatalf("%d key expansions, want %d", st.KeyExpansions, W+1)
			}
		})
	}
}

// A group is admitted whole or not at all: a member that differs from
// the first in a shared field, or that Submit would refuse, fails the
// call in whatever position it sits, and nothing is enqueued.
func TestSubmitGroupAllOrNothing(t *testing.T) {
	b := newTestBench(t, 3, "", "other")
	e := engine.New(1)
	defer e.Close()
	svc := b.newService(t, Config{Engine: e})
	defer svc.Close()

	in := b.input()
	lowBasis := b.s.Uniform(b.r.QBasis(benchLevel - 2))
	lowBasis.IsNTT = true
	for name, bad := range map[string]Request{
		"other input":     {Input: b.input()},
		"other tenant":    {Input: in, Tenant: "other"},
		"other level":     {Input: in, Level: benchLevel - 2},
		"other dataflow":  {Input: in, Dataflow: dataflow.OC},
		"nil input":       {},
		"unknown flow":    {Input: in, Dataflow: dataflow.Dataflow(99)},
		"unknown level":   {Input: in, Level: 99},
		"basis mismatch":  {Input: lowBasis},
		"coefficient dom": {Input: b.s.Uniform(b.sw.QBasis())},
	} {
		for pos := 0; pos < 3; pos++ {
			if pos == 0 && strings.HasPrefix(name, "other") {
				continue // the first member defines the shared fields
			}
			reqs := groupOf(in, "", 0, 1, 2)
			bad.Rot = pos
			reqs[pos] = bad
			if _, err := svc.SubmitGroup(context.Background(), reqs); err == nil {
				t.Errorf("%s at position %d: group accepted", name, pos)
			}
		}
	}
	if _, err := svc.SubmitGroup(context.Background(), nil); err == nil {
		t.Error("empty group accepted")
	}
	// Level 0 and the default level are one level.
	reqs := groupOf(in, "", 0, 1)
	reqs[1].Level = benchLevel
	chans, err := svc.SubmitGroup(context.Background(), reqs)
	if err != nil {
		t.Fatalf("default and explicit level in one group: %v", err)
	}
	b.checkGroup(t, "", in, []int{0, 1}, chans, "mixed level spelling")

	st := svc.Stats()
	if st.Submitted != 2 || st.Served != 2 || st.Failed != 0 || st.ModUps != 1 {
		t.Fatalf("submitted %d served %d failed %d mod_ups %d after the refused groups, want 2/2/0/1",
			st.Submitted, st.Served, st.Failed, st.ModUps)
	}
	if len(st.Tenants) != 1 {
		t.Fatalf("refused groups left %d tenant workers, want only the served tenant's", len(st.Tenants))
	}
}

// Sealed groups are never merged — not with each other and not with a
// Submit — even when all of them carry one input pointer and sit
// together in the queue; and a key failure inside a sealed group costs
// that member alone.
func TestSealedGroupsNeverMerge(t *testing.T) {
	b := newTestBench(t, 4)
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer svc.Close()

	in := b.input()
	wedged := park(t, svc, entered, in, "") // the parking groups come first; the rest queue up
	g1, err := svc.SubmitGroup(context.Background(), groupOf(in, "", 0, 1, 99))
	if err != nil {
		t.Fatal(err)
	}
	lone, err := svc.Submit(context.Background(), Request{Input: in, Rot: 2})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := svc.SubmitGroup(context.Background(), groupOf(in, "", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	b.checkGroup(t, "", in, []int{0, 1}, g1[:2], "first group")
	if res := <-g1[2]; res.Err == nil {
		t.Fatal("unknown rotation in a sealed group served without error")
	}
	want0, want1 := b.wantSwitch("", in, 2)
	checkResult(t, <-lone, want0, want1, "lone submit")
	b.checkGroup(t, "", in, []int{0, 1}, g2, "second group")

	parked := wedged.failed(t)
	st := svc.Stats()
	if st.Groups != parked+3 || st.ModUps != 3 {
		t.Fatalf("groups %d mod_ups %d, want %d/3: one input pointer, three submissions behind %d failed parking requests",
			st.Groups, st.ModUps, parked+3, parked)
	}
	if st.Batches != st.Groups {
		t.Fatalf("%d batches, want the %d groups: every group is dispatched on its own", st.Batches, st.Groups)
	}
	if st.Served != 5 || st.Failed != parked+1 || st.Coalesced != 5 {
		t.Fatalf("served %d failed %d coalesced %d, want 5/%d/5", st.Served, st.Failed, st.Coalesced, parked+1)
	}
}

// rotGates gates the first load of each of tenant's rotations in gates
// until that rotation's channel is closed, and reports on the returned
// channel every load of tenant's keys as it begins, gated or not.
func rotGates(src KeySource, tenant string, gates map[int]chan struct{}) (KeySource, <-chan int) {
	entered := make(chan int, 16)
	return KeyMaterialFunc(func(id KeyID) (hks.KeyMaterial, error) {
		if id.Tenant == tenant {
			entered <- id.Rot
			if gate, ok := gates[id.Rot]; ok {
				<-gate
			}
		}
		return src.Key(id)
	}), entered
}

// within receives from ch, failing the test if nothing arrives in a
// few seconds.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: nothing after 5s", what)
		panic("unreachable")
	}
}

// A sealed group starts when its tenant pops it: group B, submitted
// while group A is parked in a key load, is served while A still is.
func TestSealedGroupStartsWhenPopped(t *testing.T) {
	b := newTestBench(t, 3)
	e := engine.New(2)
	defer e.Close()
	gate := make(chan struct{})
	src, entered := rotGates(b.keySource(), "", map[int]chan struct{}{0: gate})
	svc, err := New(b.pool, src, b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, so a failure cannot wedge it

	inA, inB := b.input(), b.input()
	chA, err := svc.SubmitGroup(context.Background(), groupOf(inA, "", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rot := within(t, entered, "group A's first key load"); rot != 0 {
		t.Fatalf("first key load is rotation %d, want 0", rot)
	}
	chB, err := svc.SubmitGroup(context.Background(), groupOf(inB, "", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	want0, want1 := b.sw.SwitchHoisted(inB, []*hks.Evk{b.evks[""][1], b.evks[""][2]})
	for i, ch := range chB {
		what := fmt.Sprintf("group B member %d, with A parked", i)
		checkResult(t, within(t, ch, what), want0[i], want1[i], what)
	}
	for _, ch := range chA {
		select {
		case <-ch:
			t.Fatal("group A delivered a result while parked in its key load")
		default:
		}
	}
	release()
	b.checkGroup(t, "", inA, []int{0, 1}, chA, "group A")
}

// A tenant's unsealed groups overlap as its sealed ones do: a Submit of
// input B, made while a Submit of input A is parked in its key load, is
// served while A still is.
func TestUnsealedGroupsOverlap(t *testing.T) {
	b := newTestBench(t, 2)
	e := engine.New(2)
	defer e.Close()
	gate := make(chan struct{})
	src, entered := rotGates(b.keySource(), "", map[int]chan struct{}{0: gate})
	svc, err := New(b.pool, src, b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, so a failure cannot wedge it

	inA, inB := b.input(), b.input()
	chA := submitAll(t, svc, inA, 0)[0]
	if rot := within(t, entered, "A's key load"); rot != 0 {
		t.Fatalf("first key load is rotation %d, want 0", rot)
	}
	chB := submitAll(t, svc, inB, 1)[0]
	want0, want1 := b.wantSwitch("", inB, 1)
	checkResult(t, within(t, chB, "B, with A parked"), want0, want1, "B, with A parked")
	select {
	case <-chA:
		t.Fatal("A delivered a result while parked in its key load")
	default:
	}
	release()
	want0, want1 = b.wantSwitch("", inA, 0)
	checkResult(t, <-chA, want0, want1, "A")
	if st := svc.Stats(); st.Groups != 2 || st.ModUps != 2 || st.Coalesced != 0 {
		t.Fatalf("groups %d mod_ups %d coalesced %d, want 2/2/0", st.Groups, st.ModUps, st.Coalesced)
	}
}

// A tenant runs at most Engine.Workers()+1 groups at once: on a
// one-worker engine, two sealed groups parked in their key loads keep a
// third in the queue until one of them is released, while another
// tenant's group is served.
func TestSealedGroupsHoldEngineThreads(t *testing.T) {
	b := newTestBench(t, 3, "", "other")
	e := engine.New(1)
	defer e.Close()
	gates := map[int]chan struct{}{0: make(chan struct{}), 1: make(chan struct{})}
	src, entered := rotGates(b.keySource(), "", gates)
	svc, err := New(b.pool, src, b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := map[int]func(){}
	for rot, gate := range gates {
		release[rot] = sync.OnceFunc(func() { close(gate) })
		defer release[rot]()
	}

	in := b.input()
	var chans [3][]<-chan Result
	submit := func(rot int) {
		t.Helper()
		if chans[rot], err = svc.SubmitGroup(context.Background(), groupOf(in, "", rot)); err != nil {
			t.Fatal(err)
		}
	}
	submit(0)
	submit(1)
	parked := map[int]bool{}
	for range 2 {
		parked[within(t, entered, "a parked group's key load")] = true
	}
	if !parked[0] || !parked[1] {
		t.Fatalf("parked key loads %v, want rotations 0 and 1", parked)
	}
	submit(2)
	other, err := svc.SubmitGroup(context.Background(), groupOf(in, "other", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	b.checkGroup(t, "other", in, []int{0, 1}, other, "other tenant's group")
	// The dispatcher pops only once it holds a slot, so the third group
	// is still queued.
	svc.mu.RLock()
	w := svc.workers[""]
	svc.mu.RUnlock()
	if n := len(w.queue); n != 1 {
		t.Fatalf("%d submissions queued with two groups holding both slots, want the third group", n)
	}
	release[0]()
	if rot := within(t, entered, "the third group's key load"); rot != 2 {
		t.Fatalf("key load of rotation %d, want 2", rot)
	}
	release[1]()
	for rot := range 3 {
		b.checkGroup(t, "", in, []int{rot}, chans[rot], fmt.Sprintf("group %d", rot))
	}
}

// Sealed groups and plain Submits on one input pointer, interleaved
// from four goroutines: every output equals a direct SwitchHoisted,
// and every sealed group cost one ModUp of its own.
func TestSealedAndSubmitInterleaved(t *testing.T) {
	const K, rounds = 4, 6
	rots := []int{0, 1, 2, 3}
	for _, compressed := range []bool{false, true} {
		t.Run(fmt.Sprintf("compressed=%v", compressed), func(t *testing.T) {
			b := newTestBench(t, K)
			e := engine.New(2)
			defer e.Close()
			src := b.keySource()
			if compressed {
				src = b.compressedSource(t)
			}
			svc, err := New(b.pool, src, b.config(Config{Engine: e}))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			in := b.input()
			evks := make([]*hks.Evk, K)
			for i := range evks {
				evks[i] = b.evks[""][i]
			}
			want0, want1 := b.sw.SwitchHoisted(in, evks)
			same := func(res Result, rot int) error {
				if res.Err != nil {
					return res.Err
				}
				if !res.C0.Equal(want0[rot]) || !res.C1.Equal(want1[rot]) {
					return fmt.Errorf("rotation %d differs from SwitchHoisted", rot)
				}
				return nil
			}
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						chans := make([]<-chan Result, K)
						var err error
						if g%2 == 0 {
							chans, err = svc.SubmitGroup(context.Background(), groupOf(in, "", rots...))
						} else {
							for i, rot := range rots {
								if chans[i], err = svc.Submit(context.Background(), Request{Input: in, Rot: rot}); err != nil {
									break
								}
							}
						}
						if err != nil {
							errs <- err
							return
						}
						for i, ch := range chans {
							if err := same(<-ch, rots[i]); err != nil {
								errs <- fmt.Errorf("goroutine %d round %d: %w", g, round, err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			st := svc.Stats()
			if want := uint64(4 * rounds * K); st.Served != want || st.Failed != 0 {
				t.Fatalf("served %d failed %d, want %d/0", st.Served, st.Failed, want)
			}
			// 2·rounds sealed groups at one ModUp each; the 2·rounds·K
			// plain requests cost between one per group and one each.
			sealed, plain := uint64(2*rounds), uint64(2*rounds*K)
			if st.ModUps <= sealed || st.ModUps > sealed+plain {
				t.Fatalf("mod_ups %d outside (%d, %d]", st.ModUps, sealed, sealed+plain)
			}
		})
	}
}

// Close drains a sealed group that is still queued.
func TestCloseDrainsSealedGroup(t *testing.T) {
	b := newTestBench(t, 4)
	e := engine.New(2)
	defer e.Close()
	src, entered, release := parking(b.compressedSource(t))
	svc, err := New(b.pool, src, b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	in := b.input()
	park(t, svc, entered, in, "")
	rots := []int{0, 1, 2}
	chans, err := svc.SubmitGroup(context.Background(), groupOf(in, "", rots...))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		svc.Close()
	}()
	for !svc.isClosed() {
		runtime.Gosched()
	}
	if _, err := svc.SubmitGroup(context.Background(), groupOf(in, "", rots...)); err != ErrClosed {
		t.Fatalf("SubmitGroup during Close returned %v, want ErrClosed", err)
	}
	close(release)
	<-closed
	b.checkGroup(t, "", in, rots, chans, "drained group")
	if st := svc.Stats(); st.Served != 3 || st.ModUps != 1 {
		t.Fatalf("served %d mod_ups %d, want 3/1", st.Served, st.ModUps)
	}
}

// A context cancelled while a sealed group is queued fails every
// member with the context's error, counts them failed, and runs no
// ModUp for them.
func TestSealedGroupCancelledWhileQueued(t *testing.T) {
	b := newTestBench(t, 4)
	e := engine.New(1)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})
	defer svc.Close()
	in := b.input()
	wedged := park(t, svc, entered, in, "")
	ctx, cancel := context.WithCancel(context.Background())
	chans, err := svc.SubmitGroup(ctx, groupOf(in, "", 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	for i, ch := range chans {
		if res := <-ch; res.Err != context.Canceled {
			t.Fatalf("member %d: got %v, want context.Canceled", i, res.Err)
		}
	}
	parked := wedged.failed(t)
	st := svc.Stats()
	if st.Submitted != parked+3 || st.Served != 0 || st.Failed != parked+3 || st.ModUps != 0 {
		t.Fatalf("submitted %d served %d failed %d mod_ups %d, want %d/0/%d/0",
			st.Submitted, st.Served, st.Failed, st.ModUps, parked+3, parked+3)
	}
}

// The lifecycle phases come out in canonical order, group_wait is
// booked once per member of a hoisted group — one formed of Submits
// included — and never for a singleton, a tenant's phases sum to its
// requests' latencies, the service's phases are the sum of its
// tenants', and summing keeps the order whatever order the operands
// arrive in.
func TestGroupWaitPhase(t *testing.T) {
	const K = 4
	canonical := []string{"enqueue", "dispatch", "keys", "hoist", "group_wait", "replay", "reply"}
	e := engine.New(2)
	defer e.Close()
	// Tenant j is wedged by one served request per slot, on rotations K
	// and up, each parked in its first key load until released; see the
	// group of Submits below.
	held := e.Workers() + 1
	b := newTestBench(t, K+held, "", "j")
	src, entered, release := gating(b.compressedSource(t), func(id KeyID) bool { return id.Tenant == "j" && id.Rot >= K }, nil)
	svc, err := New(b.pool, src, b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	names := func(ps []PhaseStats) (out []string) {
		for _, p := range ps {
			out = append(out, p.Phase)
		}
		return out
	}
	count := func(ps []PhaseStats, phase string) uint64 {
		for _, p := range ps {
			if p.Phase == phase {
				return p.Count
			}
		}
		return 0
	}
	if res := do(svc, Request{Input: b.input(), Rot: 0}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if n := count(svc.Stats().Phases, "group_wait"); n != 0 {
		t.Fatalf("a singleton booked %d group waits", n)
	}
	in := b.input()
	chans, err := svc.SubmitGroup(context.Background(), groupOf(in, "", 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	b.checkGroup(t, "", in, []int{0, 1, 2, 3}, chans, "group")

	// A group of Submits on tenant j: rotations 0..K-1 queue behind the
	// held requests and are popped as one group once released.
	hin := b.input()
	var hreqs []Request
	for k := K; k < K+held; k++ {
		hreqs = append(hreqs, Request{Input: hin, Rot: k, Tenant: "j"})
	}
	hchans := hold(t, svc, entered, hreqs...)
	jin := b.input()
	var jchans []<-chan Result
	for k := 0; k < K; k++ {
		ch, err := svc.Submit(context.Background(), Request{Input: jin, Rot: k, Tenant: "j"})
		if err != nil {
			t.Fatal(err)
		}
		jchans = append(jchans, ch)
	}
	close(release)
	b.checkGroup(t, "j", jin, []int{0, 1, 2, 3}, jchans, "group of Submits")
	for i, ch := range hchans {
		want0, want1 := b.wantSwitch("j", hin, K+i)
		checkResult(t, <-ch, want0, want1, fmt.Sprintf("held request %d", i))
	}

	// finish times the channel send, so it books the reply phase after
	// the result is already in hand: wait for the last booking.
	replied := func(st Stats) bool {
		return count(tenantStats(t, st, "").Phases, "reply") >= K+1 && count(tenantStats(t, st, "j").Phases, "reply") >= uint64(K+held)
	}
	st := svc.Stats()
	for deadline := time.Now().Add(5 * time.Second); !replied(st) && time.Now().Before(deadline); st = svc.Stats() {
		time.Sleep(100 * time.Microsecond)
	}
	if got := names(st.Phases); fmt.Sprint(got) != fmt.Sprint(canonical) {
		t.Fatalf("phases %v, want %v", got, canonical)
	}
	var sum []PhaseStats
	for _, tenant := range []string{"", "j"} {
		ts := tenantStats(t, st, tenant)
		if got := names(ts.Phases); fmt.Sprint(got) != fmt.Sprint(canonical) {
			t.Fatalf("tenant %q phases %v, want %v", tenant, got, canonical)
		}
		sum = addPhases(sum, ts.Phases)
	}
	if fmt.Sprint(sum) != fmt.Sprint(st.Phases) {
		t.Fatalf("service phases %v, want the tenants' sum %v", st.Phases, sum)
	}
	// Tenant j served K+held requests: its group and a singleton per
	// held request.
	jn := uint64(K + held)
	for _, c := range []struct {
		phases []PhaseStats
		want   map[string]uint64
	}{
		{st.Phases, map[string]uint64{
			"enqueue": K + 1 + jn, "dispatch": K + 1 + jn, "keys": K + 1 + jn, "hoist": 2 + 1 + uint64(held),
			"group_wait": 2 * K, "replay": K + 1 + jn, "reply": K + 1 + jn,
		}},
		{tenantStats(t, st, "j").Phases, map[string]uint64{
			"enqueue": jn, "dispatch": jn, "keys": jn, "hoist": 1 + uint64(held),
			"group_wait": K, "replay": jn, "reply": jn,
		}},
	} {
		for phase, want := range c.want {
			if got := count(c.phases, phase); got != want {
				t.Errorf("phase %s counted %d, want %d", phase, got, want)
			}
		}
	}

	// A request's phases up to its reply telescope to its latency, which
	// the service records just before the reply: tenant j's phases less
	// its replies fall short of its latencies only by the few
	// instructions between a replay ending and its finish starting.
	svc.mu.RLock()
	jw := svc.workers["j"]
	svc.mu.RUnlock()
	var lat, booked time.Duration
	for _, d := range jw.lats.window() {
		lat += d
	}
	for _, p := range tenantStats(t, st, "j").Phases {
		if p.Phase != "reply" {
			booked += time.Duration(p.TotalNs)
		}
	}
	if bound := time.Duration(jn) * time.Millisecond; lat-booked < 0 || lat-booked > bound {
		t.Errorf("tenant j booked %v of phases before its replies against %v of latency: gap %v outside [0, %v]",
			booked, lat, lat-booked, bound)
	}

	// addPhases: canonical order from shuffled operands, sums exact, a
	// newer peer's unknown phase last.
	rev := append([]PhaseStats(nil), st.Phases...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	rev = append([]PhaseStats{{Phase: "zz_future", Count: 1, TotalNs: 5}}, rev...)
	merged := addPhases(addPhases(nil, rev), st.Phases[3:])
	if got, want := names(merged), append(append([]string(nil), canonical...), "zz_future"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged phases %v, want %v", got, want)
	}
	for i, p := range st.Phases {
		want := p
		if i >= 3 {
			want.Count, want.TotalNs = 2*p.Count, 2*p.TotalNs
		}
		if merged[i] != want {
			t.Errorf("merged %s = %+v, want %+v", p.Phase, merged[i], want)
		}
	}
}
