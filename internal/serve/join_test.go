package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// The join tests hold a group's first member in its key load — before
// the ModUp, with its group already formed around it alone — queue what
// they test behind it, and release. What the group drains from the
// queue after its ModUp is then fixed by the queue's contents, not by
// timing.

// newJoinService serves b's keys (compressed ones when compressed is
// set) with every first load of rotation 0's key gated (see gating):
// the key is served once released.
func (b *testBench) newJoinService(t *testing.T, e *engine.Engine, compressed bool) (*Service, <-chan string, chan struct{}) {
	t.Helper()
	src := b.keySource()
	if compressed {
		src = b.compressedSource(t)
	}
	gated, entered, release := gating(src, func(id KeyID) bool { return id.Rot == 0 }, nil)
	svc, err := New(b.pool, gated, b.config(Config{Engine: e}))
	if err != nil {
		t.Fatal(err)
	}
	return svc, entered, release
}

// submitAll submits rotation rots[i] of in as its own Submit, in order.
func submitAll(t *testing.T, svc *Service, in *ring.Poly, rots ...int) []<-chan Result {
	t.Helper()
	chans := make([]<-chan Result, len(rots))
	for i, rot := range rots {
		ch, err := svc.Submit(context.Background(), Request{Input: in, Rot: rot})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	return chans
}

// checkStats requires the service-wide counters named in want.
func checkStats(t *testing.T, st Stats, want map[string]uint64) {
	t.Helper()
	got := map[string]uint64{
		"groups": st.Groups, "mod_ups": st.ModUps,
		"coalesced": st.Coalesced, "served": st.Served, "failed": st.Failed,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
}

// Submits of one input that queue while the first one's group is
// running join it: one group, one ModUp and a coalesce
// credit of K, bit-exact with SwitchHoisted, for dense and compressed
// keys.
func TestJoinHoistingGroup(t *testing.T) {
	const K = 5
	for _, compressed := range []bool{false, true} {
		t.Run(fmt.Sprintf("compressed=%v", compressed), func(t *testing.T) {
			b := newTestBench(t, K)
			e := engine.New(2)
			defer e.Close()
			svc, entered, release := b.newJoinService(t, e, compressed)
			defer svc.Close()

			in := b.input()
			first := hold(t, svc, entered, Request{Input: in, Rot: 0})
			chans := append([]<-chan Result{first}, submitAll(t, svc, in, 1, 2, 3, 4)...)
			close(release)
			b.checkGroup(t, "", in, []int{0, 1, 2, 3, 4}, chans, "joined group")
			checkStats(t, svc.Stats(), map[string]uint64{
				"groups": 1, "mod_ups": 1, "coalesced": K, "served": K, "failed": 0,
			})
		})
	}
}

// A submission at the head of the queue that cannot join — another
// input, another dataflow, or a sealed group on the group's own input —
// is carried into the next group, and the same-input Submit queued
// behind it waits its turn behind the carry rather than jumping ahead
// into the running group.
func TestJoinCarry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		carry     func(in, other *ring.Poly) []Request
		sealed    bool
		coalesced uint64
	}{
		{"other input", func(in, other *ring.Poly) []Request { return []Request{{Input: other, Rot: 1}} }, false, 0},
		{"other dataflow", func(in, other *ring.Poly) []Request {
			return []Request{{Input: in, Rot: 1, Dataflow: dataflow.DC}}
		}, false, 0},
		{"sealed", func(in, other *ring.Poly) []Request { return groupOf(in, "", 1, 2) }, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestBench(t, 4)
			e := engine.New(2)
			defer e.Close()
			svc, entered, release := b.newJoinService(t, e, false)
			defer svc.Close()

			in, other := b.input(), b.input()
			first := hold(t, svc, entered, Request{Input: in, Rot: 0})
			carry := tc.carry(in, other)
			var carried []<-chan Result
			var err error
			if tc.sealed {
				carried, err = svc.SubmitGroup(context.Background(), carry)
			} else {
				carried = make([]<-chan Result, 1)
				carried[0], err = svc.Submit(context.Background(), carry[0])
			}
			if err != nil {
				t.Fatal(err)
			}
			behind := submitAll(t, svc, in, 3)
			close(release)

			want0, want1 := b.wantSwitch("", in, 0)
			checkResult(t, <-first, want0, want1, "held request")
			for i, req := range carry {
				want0, want1 = b.wantSwitch("", req.Input, req.Rot)
				checkResult(t, <-carried[i], want0, want1, fmt.Sprintf("carried request %d", i))
			}
			want0, want1 = b.wantSwitch("", in, 3)
			checkResult(t, <-behind[0], want0, want1, "request behind the carry")
			// Three groups, three ModUps and nothing coalesced outside the
			// sealed group: the request behind the carry joined neither the
			// held group nor the carry.
			checkStats(t, svc.Stats(), map[string]uint64{
				"groups": 3, "mod_ups": 3, "coalesced": tc.coalesced, "failed": 0,
			})
		})
	}
}

// Joins stop at maxGroup members: of maxGroup Submits queued behind a
// held request, all but the last join its group, and the last one opens
// the next group.
func TestJoinStopsAtMaxGroup(t *testing.T) {
	const K = 4
	b := newTestBench(t, K)
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newJoinService(t, e, false)
	defer svc.Close()

	in := b.input()
	rots := make([]int, maxGroup)
	for i := range rots {
		rots[i] = (i + 1) % K
	}
	first := hold(t, svc, entered, Request{Input: in, Rot: 0})
	chans := append([]<-chan Result{first}, submitAll(t, svc, in, rots...)...)
	close(release)

	evks := make([]*hks.Evk, K)
	for k := range evks {
		evks[k] = b.evks[""][k]
	}
	want0, want1 := b.sw.SwitchHoisted(in, evks)
	for i, ch := range chans {
		rot := i % K
		checkResult(t, <-ch, want0[rot], want1[rot], fmt.Sprintf("request %d", i))
	}
	checkStats(t, svc.Stats(), map[string]uint64{
		"groups": 2, "mod_ups": 2, "coalesced": maxGroup, "served": maxGroup + 1, "failed": 0,
	})
}

// Close drains a carried submission: it was popped from the queue by a
// group's join, so closing the queue must not lose it.
func TestJoinCloseDrainsCarry(t *testing.T) {
	b := newTestBench(t, 2)
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newJoinService(t, e, false)

	in, other := b.input(), b.input()
	first := hold(t, svc, entered, Request{Input: in, Rot: 0})
	carried := submitAll(t, svc, other, 1)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		svc.Close()
	}()
	for !svc.isClosed() {
		runtime.Gosched()
	}
	if _, err := svc.Submit(context.Background(), Request{Input: in, Rot: 1}); err != ErrClosed {
		t.Fatalf("Submit during Close returned %v, want ErrClosed", err)
	}
	close(release)
	<-closed
	want0, want1 := b.wantSwitch("", in, 0)
	checkResult(t, <-first, want0, want1, "held request")
	want0, want1 = b.wantSwitch("", other, 1)
	checkResult(t, <-carried[0], want0, want1, "carried request")
	checkStats(t, svc.Stats(), map[string]uint64{
		"groups": 2, "mod_ups": 2, "coalesced": 0, "served": 2, "failed": 0,
	})
}
