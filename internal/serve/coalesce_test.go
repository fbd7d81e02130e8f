package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

// The coalescing tests wedge a tenant (park), queue what they test
// behind it, and release. The dispatcher pops only once it holds a
// slot, so the groups it forms are fixed by the queue's contents, not
// by timing.

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

// The Submits of one input queued behind a wedged tenant are one group:
// one ModUp and a coalesce credit of K, bit-exact with SwitchHoisted,
// for dense and compressed keys.
func TestQueuedSubmitsHoistAsOneGroup(t *testing.T) {
	const K = 5
	for _, compressed := range []bool{false, true} {
		t.Run(fmt.Sprintf("compressed=%v", compressed), func(t *testing.T) {
			b := newTestBench(t, K)
			e := engine.New(2)
			defer e.Close()
			src := b.keySource()
			if compressed {
				src = b.compressedSource(t)
			}
			gated, entered, release := parking(src)
			svc, err := New(b.pool, gated, b.config(Config{Engine: e}))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			in := b.input()
			wedged := park(t, svc, entered, b.input(), "")
			chans := submitAll(t, svc, in, 0, 1, 2, 3, 4)
			close(release)
			b.checkGroup(t, "", in, []int{0, 1, 2, 3, 4}, chans, "queued group")
			parked := wedged.failed(t)
			checkStats(t, svc.Stats(), map[string]uint64{
				"groups": parked + 1, "mod_ups": 1, "coalesced": K, "served": K, "failed": parked,
			})
		})
	}
}

// A submission queued behind a group's first Submit that the group
// cannot take — another input, another dataflow, or a sealed group on
// the group's own input — is set aside for the next group, and the
// same-input Submit queued behind it waits its turn behind that one
// rather than jumping ahead into the first group.
func TestGroupSetsAsideWhatItCannotTake(t *testing.T) {
	for _, tc := range []struct {
		name      string
		aside     func(in, other *ring.Poly) []Request
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
			svc, entered, release := b.newParkedService(t, Config{Engine: e})
			defer svc.Close()

			in, other := b.input(), b.input()
			wedged := park(t, svc, entered, b.input(), "")
			first := submitAll(t, svc, in, 0)
			aside := tc.aside(in, other)
			var setAside []<-chan Result
			var err error
			if tc.sealed {
				setAside, err = svc.SubmitGroup(context.Background(), aside)
			} else {
				setAside = make([]<-chan Result, 1)
				setAside[0], err = svc.Submit(context.Background(), aside[0])
			}
			if err != nil {
				t.Fatal(err)
			}
			behind := submitAll(t, svc, in, 3)
			close(release)

			want0, want1 := b.wantSwitch("", in, 0)
			checkResult(t, <-first[0], want0, want1, "first request")
			for i, req := range aside {
				want0, want1 = b.wantSwitch("", req.Input, req.Rot)
				checkResult(t, <-setAside[i], want0, want1, fmt.Sprintf("set-aside request %d", i))
			}
			want0, want1 = b.wantSwitch("", in, 3)
			checkResult(t, <-behind[0], want0, want1, "request behind the set-aside one")
			// Three groups, three ModUps and nothing coalesced outside the
			// sealed group: the request behind the set-aside submission
			// went into neither the first group nor that one.
			parked := wedged.failed(t)
			checkStats(t, svc.Stats(), map[string]uint64{
				"groups": parked + 3, "mod_ups": 3, "coalesced": tc.coalesced, "failed": parked,
			})
		})
	}
}

// Close drains a submission that a drain set aside: it was popped from
// the queue, so closing the queue must not lose it.
func TestCloseDrainsSetAsideGroup(t *testing.T) {
	b := newTestBench(t, 2)
	e := engine.New(2)
	defer e.Close()
	svc, entered, release := b.newParkedService(t, Config{Engine: e})

	in, other := b.input(), b.input()
	wedged := park(t, svc, entered, b.input(), "")
	first := submitAll(t, svc, in, 0)
	setAside := submitAll(t, svc, other, 1)
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
	checkResult(t, <-first[0], want0, want1, "first request")
	want0, want1 = b.wantSwitch("", other, 1)
	checkResult(t, <-setAside[0], want0, want1, "set-aside request")
	parked := wedged.failed(t)
	checkStats(t, svc.Stats(), map[string]uint64{
		"groups": parked + 2, "mod_ups": 2, "coalesced": 0, "served": 2, "failed": parked,
	})
}
