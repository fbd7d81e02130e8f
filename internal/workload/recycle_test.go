package workload

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

// An unchecked replay hands its results and derived inputs back to the
// ring's pool as their last reader finishes, and the next wave draws
// from it. A polynomial handed back while still in use — an input the
// service still hoists, a c1 a later group has yet to derive from — or
// handed back twice shows up as a result whose value differs. These
// tests therefore digest every result as it arrives, before the replay
// can hand it back, and hold each unchecked replay's digest to that of
// a checked replay of the same seed, which keeps everything.

// digestServer stands between Replay and one tenant's slice of a
// service and sums a hash of every result pair as it arrives: an
// order-free digest of a replay's outputs.
type digestServer struct {
	Server
	tenant string
	mu     sync.Mutex
	sum    uint64
}

func (d *digestServer) Stats() serve.Stats { return d.Server.Stats().ForTenant(d.tenant) }

func (d *digestServer) SubmitGroup(ctx context.Context, reqs []serve.Request) ([]<-chan serve.Result, error) {
	rcs, err := d.Server.SubmitGroup(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]<-chan serve.Result, len(rcs))
	for i, rc := range rcs {
		fwd := make(chan serve.Result, 1)
		out[i] = fwd
		go func() {
			res := <-rc
			if res.Err == nil {
				h := polyHash(polyHash(14695981039346656037, res.C0), res.C1)
				d.mu.Lock()
				d.sum += h
				d.mu.Unlock()
			}
			fwd <- res
		}()
	}
	return out, nil
}

// take returns the digest so far and starts a new one.
func (d *digestServer) take() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	sum := d.sum
	d.sum = 0
	return sum
}

// polyHash folds p's domain flag and residues into h, FNV-1a style.
func polyHash(h uint64, p *ring.Poly) uint64 {
	if p.IsNTT {
		h ^= 1
	}
	for _, row := range p.Coeffs {
		for _, v := range row {
			h = (h ^ v) * 1099511628211
		}
	}
	return h
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

// recyclingSchedule is a bootstrap whose BSGS stages give hoist groups,
// dependent giants and a relinearization: every lifetime rule runs.
func recyclingSchedule(t *testing.T) *Schedule {
	t.Helper()
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recyclingReplays replays s for tenant three times unchecked, so with
// recycling on, then once checked, and names whatever is not exact: an
// error, inexact counts, a dependency violation, a serial mismatch, or
// an unchecked replay whose outputs' digest is not the checked one's.
func recyclingReplays(svc *serve.Service, src serve.SwitcherSource, keys serve.KeySource, r *ring.Ring, s *Schedule, tenant string) []string {
	ds := &digestServer{Server: svc, tenant: tenant}
	var bad []string
	var digests []uint64
	for i := 0; i < 4; i++ {
		check := i == 3
		res, err := Replay(context.Background(), ds, src, keys, r, s,
			ReplayConfig{Tenant: tenant, Dataflow: dataflow.OC, Seed: 7, Check: check})
		if err != nil {
			return append(bad, fmt.Sprintf("tenant %s replay %d: %v", tenant, i, err))
		}
		if !res.CountsExact || res.DepViolations != 0 || !res.BitExact || res.Checked != check {
			bad = append(bad, fmt.Sprintf("tenant %s replay %d (checked %v): %d dependency violations, bit-exact %v, %v",
				tenant, i, res.Checked, res.DepViolations, res.BitExact, res.Mismatches))
		}
		digests = append(digests, ds.take())
	}
	for i, d := range digests[:3] {
		if d != digests[3] {
			bad = append(bad, fmt.Sprintf("tenant %s unchecked replay %d delivered outputs with digest %x, the checked replay %x",
				tenant, i, d, digests[3]))
		}
	}
	return bad
}

// Three unchecked replays recycle through one service's ring, then a
// checked one draws from what they left: it must be bit-exact with the
// serial reference, and every unchecked replay must have delivered the
// checked one's outputs.
func TestReplayRecyclingExact(t *testing.T) {
	s := recyclingSchedule(t)
	svc, cctx, chains, stop := testService(t, s, 4, 2)
	defer stop()
	for _, msg := range recyclingReplays(svc, cctx.Switchers(), chains, cctx.R, s, "t0") {
		t.Error(msg)
	}
}

// Two tenants replay concurrently on one service, so one recycles
// while the other draws from the same ring's pool. Meaningful under
// -race.
func TestReplayRecyclingTenants(t *testing.T) {
	s := recyclingSchedule(t)
	tenants := []string{"t0", "t1"}
	svc, cctx, chains, stop := ringService(t, s, 32, 4, 2, tenants...)
	defer stop()
	bad := make([][]string, len(tenants))
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bad[i] = recyclingReplays(svc, cctx.Switchers(), chains, cctx.R, s, tenant)
		}()
	}
	wg.Wait()
	for _, msg := range slices.Concat(bad...) {
		t.Error(msg)
	}
}

// A warm unchecked replay allocates less than one result polynomial per
// switch: results, derived inputs and the service's outputs all cycle
// through the ring's pool. Before the replay handed anything back it
// allocated about two per switch.
func TestReplayRecyclingAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	const n, towers = 1024, 4
	s := recyclingSchedule(t)
	svc, cctx, chains, stop := ringService(t, s, n, towers, 2, "t0")
	defer stop()
	replay := func() uint64 {
		res, err := Replay(context.Background(), svc, cctx.Switchers(), chains, cctx.R, s,
			ReplayConfig{Tenant: "t0", Dataflow: dataflow.OC, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !res.CountsExact {
			t.Fatal(res.Mismatches)
		}
		return res.Served
	}
	for range 2 {
		replay()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var switches uint64
	for range runs {
		switches += replay()
	}
	runtime.ReadMemStats(&after)
	poly := uint64(towers * n * 8) // a top-level result polynomial
	if perSwitch := (after.TotalAlloc - before.TotalAlloc) / switches; perSwitch >= poly {
		t.Fatalf("a warm unchecked replay allocates %d bytes per switch, want less than one %d-byte result polynomial", perSwitch, poly)
	} else {
		t.Logf("%d bytes per switch; a result polynomial is %d", perSwitch, poly)
	}
}
