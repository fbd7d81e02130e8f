package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

// checkSums asserts the one invariant every Stats is built to hold:
// the seven counters, the level slices and the phases are the sums of
// the tenants', and Batches equals Groups. It adds the tenants up its
// own way (maps, not the package's summation).
func checkSums(t *testing.T, st Stats, what string) {
	t.Helper()
	var sum [7]uint64
	levels := map[int]LevelStats{}
	phases := map[string]PhaseStats{}
	for _, ts := range st.Tenants {
		for i, v := range []uint64{ts.Submitted, ts.Served, ts.Failed,
			ts.Groups, ts.ModUps, ts.Coalesced, ts.KeyExpansions} {
			sum[i] += v
		}
		for _, ls := range ts.PerLevel {
			e := levels[ls.Level]
			e.Level = ls.Level
			e.Switches += ls.Switches
			e.ModUps += ls.ModUps
			e.Coalesced += ls.Coalesced
			levels[ls.Level] = e
		}
		for _, ps := range ts.Phases {
			e := phases[ps.Phase]
			e.Phase = ps.Phase
			e.Count += ps.Count
			e.TotalNs += ps.TotalNs
			phases[ps.Phase] = e
		}
	}
	if got := [7]uint64{st.Submitted, st.Served, st.Failed,
		st.Groups, st.ModUps, st.Coalesced, st.KeyExpansions}; got != sum {
		t.Errorf("%s: totals %v, tenants sum to %v", what, got, sum)
	}
	if st.Batches != st.Groups {
		t.Errorf("%s: %d batches, want the %d groups", what, st.Batches, st.Groups)
	}
	if len(st.PerLevel) != len(levels) {
		t.Errorf("%s: %d levels in the totals, %d across the tenants", what, len(st.PerLevel), len(levels))
	}
	for _, ls := range st.PerLevel {
		if levels[ls.Level] != ls {
			t.Errorf("%s: level %d totals %+v, tenants sum to %+v", what, ls.Level, ls, levels[ls.Level])
		}
	}
	if len(st.Phases) != len(phases) {
		t.Errorf("%s: %d phases in the totals, %d across the tenants", what, len(st.Phases), len(phases))
	}
	for _, ps := range st.Phases {
		if phases[ps.Phase] != ps {
			t.Errorf("%s: phase %s totals %+v, tenants sum to %+v", what, ps.Phase, ps, phases[ps.Phase])
		}
	}
}

// checkForTenant asserts the identity that lets one type hold a
// tenant's books and their total: ForTenant of each listed tenant
// equals its entry in every counter, percentile, level slice, phase and
// key figure, and carries the shared cache budget.
func checkForTenant(t *testing.T, st Stats, what string) {
	t.Helper()
	books := func(s Stats) Stats { // without what names a Stats or only a total carries
		s.Tenant, s.Batches, s.Kernel, s.Profile, s.Tenants = "", 0, "", nil, nil
		s.Keys.Tenant, s.Keys.BudgetBytes, s.Keys.Tenants = "", 0, nil
		return s
	}
	for _, ts := range st.Tenants {
		one := st.ForTenant(ts.Tenant)
		if !reflect.DeepEqual(books(one), books(ts)) || one.Keys.BudgetBytes != st.Keys.BudgetBytes {
			t.Errorf("%s: ForTenant(%q) = %+v, its entry %+v", what, ts.Tenant, one, ts)
		}
	}
}

// TestStatsSumToTenantsUnderLoad snapshots Stats as fast as it can
// while three tenants are being served — groups, lone requests and
// failing ones — and holds every snapshot to checkSums and
// checkForTenant. With one set of books per tenant and the totals
// derived from the snapshot, there is no instant at which the two could
// disagree; a service that kept a second, service-wide set would be
// read at a different instant and fail here.
func TestStatsSumToTenantsUnderLoad(t *testing.T) {
	const rounds, K = 25, 3
	tenants := []string{"a", "b", "c"}
	b := newTestBench(t, K, tenants...)
	e := engine.New(2)
	defer e.Close()
	svc := b.newService(t, Config{Engine: e})
	defer svc.Close()
	inputs := make([][]*ring.Poly, len(tenants)) // the bench's sampler is not for sharing
	for i := range inputs {
		for r := 0; r < 2*rounds; r++ {
			inputs[i] = append(inputs[i], b.input())
		}
	}

	stop, watched := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				watched <- n
				return
			default:
				st := svc.Stats()
				checkSums(t, st, "mid-load snapshot")
				checkForTenant(t, st, "mid-load snapshot")
				n++
			}
		}
	}()
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				chans, err := svc.SubmitGroup(context.Background(), groupOf(inputs[i][2*r], tenant, 0, 1, 2))
				if err != nil {
					t.Error(err)
					return
				}
				lone := do(svc, Request{Input: inputs[i][2*r+1], Rot: 1, Tenant: tenant})
				bad := do(svc, Request{Input: inputs[i][2*r+1], Rot: 99, Tenant: tenant})
				if lone.Err != nil || bad.Err == nil {
					t.Errorf("tenant %s round %d: lone %v, unknown rotation %v", tenant, r, lone.Err, bad.Err)
				}
				for _, ch := range chans {
					if res := <-ch; res.Err != nil {
						t.Error(res.Err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-watched; n == 0 {
		t.Fatal("no snapshot was taken under load")
	}

	st := svc.Stats()
	checkSums(t, st, "final snapshot")
	checkForTenant(t, st, "final snapshot")
	n := uint64(len(tenants) * rounds)
	if st.Submitted != n*(K+2) || st.Served != n*(K+1) || st.Failed != n || st.ModUps != 2*n || st.Coalesced != n*K {
		t.Fatalf("submitted %d served %d failed %d mod_ups %d coalesced %d, want %d/%d/%d/%d/%d",
			st.Submitted, st.Served, st.Failed, st.ModUps, st.Coalesced, n*(K+2), n*(K+1), n, 2*n, n*K)
	}
}

// TestMergeStats: merging is associative and independent of the order
// of the parts, merges tenants by name, derives every total from the
// merged tenants — never from what a part shipped — and aliases none of
// its arguments; ForTenant is the same summation over one tenant.
func TestMergeStats(t *testing.T) {
	ms := time.Millisecond
	p1 := Stats{
		P50: 2 * ms, P99: 5 * ms,
		Tenants: []Stats{{
			Tenant: "t0", Submitted: 4, Served: 4, Groups: 2, ModUps: 2, Coalesced: 4, KeyExpansions: 4,
			P50: 2 * ms, P99: 5 * ms,
			PerLevel: []LevelStats{{Level: 3, Switches: 4, ModUps: 2, Coalesced: 4}},
			Phases:   []PhaseStats{{"hoist", 2, 200}, {"replay", 4, 4000}},
			Keys:     CacheStats{Tenant: "t0", Size: 2, Bytes: 20, Hits: 3, Misses: 1},
		}},
	}
	p1.Keys.BudgetBytes = 100
	p2 := Stats{
		Submitted: 999, Served: 999, ModUps: 999, Coalesced: 999, // not the sum of its tenants
		PerLevel: []LevelStats{{Level: 9, Switches: 999}},
		P50:      3 * ms, P99: 4 * ms,
		Tenants: []Stats{
			{Tenant: "t0", Submitted: 3, Served: 2, Failed: 1, Groups: 2, ModUps: 2,
				P50: 3 * ms, P99: 4 * ms,
				PerLevel: []LevelStats{{Level: 3, Switches: 1, ModUps: 1}, {Level: 1, Switches: 1, ModUps: 1}},
				Phases:   []PhaseStats{{"keys", 3, 30}, {"replay", 2, 2000}, {"zz_future", 1, 7}},
				Keys:     CacheStats{Tenant: "t0", Size: 1, Bytes: 10, Hits: 1, Misses: 2, Evictions: 1}},
			{Tenant: "t1", Submitted: 2, Served: 2, Groups: 1, ModUps: 1, Coalesced: 2,
				P50: ms, P99: ms,
				PerLevel: []LevelStats{{Level: 1, Switches: 2, ModUps: 1, Coalesced: 2}},
				Phases:   []PhaseStats{{"hoist", 1, 100}},
				Keys:     CacheStats{Tenant: "t1", Misses: 2}},
		},
	}
	p2.Keys.BudgetBytes = 50
	p3 := Stats{
		P50: ms, P99: 9 * ms,
		Tenants: []Stats{{
			Tenant: "t1", Submitted: 1, Served: 1, Groups: 1, ModUps: 1,
			P50: ms, P99: 9 * ms,
			PerLevel: []LevelStats{{Level: 2, Switches: 1, ModUps: 1}},
			Phases:   []PhaseStats{{"enqueue", 1, 5}},
			Keys:     CacheStats{Tenant: "t1", Size: 1, Bytes: 10, Hits: 2},
		}},
	}
	p3.Keys.BudgetBytes = 25
	p1.Kernel, p3.Kernel = "generic", "generic" // p2 predates the field and says nothing
	// A copy of p1 through its wire form shares no storage with it.
	var pristine Stats
	if raw, err := json.Marshal(p1); err != nil || json.Unmarshal(raw, &pristine) != nil {
		t.Fatalf("copying p1 through JSON: %v", err)
	}

	m := MergeStats(p1, p2, p3)
	checkSums(t, m, "merged")
	t0 := Stats{
		Tenant: "t0", Submitted: 7, Served: 6, Failed: 1, Groups: 4, ModUps: 4, Coalesced: 4, KeyExpansions: 4,
		CoalescingFactor: 1.5, P50: 3 * ms, P99: 5 * ms,
		PerLevel: []LevelStats{{Level: 3, Switches: 5, ModUps: 3, Coalesced: 4}, {Level: 1, Switches: 1, ModUps: 1}},
		Phases:   []PhaseStats{{"keys", 3, 30}, {"hoist", 2, 200}, {"replay", 6, 6000}, {"zz_future", 1, 7}},
		Keys: CacheStats{Tenant: "t0", Size: 3, Bytes: 30,
			Hits: 4, Misses: 3, Evictions: 1, HitRate: 4.0 / 7},
	}
	if len(m.Tenants) != 2 || !reflect.DeepEqual(m.Tenants[0], t0) || m.Tenants[1].Tenant != "t1" {
		t.Fatalf("merged tenants %+v, want t0 = %+v and t1", m.Tenants, t0)
	}
	if m.Submitted != 10 || m.Served != 9 || m.ModUps != 6 || m.Coalesced != 6 || m.CoalescingFactor != 1.5 {
		t.Fatalf("totals not derived from the merged tenants: %+v", m)
	}
	if m.P50 != 3*ms || m.P99 != 9*ms {
		t.Fatalf("percentiles p50=%v p99=%v, want the worst part's 3ms/9ms", m.P50, m.P99)
	}
	if k := m.Keys; k.BudgetBytes != 175 || k.Size != 4 || k.Bytes != 40 ||
		k.Hits != 6 || k.Misses != 5 || k.Evictions != 1 || k.HitRate != 6.0/11 ||
		len(k.Tenants) != 2 || !reflect.DeepEqual(k.Tenants[0], t0.Keys) {
		t.Fatalf("merged key-cache stats wrong: %+v", k)
	}

	for name, again := range map[string]Stats{
		"reordered":   MergeStats(p3, p1, p2),
		"reversed":    MergeStats(p3, p2, p1),
		"left-assoc":  MergeStats(MergeStats(p1, p2), p3),
		"right-assoc": MergeStats(p1, MergeStats(p2, p3)),
	} {
		if !reflect.DeepEqual(again, m) {
			t.Errorf("%s merge differs:\n%+v\n%+v", name, again, m)
		}
	}
	if !reflect.DeepEqual(MergeStats(), Stats{}) {
		t.Errorf("merging nothing gave %+v", MergeStats())
	}
	other := Stats{Kernel: "avx512ifma"}
	if m.Kernel != "generic" || MergeStats(m, other).Kernel != KernelMixed || MergeStats(other, p2, MergeStats(p3, other)).Kernel != KernelMixed {
		t.Errorf("merged kernel %q, want the parts' own and %q once they differ", m.Kernel, KernelMixed)
	}

	m.Tenants[0].PerLevel[0].Switches = 999
	m.Tenants[0].Phases[0].Count = 999
	m.Keys.Tenants[0].Hits = 999
	if !reflect.DeepEqual(p1, pristine) {
		t.Fatal("mutating the merged stats reached into a part")
	}

	m = MergeStats(p1, p2, p3)
	one := m.ForTenant("t0")
	checkSums(t, one, "ForTenant")
	if one.Served != 6 || one.P99 != 5*ms || !reflect.DeepEqual(one.Phases, t0.Phases) ||
		!reflect.DeepEqual(one.PerLevel, t0.PerLevel) || one.Keys.Hits != 4 || one.Keys.HitRate != 4.0/7 ||
		one.Keys.BudgetBytes != 175 || len(one.Tenants) != 1 {
		t.Fatalf("ForTenant(t0) = %+v, want t0's books in the service-wide fields", one)
	}
	if !reflect.DeepEqual(m.ForTenant("nobody"), Stats{}) {
		t.Fatal("a tenant the stats do not list did not get the zero Stats")
	}
}
