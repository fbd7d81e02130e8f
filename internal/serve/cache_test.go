package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// fakeEvk hand-crafts an evaluation key whose SizeBytes is exactly
// 2×words×8 — the cache never looks inside an Evk, only at identity
// and size.
func fakeEvk(words int) *hks.Evk {
	p := func() *ring.Poly { return &ring.Poly{Coeffs: [][]uint64{make([]uint64, words)}} }
	return &hks.Evk{B: []*ring.Poly{p()}, A: []*ring.Poly{p()}}
}

// fakeSource returns a memoized backing store of fakeEvks (distinct
// per KeyID, identical across reloads, sized keyBytes each).
func fakeSource(calls *atomic.Uint64, words int) KeySource {
	keys := sync.Map{}
	return KeyMaterialFunc(func(id KeyID) (hks.KeyMaterial, error) {
		calls.Add(1)
		if id.Rot < 0 {
			return nil, fmt.Errorf("no key for %v", id)
		}
		evk, _ := keys.LoadOrStore(id, fakeEvk(words))
		return evk.(*hks.Evk), nil
	})
}

// keyBytes is the size of every fakeSource key: 2 polys × 64 words × 8.
const keyBytes = 2 * 64 * 8

func rotID(rot int) KeyID { return KeyID{Rot: rot, Level: 3} }

func TestCacheHitsAndMisses(t *testing.T) {
	var calls atomic.Uint64
	c := newKeyCache(fakeSource(&calls, 64), 4*keyBytes)

	a1, err := c.Get(rotID(1))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Get(rotID(1))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("repeated Get returned different keys")
	}
	if calls.Load() != 1 {
		t.Fatalf("loader called %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Size != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate %.2f, want 0.50", st.HitRate)
	}
	if st.Bytes != keyBytes || st.BudgetBytes != 4*keyBytes {
		t.Fatalf("bytes %d / budget %d, want %d / %d", st.Bytes, st.BudgetBytes, keyBytes, 4*keyBytes)
	}
	// Distinct levels are distinct keys, even for one rotation.
	if _, err := c.Get(KeyID{Rot: 1, Level: 2}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("level ignored in cache key: %d loads", calls.Load())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	var calls atomic.Uint64
	c := newKeyCache(fakeSource(&calls, 64), 2*keyBytes)

	mustGet := func(rot int) hks.KeyMaterial {
		t.Helper()
		evk, err := c.Get(rotID(rot))
		if err != nil {
			t.Fatal(err)
		}
		return evk
	}
	k1 := mustGet(1)
	mustGet(2)
	mustGet(1) // touch 1: now 2 is the LRU entry
	mustGet(3) // over budget: evicts 2, not 1

	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != 2*keyBytes {
		t.Fatalf("resident %d bytes, want %d", st.Bytes, 2*keyBytes)
	}
	if got := mustGet(1); got != k1 { // still resident
		t.Fatal("recently used key was evicted")
	}
	if calls.Load() != 3 {
		t.Fatalf("loader called %d times, want 3 (key 1 stayed hot)", calls.Load())
	}
	mustGet(2) // reload after eviction
	if calls.Load() != 4 {
		t.Fatalf("loader called %d times, want 4 (key 2 reloaded)", calls.Load())
	}
}

// TestCacheTenantFloor drives one hot tenant through many keys against
// a light tenant holding a single old key: weighted eviction must
// churn the hot tenant's shard and leave the light tenant at its floor
// — while the global byte budget holds at every step.
func TestCacheTenantFloor(t *testing.T) {
	var calls atomic.Uint64
	c := newKeyCache(fakeSource(&calls, 64), 2*keyBytes+keyBytes/2)

	light, err := c.Get(KeyID{Tenant: "light", Rot: 0, Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	for rot := 0; rot < 6; rot++ {
		if _, err := c.Get(KeyID{Tenant: "hot", Rot: rot, Level: 3}); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > st.BudgetBytes {
			t.Fatalf("resident %d bytes exceeds budget %d", st.Bytes, st.BudgetBytes)
		}
	}

	st := c.Stats()
	byTenant := map[string]TenantCacheStats{}
	for _, ts := range st.Tenants {
		byTenant[ts.Tenant] = ts
	}
	if got := byTenant["light"]; got.Evictions != 0 || got.Size != 1 || got.Bytes != keyBytes {
		t.Fatalf("light tenant shard %+v, want its one key untouched", got)
	}
	if got := byTenant["hot"]; got.Evictions != 5 || got.Size != 1 {
		t.Fatalf("hot tenant shard %+v, want 5 self-evictions", got)
	}
	// The light tenant's oldest key is still a hit.
	again, err := c.Get(KeyID{Tenant: "light", Rot: 0, Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	if again != light {
		t.Fatal("light tenant's key was reloaded")
	}
}

// TestCacheBudgetBeatsFloor: the budget is hard — when every tenant is
// at its floor and the bytes still do not fit, plain LRU applies.
func TestCacheBudgetBeatsFloor(t *testing.T) {
	var calls atomic.Uint64
	c := newKeyCache(fakeSource(&calls, 64), keyBytes)
	if _, err := c.Get(KeyID{Tenant: "a", Rot: 0, Level: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(KeyID{Tenant: "b", Rot: 0, Level: 3}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Bytes > st.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Bytes, st.BudgetBytes)
	}
	if st.Size != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want one resident key and one eviction", st)
	}
}

// TestCacheSingleflight lets many goroutines miss the same absent key
// at once: the loader must run once, everyone gets the same key, and
// the joiners count as (shared-load) hits.
func TestCacheSingleflight(t *testing.T) {
	const waiters = 8
	var calls atomic.Uint64
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	evk := fakeEvk(8)
	c := newKeyCache(KeyMaterialFunc(func(id KeyID) (hks.KeyMaterial, error) {
		calls.Add(1)
		once.Do(func() { close(entered) })
		<-gate
		return evk, nil
	}), 1<<20)

	results := make(chan hks.KeyMaterial, waiters)
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			got, err := c.Get(rotID(7))
			if err != nil {
				errs <- err
				return
			}
			results <- got
		}()
	}
	<-entered // at least one goroutine is inside the loader
	close(gate)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case got := <-results:
			if got != evk {
				t.Fatal("waiter got a different key")
			}
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("loader ran %d times for one key, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats %+v, want 1 miss and %d shared-load hits", st, waiters-1)
	}
}

// TestCacheLoadError: failed loads propagate and are not cached, so a
// later Get retries the backing store.
func TestCacheLoadError(t *testing.T) {
	var calls atomic.Uint64
	c := newKeyCache(fakeSource(&calls, 64), 1<<20)
	if _, err := c.Get(rotID(-1)); err == nil {
		t.Fatal("load error swallowed")
	}
	if _, err := c.Get(rotID(-1)); err == nil {
		t.Fatal("load error cached as success")
	}
	if calls.Load() != 2 {
		t.Fatalf("loader called %d times, want 2 (errors are not cached)", calls.Load())
	}
	if st := c.Stats(); st.Size != 0 || st.Bytes != 0 {
		t.Fatalf("failed load left a cache entry: %+v", st)
	}
}

// TestEvkSizeBytesPinned pins the footprints the byte budget evicts by
// — one formula per residency form. Dense (Evk.SizeBytes):
// dnum × 2 polys × (ℓ+K) towers × N coefficients × 8 bytes. Compressed
// (CompressedEvk.SizeBytes): dnum × (Σ_t N·⌈bits(q_t)/8⌉ + 32) — the B
// half packed at residue width plus one 32-byte seed per digit, the A
// half gone. If either drifts from the allocation, the budget silently
// stops meaning bytes; this test and the cache's accounting fail
// instead.
func TestEvkSizeBytesPinned(t *testing.T) {
	r, err := ring.NewRingGenerated(32, 4, 40, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := hks.NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := ring.NewSampler(r, 1)
	full := r.DBasis(r.NumQ - 1)
	evk := sw.GenEvk(s, s.Ternary(full), s.Ternary(full))

	wantDense := sw.Dnum * 2 * len(sw.DBasis()) * r.N * 8
	if got := evk.SizeBytes(); got != wantDense {
		t.Fatalf("SizeBytes %d, want dnum×2×towers×N×8 = %d", got, wantDense)
	}
	comp, ok := evk.Compress()
	if !ok {
		t.Fatal("generated evk did not compress")
	}
	// dnum 2 × (N 32 × (4 Q towers × 5 bytes + 3 P towers × 6 bytes) + 32).
	const wantComp = 2496
	if got := comp.SizeBytes(); got != wantComp {
		t.Fatalf("compressed SizeBytes %d, want dnum×(Σ_t N·⌈bits(q_t)/8⌉+32) = %d", got, wantComp)
	}
	if got := comp.DenseSizeBytes(); got != wantDense {
		t.Fatalf("compressed DenseSizeBytes %d, want %d", got, wantDense)
	}

	// The cache accounts each form with exactly its own weight: dense
	// entries at the dense footprint (DenseBytes == Bytes), compressed
	// entries at the compressed footprint with the what-if dense
	// footprint alongside.
	c := newKeyCache(KeyMaterialFunc(func(KeyID) (hks.KeyMaterial, error) { return evk, nil }), 1<<30)
	if _, err := c.Get(rotID(0)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes != int64(wantDense) || st.DenseBytes != int64(wantDense) {
		t.Fatalf("dense cache bytes %d/%d, want %d/%d", st.Bytes, st.DenseBytes, wantDense, wantDense)
	}
	cc := newKeyCache(KeyMaterialFunc(func(KeyID) (hks.KeyMaterial, error) { return comp, nil }), 1<<30)
	if _, err := cc.Get(rotID(0)); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Bytes != int64(wantComp) || st.DenseBytes != int64(wantDense) {
		t.Fatalf("compressed cache bytes %d/%d, want %d/%d", st.Bytes, st.DenseBytes, wantComp, wantDense)
	}
}
