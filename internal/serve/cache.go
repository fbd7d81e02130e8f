package serve

// The evaluation-key cache is the first of the service's reuse layers
// (see the package comment): evaluation keys are the largest operands
// of hybrid key switching (dnum × 2 × N × (ℓ+K) words, 112–360 MB at
// paper scale — Table III), so a server cannot keep one resident per
// (tenant, rotation, level) forever. The cache bounds residency by
// *bytes*, not key count — eviction is weighted by the material's
// SizeBytes under one global budget — because a level-5 key is an
// order of magnitude heavier than a level-0 key and a count cap would
// let the budget drift with the level mix.
//
// The cache stores hks.KeyMaterial, not dense keys: a KeySource that
// hands back seed-compressed material (SeedKeySource with compression
// on) is charged the *compressed* footprint, so the same byte budget
// holds about three times the keys at 40/41-bit towers (the B-half
// packed at residue width, the A-half a seed), and the replay draws the
// A-half from the seeds as its apply tiles need it. DenseBytes in
// the stats is the what-if dense footprint of the resident set; its
// ratio to Bytes is the measured compression the `ciflow serve` report
// and `ablate-keycomp` print.
//
// Residency is tenant-sharded: entries carry their KeyID's tenant,
// recency is tracked globally, and eviction takes the globally
// least-recently-used entry among tenants holding more than the
// per-tenant floor — so one hot tenant thrashing the cache cannot
// evict a light tenant's last keys (the budget stays hard: if every
// tenant is at its floor, plain LRU applies). The hit, miss, eviction
// and resident-byte counters are kept per tenant and nowhere else; the
// cache-wide figures are their sum (cacheTotal).
//
// Eviction is safe mid-flight by construction: Get hands out the
// material reference, and an in-flight replay keeps it alive after the
// cache drops its own — exactly like a DMA'd key staying pinned until
// the last consumer finishes. The eviction-mid-flight test in
// serve_test.go exercises this.

import (
	"container/list"
	"sort"
	"sync"

	"ciflow/internal/hks"
)

// KeyID names one evaluation key in the keyspace: the tenant whose
// secret the key belongs to, the rotation amount, and the ciphertext
// level. Keys never cross tenants — KeyID is the cache key, the
// singleflight key, and the unit the KeySource resolves.
type KeyID struct {
	Tenant string
	Rot    int
	Level  int
}

// KeySource resolves KeyIDs to evaluation-key material — the cache's
// backing store. The result is hks.KeyMaterial, the sealed union over
// dense (*hks.Evk) and seed-compressed (*hks.CompressedEvk) keys, so a
// source chooses the residency form it hands the cache: compressed
// material is cached at its compressed footprint and its A-half drawn
// only inside a replay. Implementations must be safe for concurrent use and
// should memoize in the form they hand out (ckks.KeyChain keeps a key
// asked for compressed as packed B-halves and seeds only), so
// re-loading an evicted key returns identical material, served results stay
// bit-exact across evictions, and what sits behind the cache is no
// larger per key than what sits in it. The budget bounds what the
// service pins; the source is its backing store. SeedKeySource adapts
// ckks key chains; tests inject counting sources via KeyMaterialFunc.
type KeySource interface {
	Key(id KeyID) (hks.KeyMaterial, error)
}

// KeyMaterialFunc adapts a function to the KeySource interface.
type KeyMaterialFunc func(id KeyID) (hks.KeyMaterial, error)

// Key implements KeySource.
func (f KeyMaterialFunc) Key(id KeyID) (hks.KeyMaterial, error) { return f(id) }

// TenantCacheStats is one tenant's slice of the key cache: resident
// keys and bytes (with the dense-equivalent footprint alongside), and
// the hit/miss/eviction counters.
type TenantCacheStats struct {
	Tenant     string  `json:"tenant"`
	Size       int     `json:"size"`
	Bytes      int64   `json:"bytes"`
	DenseBytes int64   `json:"dense_bytes"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Evictions  uint64  `json:"evictions"`
	HitRate    float64 `json:"hit_rate"`
}

// add folds o into tc: residency and counters add, and the hit rate is
// recomputed from the sums.
func (tc *TenantCacheStats) add(o TenantCacheStats) {
	tc.Size += o.Size
	tc.Bytes += o.Bytes
	tc.DenseBytes += o.DenseBytes
	tc.Hits += o.Hits
	tc.Misses += o.Misses
	tc.Evictions += o.Evictions
	tc.HitRate = 0
	if gets := tc.Hits + tc.Misses; gets > 0 {
		tc.HitRate = float64(tc.Hits) / float64(gets)
	}
}

// CacheStats is a point-in-time snapshot of the key cache: the global
// byte budget, and the resident bytes and counters summed over the
// per-tenant breakdown (sorted by tenant). A Get that joins another
// caller's in-flight load counts as a hit (the load was shared);
// HitRate is hits over all Gets.
type CacheStats struct {
	BudgetBytes int64 `json:"budget_bytes"`
	Bytes       int64 `json:"bytes"`
	// DenseBytes is what the resident set would occupy fully expanded;
	// DenseBytes/Bytes is the measured compression ratio (1.0 when
	// every resident key is dense).
	DenseBytes int64              `json:"dense_bytes"`
	Size       int                `json:"size"`
	Hits       uint64             `json:"hits"`
	Misses     uint64             `json:"misses"`
	Evictions  uint64             `json:"evictions"`
	HitRate    float64            `json:"hit_rate"`
	Tenants    []TenantCacheStats `json:"tenants"`
}

// cacheTotal is the CacheStats of a set of tenant shards: every figure
// is the sum of theirs. The budget is the caller's to set; the result
// holds the slice.
func cacheTotal(tenants []TenantCacheStats) CacheStats {
	var all TenantCacheStats
	for _, tc := range tenants {
		all.add(tc)
	}
	return CacheStats{
		Bytes: all.Bytes, DenseBytes: all.DenseBytes, Size: all.Size,
		Hits: all.Hits, Misses: all.Misses, Evictions: all.Evictions,
		HitRate: all.HitRate, Tenants: tenants,
	}
}

type cacheEntry struct {
	id         KeyID
	mat        hks.KeyMaterial
	bytes      int64 // resident footprint of the cached form
	denseBytes int64 // footprint once expanded (== bytes when dense)
}

// keyLoad is one in-flight backing-store load, joined by every
// concurrent Get of the same KeyID.
type keyLoad struct {
	done chan struct{}
	mat  hks.KeyMaterial
	err  error
}

// keyCache is the tenant-sharded LRU map KeyID → hks.KeyMaterial under
// one global byte budget, with singleflight loading. Safe for
// concurrent use. The source runs outside the cache lock, so slow key
// generation never blocks hits on other keys.
type keyCache struct {
	src    KeySource
	budget int64

	mu      sync.Mutex
	entries map[KeyID]*list.Element // id -> element in order
	order   *list.List              // front = most recently used *cacheEntry
	// shards carry each tenant's residency and counters (Tenant and
	// HitRate are filled in by Stats). Recency lives in the one global
	// list: eviction weighs tenants against each other.
	shards  map[string]*TenantCacheStats
	loading map[KeyID]*keyLoad
	bytes   int64 // resident, all tenants: what eviction holds to the budget
}

// tenantKeyFloor is the number of resident keys per tenant that budget
// eviction prefers to spare: victims are taken from tenants above it
// while any exist, so a hot tenant cannot strip a light tenant bare.
const tenantKeyFloor = 1

func newKeyCache(src KeySource, budget int64) *keyCache {
	return &keyCache{
		src:     src,
		budget:  budget,
		entries: make(map[KeyID]*list.Element),
		order:   list.New(),
		shards:  make(map[string]*TenantCacheStats),
		loading: make(map[KeyID]*keyLoad),
	}
}

func (c *keyCache) shard(tenant string) *TenantCacheStats {
	s, ok := c.shards[tenant]
	if !ok {
		s = &TenantCacheStats{}
		c.shards[tenant] = s
	}
	return s
}

// Get returns the key material for id, loading it through the backing
// KeySource on a miss. Concurrent Gets of the same absent key share
// one load. The returned material remains valid after eviction; failed
// loads are not cached.
func (c *keyCache) Get(id KeyID) (hks.KeyMaterial, error) {
	c.mu.Lock()
	sh := c.shard(id.Tenant)
	if el, ok := c.entries[id]; ok {
		c.order.MoveToFront(el)
		sh.Hits++
		mat := el.Value.(*cacheEntry).mat
		c.mu.Unlock()
		return mat, nil
	}
	if l, ok := c.loading[id]; ok {
		sh.Hits++ // shared someone else's load
		c.mu.Unlock()
		<-l.done
		return l.mat, l.err
	}
	sh.Misses++
	l := &keyLoad{done: make(chan struct{})}
	c.loading[id] = l
	c.mu.Unlock()

	l.mat, l.err = c.src.Key(id)
	close(l.done)

	c.mu.Lock()
	delete(c.loading, id)
	if l.err == nil && l.mat != nil {
		e := &cacheEntry{
			id:         id,
			mat:        l.mat,
			bytes:      int64(l.mat.SizeBytes()),
			denseBytes: int64(l.mat.DenseSizeBytes()),
		}
		c.entries[id] = c.order.PushFront(e)
		sh := c.shard(id.Tenant)
		sh.Size++
		sh.Bytes += e.bytes
		sh.DenseBytes += e.denseBytes
		c.bytes += e.bytes
		c.evictLocked()
	}
	c.mu.Unlock()
	return l.mat, l.err
}

// evictLocked drops least-recently-used entries until resident bytes
// fit the budget. Victims are preferentially taken from tenants above
// the per-tenant floor; if every tenant is at its floor the budget
// still wins and plain LRU applies. Terminates because each pass
// removes one entry.
func (c *keyCache) evictLocked() {
	for c.bytes > c.budget && c.order.Len() > 0 {
		var victim *list.Element
		for el := c.order.Back(); el != nil; el = el.Prev() {
			if c.shards[el.Value.(*cacheEntry).id.Tenant].Size > tenantKeyFloor {
				victim = el
				break
			}
		}
		if victim == nil {
			victim = c.order.Back()
		}
		e := victim.Value.(*cacheEntry)
		c.order.Remove(victim)
		delete(c.entries, e.id)
		sh := c.shards[e.id.Tenant]
		sh.Size--
		sh.Bytes -= e.bytes
		sh.DenseBytes -= e.denseBytes
		sh.Evictions++
		c.bytes -= e.bytes
	}
}

// Stats snapshots the per-tenant counters and their total.
func (c *keyCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var tenants []TenantCacheStats
	for name, sh := range c.shards {
		tc := TenantCacheStats{Tenant: name}
		tc.add(*sh)
		tenants = append(tenants, tc)
	}
	sort.Slice(tenants, func(a, b int) bool { return tenants[a].Tenant < tenants[b].Tenant })
	st := cacheTotal(tenants)
	st.BudgetBytes = c.budget
	return st
}
