package serve

import (
	"fmt"
	"hash/fnv"

	"ciflow/internal/ckks"
	"ciflow/internal/hks"
	"ciflow/internal/memo"
)

// TenantSeed maps a tenant name to the deterministic key-generation
// seed every process serving that tenant uses for its keyspace.
// ckks.GenKeys is deterministic in (context, seed), so any process —
// a single-process service, a cluster shard, or a serial verifier —
// derives bit-identical key material from the tenant name alone,
// without secret material ever crossing process boundaries. Seeds are
// positive and never zero, so they stay distinguishable from "unset".
func TenantSeed(tenant string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	s := int64(h.Sum64() &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// SeedKeySource is the seed-derived KeySource: it serves a fixed set
// of tenants, building each tenant's ckks.KeyChain lazily from
// TenantSeed(tenant), and hands the cache either dense or
// seed-compressed material depending on how it was constructed. It is
// the one code path through which both the single-process service
// (`ciflow serve`) and the cluster shards construct key material, so
// the two deployments agree on every bit by construction.
//
// Safe for concurrent use, and no tenant waits on another: the tenant
// set is fixed at construction (HasTenant, on every Submit's path,
// takes no lock) and each chain is built once, under its own tenant's
// entry only. A chain memoizes each key in the form this source asks
// for — compressed keys as packed B-halves and seeds only
// (ckks.KeyChain.HoistKeyCompressed), dense keys dense — so re-loading
// an evicted key returns identical material and a compressing source
// keeps no A-half resident anywhere.
type SeedKeySource struct {
	ctx      *ckks.Context
	compress bool
	tenants  map[string]struct{} // immutable after NewSeedKeySource
	chains   memo.Map[string, *ckks.KeyChain]
}

// NewSeedKeySource builds a source serving exactly the given tenants
// from their TenantSeed-derived chains. With compress set, Key hands
// the cache seed-compressed material (hks.CompressedEvk): the B-half
// packed at residue width and the seeds, about a third of the dense
// footprint per key at 40/41-bit towers; a replay draws the A-half in
// its tiles.
func NewSeedKeySource(ctx *ckks.Context, tenants []string, compress bool) (*SeedKeySource, error) {
	if ctx == nil {
		return nil, fmt.Errorf("serve: nil ckks context")
	}
	src := &SeedKeySource{ctx: ctx, compress: compress, tenants: make(map[string]struct{}, len(tenants))}
	for _, t := range tenants {
		if src.HasTenant(t) {
			return nil, fmt.Errorf("serve: duplicate tenant %q", t)
		}
		src.tenants[t] = struct{}{}
	}
	return src, nil
}

// Chain returns (building if needed) the tenant's key chain, for
// callers that need the dense keys or the secret — the serial
// bit-exactness verifiers. Unknown tenants return an error.
func (src *SeedKeySource) Chain(tenant string) (*ckks.KeyChain, error) {
	if !src.HasTenant(tenant) {
		return nil, fmt.Errorf("serve: unknown tenant %q", tenant)
	}
	return src.chains.Do(tenant, func() (*ckks.KeyChain, error) {
		kc, _ := ckks.GenKeys(src.ctx, TenantSeed(tenant))
		return kc, nil
	})
}

// Key implements KeySource: the tenant's hoisting-form rotation key,
// compressed when the source was built with compression on. On error
// the material is the nil interface, never a typed nil pointer.
func (src *SeedKeySource) Key(id KeyID) (hks.KeyMaterial, error) {
	kc, err := src.Chain(id.Tenant)
	if err != nil {
		return nil, err
	}
	if src.compress {
		c, err := kc.HoistKeyCompressed(id.Rot, id.Level)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	evk, err := kc.HoistKey(id.Rot, id.Level)
	if err != nil {
		return nil, err
	}
	return evk, nil
}

// HasTenant implements TenantChecker against the fixed tenant set.
func (src *SeedKeySource) HasTenant(tenant string) bool {
	_, ok := src.tenants[tenant]
	return ok
}
