package cluster

// Rendezvous (highest-random-weight) hashing of tenants onto shards.
// The router keys routing on KeyID.Tenant — the unit of key residency —
// so one tenant's evaluation keys concentrate on the shard(s) that rank
// highest for it. Every shard draws an independent weight per tenant,
// so tenants spread evenly however few there are, and removing a shard
// (drain, death) moves only the tenants it ranked first for instead of
// reshuffling everyone. The ranking gives hot tenants up to R distinct
// shards; key determinism (serve.TenantSeed) makes serving from any
// replica bit-exact.

import (
	"hash/fnv"
	"slices"
	"strconv"
)

// hashRing ranks the live shards for each tenant.
type hashRing struct {
	dead []bool // by shard index
}

// weight is a tenant's draw on shard s: FNV-1a of "<tenant>/shard-<s>"
// through SplitMix64's finaliser, since FNV alone barely moves on
// names that differ in one trailing character.
func weight(tenant string, s int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tenant + "/shard-" + strconv.Itoa(s)))
	z := h.Sum64()
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func newHashRing(shards int) *hashRing { return &hashRing{dead: make([]bool, shards)} }

// remove marks a shard dead; its tenants fall to their next-ranked live
// shard, and owners never returns it again.
func (h *hashRing) remove(shard int) { h.dead[shard] = true }

// owners returns up to n distinct live shards (at least one) in
// descending order of the tenant's weight, ties to the lower index: the
// tenant's primary and its replicas. Returns nil when no shard is live.
func (h *hashRing) owners(tenant string, n int) []int {
	var out []int
	for len(out) < max(n, 1) {
		best, most := -1, uint64(0)
		for s, dead := range h.dead {
			if w := weight(tenant, s); !dead && !slices.Contains(out, s) && (best < 0 || w > most) {
				best, most = s, w
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, best)
	}
	return out
}
