package cluster

// Consistent hashing of tenants onto shards, with virtual nodes. The
// router keys routing on KeyID.Tenant — the unit of key residency —
// so one tenant's evaluation keys concentrate on the shard(s) that
// own its arc of the ring, and removing a shard (drain, death) moves
// only the tenants on its arcs instead of reshuffling everyone. The
// replica walk gives hot tenants up to R distinct shards; key
// determinism (serve.TenantSeed) makes serving from any replica
// bit-exact.

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// hashRing is a consistent-hash ring over shard indices.
type hashRing struct {
	points []ringPoint // sorted ascending by hash
	live   map[int]bool
}

type ringPoint struct {
	hash  uint64
	shard int
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// vnodes is the number of virtual points each shard places on the ring.
const vnodes = 64

func newHashRing(shards int) *hashRing {
	h := &hashRing{live: make(map[int]bool, shards)}
	for s := 0; s < shards; s++ {
		h.live[s] = true
		for v := 0; v < vnodes; v++ {
			h.points = append(h.points, ringPoint{
				hash:  hash64(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(h.points, func(a, b int) bool { return h.points[a].hash < h.points[b].hash })
	return h
}

// remove marks a shard dead; its arcs fall to the next live shard
// clockwise, and owners never returns it again.
func (h *hashRing) remove(shard int) { delete(h.live, shard) }

// liveCount reports the remaining live shards.
func (h *hashRing) liveCount() int { return len(h.live) }

// owners walks clockwise from the tenant's hash collecting up to n
// distinct live shards: the tenant's primary and its replicas.
// Returns nil when no shard is live.
func (h *hashRing) owners(tenant string, n int) []int {
	if n <= 0 {
		n = 1
	}
	if n > len(h.live) {
		n = len(h.live)
	}
	if n == 0 || len(h.points) == 0 {
		return nil
	}
	start := sort.Search(len(h.points), func(i int) bool {
		return h.points[i].hash >= hash64(tenant)
	})
	seen := make(map[int]bool, n)
	var out []int
	for i := 0; len(out) < n && i < len(h.points); i++ {
		p := h.points[(start+i)%len(h.points)]
		if !h.live[p.shard] || seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, p.shard)
	}
	return out
}
