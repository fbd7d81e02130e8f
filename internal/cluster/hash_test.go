package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

func TestHashRingDeterministic(t *testing.T) {
	a := newHashRing(4)
	b := newHashRing(4)
	for _, tenant := range []string{"t0", "t1", "alpha", "beta"} {
		if !reflect.DeepEqual(a.owners(tenant, 2), b.owners(tenant, 2)) {
			t.Fatalf("owner walk for %q differs between identical rings", tenant)
		}
	}
}

func TestHashRingOwners(t *testing.T) {
	h := newHashRing(4)
	owners := h.owners("tenant", 3)
	if len(owners) != 3 {
		t.Fatalf("owners returned %v, want 3 shards", owners)
	}
	seen := map[int]bool{}
	for _, s := range owners {
		if s < 0 || s >= 4 || seen[s] {
			t.Fatalf("owners returned invalid or duplicate shard: %v", owners)
		}
		seen[s] = true
	}
	// n beyond the live count clamps; n ≤ 0 means one owner.
	if got := h.owners("tenant", 99); len(got) != 4 {
		t.Fatalf("over-asking returned %v, want all 4", got)
	}
	if got := h.owners("tenant", 0); len(got) != 1 {
		t.Fatalf("n=0 returned %v, want one owner", got)
	}
}

// TestHashRingSpread holds the placement to an even spread of short,
// nearly identical names — the bench's tenants are t0 and t1 — over
// two, three and four shards.
func TestHashRingSpread(t *testing.T) {
	for shards := 2; shards <= 4; shards++ {
		h := newHashRing(shards)
		load := make([]int, shards)
		for i := 0; i < 64; i++ {
			load[h.owners(fmt.Sprintf("t%d", i), 1)[0]]++
		}
		if most := slices.Max(load); float64(most)/(64/float64(shards)) > 1.25 {
			t.Errorf("%d shards: t0…t63 land %v, max/mean above 1.25", shards, load)
		}
	}
	if h := newHashRing(2); h.owners("t0", 1)[0] == h.owners("t1", 1)[0] {
		t.Error("t0 and t1 share a shard of two")
	}
}

func TestHashRingRemove(t *testing.T) {
	h := newHashRing(3)
	tenants := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	before := map[string]int{}
	for _, tn := range tenants {
		before[tn] = h.owners(tn, 1)[0]
	}
	h.remove(1)
	for _, tn := range tenants {
		owners := h.owners(tn, 1)
		if len(owners) != 1 || owners[0] == 1 {
			t.Fatalf("tenant %q routed to removed shard: %v", tn, owners)
		}
		// Consistent hashing: tenants not owned by the removed shard
		// keep their placement.
		if before[tn] != 1 && owners[0] != before[tn] {
			t.Fatalf("tenant %q moved from %d to %d though shard 1 was removed",
				tn, before[tn], owners[0])
		}
	}
	h.remove(0)
	h.remove(2)
	if got := h.owners("a", 1); got != nil {
		t.Fatalf("empty ring returned owners %v", got)
	}
}
