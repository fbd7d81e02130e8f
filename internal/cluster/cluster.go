// Package cluster turns the one-process internal/serve service into
// an N-process serving fabric: shard backends wrapping serve.Service
// behind TCP listeners, a router front-end that consistent-hashes
// tenants onto shards, and a compact length-prefixed wire protocol
// connecting the two.
//
// The paper's argument — key switching is dominated by data movement,
// above all evaluation-key traffic — scales past one process: a
// global key cache shared by every tenant thrashes exactly the way a
// too-small on-chip memory does in the paper's Figure 5. The cluster
// layer extends the keyspace reasoning one level up: route each
// tenant's requests to the shard that owns its slice of the hash
// ring, so that tenant's evaluation keys stay resident where its
// traffic lands, instead of competing for one global budget
// (hash.go). Hot tenants can be spread over several replica shards —
// safe because key material is deterministic (KeySeed) and every
// hoist group stays whole on one shard.
//
// Three pieces:
//
//   - wire.go: versioned, length-prefixed binary frames for group
//     requests, results, stats snapshots, evaluation-key transfer,
//     health checks, drain, and shutdown, composed from the existing
//     ring/hks serializers. The request frame carries a whole hoist
//     group — the shared input polynomial once, plus one rotation per
//     member — the network-level counterpart of hoisting itself (ship
//     the expensive shared operand once per fan-out, not per request).
//   - shard.go: the backend. It decodes group frames, hands each to
//     its service whole (serve.SubmitGroup: one frame, one ModUp), and
//     streams results back. Drain makes its counters final: a
//     draining shard requeues group frames *before executing them*, so
//     its last stats snapshot is exact and the requeued work is
//     counted only where it actually runs.
//   - router.go: the front-end. Consistent hashing with virtual nodes
//     and per-tenant replication, retry-on-requeue, health checks,
//     per-request deduplication (a result is accepted once, from one
//     shard), and router-side per-shard completion counters that
//     attribute every delivered switch to exactly the shard that
//     served it.
//
// The invariant discipline is PR 5's, now distributed: replaying a
// schedule across N shards, the per-shard serve.Stats deltas must sum
// to the schedule's Counts() predictions exactly — switches, ModUps,
// hoist-group coalesces, per level — and every result must be
// bit-exact with a serial replay in the router's process, end-to-end
// over the wire. `ciflow serve -shards S` spawns the shards, runs the
// replay, and enforces both; `ciflow shard` and `ciflow router` expose
// the halves for multi-machine use.
package cluster

import (
	"sort"

	"ciflow/internal/obs"
	"ciflow/internal/serve"
)

// KeySeed maps a tenant name to the deterministic key-generation seed
// every member of the cluster uses for that tenant's keyspace. It is
// serve.TenantSeed — the single-process service and the shards build
// key material through the one serve.SeedKeySource code path, so any
// shard and the router-side serial reference derive bit-identical key
// material from the tenant name alone, without secret material ever
// crossing the wire. That determinism is what makes hot-key
// replication exactness-safe (any replica computes the same bits) and
// the end-to-end bit-exactness check meaningful.
func KeySeed(tenant string) int64 {
	return serve.TenantSeed(tenant)
}

// AggregateStats sums per-shard serve.Stats snapshots into one
// cluster-wide view: counters add, the per-tenant and per-level
// breakdowns merge by name and level, ratios (coalescing factor, hit
// rate) are recomputed from the summed counters, and the latency
// percentiles take the worst shard (summing percentiles would mean
// nothing). The shard-sum invariant the cluster experiment gates is
// exactly this function's output against the schedule predictions.
func AggregateStats(shards []serve.Stats) serve.Stats {
	var agg serve.Stats
	tenants := map[string]*serve.TenantStats{}
	keyTenants := map[string]*serve.TenantCacheStats{}
	levels := map[int]*serve.LevelStats{}

	addLevels := func(dst map[int]*serve.LevelStats, per []serve.LevelStats) {
		for _, ls := range per {
			e := dst[ls.Level]
			if e == nil {
				e = &serve.LevelStats{Level: ls.Level}
				dst[ls.Level] = e
			}
			e.Switches += ls.Switches
			e.ModUps += ls.ModUps
			e.Coalesced += ls.Coalesced
		}
	}
	maxDur := func(a, b *serve.Stats) {
		if b.P50 > a.P50 {
			a.P50 = b.P50
		}
		if b.P99 > a.P99 {
			a.P99 = b.P99
		}
	}

	tenantLevels := map[string]map[int]*serve.LevelStats{}
	for i := range shards {
		st := &shards[i]
		agg.Submitted += st.Submitted
		agg.Served += st.Served
		agg.Failed += st.Failed
		agg.Batches += st.Batches
		agg.Groups += st.Groups
		agg.ModUps += st.ModUps
		agg.Coalesced += st.Coalesced
		agg.KeyExpansions += st.KeyExpansions
		maxDur(&agg, st)
		addLevels(levels, st.PerLevel)
		agg.Phases = serve.MergePhases(agg.Phases, st.Phases)
		// Histogram merge is exact: per-bucket counts sum, so the
		// fabric-wide profile is bit-identical to what one recorder
		// observing every shard's events would have produced.
		agg.Profile = obs.Merge(agg.Profile, st.Profile)

		agg.Keys.BudgetBytes += st.Keys.BudgetBytes
		agg.Keys.Bytes += st.Keys.Bytes
		agg.Keys.DenseBytes += st.Keys.DenseBytes
		agg.Keys.Size += st.Keys.Size
		agg.Keys.Hits += st.Keys.Hits
		agg.Keys.Misses += st.Keys.Misses
		agg.Keys.Evictions += st.Keys.Evictions
		for _, tc := range st.Keys.Tenants {
			e := keyTenants[tc.Tenant]
			if e == nil {
				e = &serve.TenantCacheStats{Tenant: tc.Tenant}
				keyTenants[tc.Tenant] = e
			}
			e.Size += tc.Size
			e.Bytes += tc.Bytes
			e.DenseBytes += tc.DenseBytes
			e.Hits += tc.Hits
			e.Misses += tc.Misses
			e.Evictions += tc.Evictions
		}

		for _, ts := range st.Tenants {
			e := tenants[ts.Tenant]
			if e == nil {
				e = &serve.TenantStats{Tenant: ts.Tenant}
				tenants[ts.Tenant] = e
				tenantLevels[ts.Tenant] = map[int]*serve.LevelStats{}
			}
			e.Submitted += ts.Submitted
			e.Served += ts.Served
			e.Failed += ts.Failed
			e.Batches += ts.Batches
			e.Groups += ts.Groups
			e.ModUps += ts.ModUps
			e.Coalesced += ts.Coalesced
			e.KeyExpansions += ts.KeyExpansions
			if ts.P50 > e.P50 {
				e.P50 = ts.P50
			}
			if ts.P99 > e.P99 {
				e.P99 = ts.P99
			}
			addLevels(tenantLevels[ts.Tenant], ts.PerLevel)
			e.Phases = serve.MergePhases(e.Phases, ts.Phases)
		}
	}

	flattenLevels := func(m map[int]*serve.LevelStats) []serve.LevelStats {
		if len(m) == 0 {
			return nil
		}
		out := make([]serve.LevelStats, 0, len(m))
		for _, e := range m {
			out = append(out, *e)
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Level > out[b].Level })
		return out
	}
	agg.PerLevel = flattenLevels(levels)
	if agg.ModUps > 0 {
		agg.CoalescingFactor = float64(agg.Served) / float64(agg.ModUps)
	}
	if total := agg.Keys.Hits + agg.Keys.Misses; total > 0 {
		agg.Keys.HitRate = float64(agg.Keys.Hits) / float64(total)
	}

	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := *tenants[name]
		ts.PerLevel = flattenLevels(tenantLevels[name])
		if ts.ModUps > 0 {
			ts.CoalescingFactor = float64(ts.Served) / float64(ts.ModUps)
		}
		if kc := keyTenants[name]; kc != nil {
			ts.Keys = *kc
			if total := ts.Keys.Hits + ts.Keys.Misses; total > 0 {
				ts.Keys.HitRate = float64(ts.Keys.Hits) / float64(total)
			}
		}
		agg.Tenants = append(agg.Tenants, ts)
	}
	kNames := make([]string, 0, len(keyTenants))
	for name := range keyTenants {
		kNames = append(kNames, name)
	}
	sort.Strings(kNames)
	for _, name := range kNames {
		tc := *keyTenants[name]
		if total := tc.Hits + tc.Misses; total > 0 {
			tc.HitRate = float64(tc.Hits) / float64(total)
		}
		agg.Keys.Tenants = append(agg.Keys.Tenants, tc)
	}
	return agg
}
