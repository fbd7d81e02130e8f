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
// safe because key material is deterministic (serve.TenantSeed: any
// replica computes the same bits, with no secret crossing the wire)
// and every hoist group stays whole on one shard.
//
// Three pieces:
//
//   - wire.go: versioned, length-prefixed binary frames for group
//     requests, results, stats snapshots, health checks, drain, and
//     shutdown, composed from the ring serializer. No frame carries a
//     key: every process derives a tenant's evaluation keys from the
//     tenant's name (serve.TenantSeed). The request frame carries a
//     whole hoist group — the shared input polynomial once, plus one
//     rotation per member — the network-level counterpart of hoisting
//     itself (ship the expensive shared operand once per fan-out, not
//     per request).
//   - shard.go: the backend. It decodes group frames, hands each to
//     its service whole (serve.SubmitGroup: one frame, one ModUp), and
//     streams results back. Drain makes its counters final: a
//     draining shard requeues group frames *before executing them*, so
//     its last stats snapshot is exact and the requeued work is
//     counted only where it actually runs.
//   - router.go: the front-end. Rendezvous hashing (hash.go) with
//     per-tenant replication, health checks, and bookkeeping by the
//     frame: a group's frame is built once, member i is request
//     BaseID+i for the group's whole life, and a requeue or a death
//     resends the whole frame under the same IDs to the next live
//     owner. A result is accepted once, from the shard that owns the
//     group, and router-side per-shard completion counters attribute
//     every delivered switch to exactly the shard that served it.
//
// The invariant discipline is PR 5's, now distributed: replaying a
// schedule across N shards, the per-shard serve.Stats deltas must sum
// to the schedule's Counts() predictions exactly — switches, ModUps,
// hoist-group coalesces, per level — and every result must be
// bit-exact with a serial replay in the router's process, end-to-end
// over the wire. `ciflow serve -shards S` spawns the shards, runs the
// router inside its own process, replays, and enforces both; `ciflow
// shard` is one shard on its own. There is no router verb: the router
// runs only inside `ciflow serve -shards S`.
package cluster

import "ciflow/internal/serve"

// AggregateStats sums per-shard serve.Stats snapshots into one
// cluster-wide view. The summation is serve's own (serve.MergeStats):
// tenants merge by name and the totals are derived from the merged
// tenants exactly as one service derives its own, so the shard-sum
// invariant `ciflow serve -shards S -check` gates is this function's
// output against the schedule predictions.
func AggregateStats(shards []serve.Stats) serve.Stats {
	return serve.MergeStats(shards...)
}
