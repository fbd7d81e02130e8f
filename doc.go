// Package ciflow is a from-scratch Go reproduction of "CiFlow:
// Dataflow Analysis and Optimization of Key Switching for Homomorphic
// Encryption" (ISPASS 2024), grown into a small serving system around
// the paper's central claim: key switching is dominated by data
// movement, and reorganizing the dataflow turns redundant work into
// shared state.
//
// The repository has three layers that apply that claim at increasing
// scope:
//
//   - The reproduction: a functional CKKS/HKS implementation
//     (internal/ckks, internal/hks), the three HKS dataflows
//     (Max-Parallel, Digit-Centric, Output-Centric) and an RPU
//     performance model — internal/dataflow generates each
//     dataflow's task list and runs it at one DRAM bandwidth and the
//     compute rate of internal/rpu — that regenerates every table and
//     figure of the paper's evaluation (internal/analysis).
//   - Execution: internal/engine runs the MP/DC/OC stage graphs for
//     real — a worker-pool runtime with per-tower and per-digit task
//     graphs and pooled limb buffers — and hoisted key switching
//     (hks.Hoisted, ckks.Evaluator.RotateHoisted) shares one
//     Decompose+ModUp across a rotation fan-out. Both are bit-exact
//     with the serial pipeline.
//   - Serving: internal/serve amortizes the same work across
//     *requests* — an in-process, multi-tenant key-switch service
//     whose API is organized around keyspaces: requests carry a
//     tenant and a ciphertext level, a KeySource resolves
//     KeyID{Tenant, Rot, Level} to evaluation keys
//     (serve.SeedKeySource derives each tenant's ckks.KeyChain from
//     its name), and levels route through one
//     lazily built hks.SwitcherPool. A tenant-sharded key cache under
//     one global byte budget (eviction weighted by Evk.SizeBytes,
//     per-tenant residency floor), a hoisted-state coalescer scoped
//     per keyspace, and per-tenant dispatchers with bounded queues
//     keep tenants isolated while they share the engine. Its books
//     are kept once, at the tenant; the service totals, the sum over
//     a cluster's shards (serve.MergeStats) and one tenant's view are
//     one summation of them.
//   - Workloads: internal/workload represents key-switch traffic as
//     typed schedule DAGs — bootstrapping CoeffToSlot/SlotToCoeff
//     chains derived from the BTS parameter sets, baby-step/
//     giant-step matvecs, and independent fan-out as the degenerate
//     case — each predicting its exact op counts (ModUps with and
//     without hoisting, switches per level). A dependency-aware
//     replay client drives the service respecting the DAG, with
//     inputs derived from predecessor outputs, and requires the
//     measured serve counters to equal the schedule's predictions
//     exactly: coalescing must fire inside hoist groups and never
//     across dependent chain steps.
//
// The `ciflow` command regenerates the paper artifacts and drives all
// of the above: `ciflow serve` replays a -workload schedule DAG for
// -tenants tenants, each against the serial bit-exactness reference,
// through one in-process service or -shards shard processes behind
// the cluster router, and -check turns bit-exactness and exact count
// cross-validation into an exit code; `ciflow schedule` prints a
// schedule's shape, predicted counts, and modeled cost including
// shared-ModUp savings. What any layer costs is measured by the one
// instrument, `go run ./bench` (BENCHMARK.json, bench/README.md). See
// README.md for quickstarts and DESIGN.md for the architecture and the
// bit-exactness argument.
package ciflow
