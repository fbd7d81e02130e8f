# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt bench perfgate clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "files need gofmt:"; echo "$$unformatted"; exit 1; fi

# bench measures engine-backed key-switching throughput per dataflow —
# including the hoisted rotation fan-out (shared ModUp across 8 keys)
# reconciled against the HoistedOpsSaved model — and snapshots the
# report to BENCH_engine.json so the performance trajectory is tracked
# from PR to PR. It then drives the internal/serve multi-tenant
# service with the `ciflow serve` load generator (overlapping
# rotations from concurrent clients over a 2-tenant x 2-level
# keyspace matrix, serving seed-compressed keys at HALF the previous
# 256 MiB budget — the perfgate pins that the working set still fits
# and throughput holds) and snapshots its ops/sec, per-tenant cache
# hit rates, key-byte residency, streamed-expansion counts, and
# coalescing factor to BENCH_serve.json.
# Finally it replays a BTS2-shaped bootstrapping schedule DAG
# (CoeffToSlot/SlotToCoeff chains with hoistable fan-outs) through the
# service with the dependency-aware workload client and snapshots the
# exact-count cross-validation to BENCH_workload.json, replays the
# committed private-inference library scenario the same way from its
# golden file (the import path, exercised end to end) to
# BENCH_scenario.json, then replays the bootstrap shape across a
# sharded multi-process fabric (ciflow cluster: shard subprocesses
# behind the internal/cluster wire protocol, with replication and a
# mid-replay drain) and snapshots the shard-sum/bit-exactness
# verdicts to BENCH_cluster.json.
# The throughput, serve, and cluster legs run under -profile, so every
# snapshot carries stage_shares (internal/obs stage histograms priced
# against wall time); the perfgate pins that the serial row's shares
# keep summing to ~1, that the serve/cluster profiles stay present,
# and that the cluster's router-merged histograms equal the per-shard
# sums exactly.
# Last, the go-test micro-benchmarks — the three lazy-reduction
# kernels at the benchmark shape (one NTT tower, ModUp's and ModDown's
# basis conversions, one ApplyKey row), then the hks switch paths
# (serial KeySwitch, SwitchParallel MP/DC/OC and 8 individual,
# SwitchHoisted8 serial and parallel) — go to bench_kernels.txt, which
# CI uploads beside the JSON reports.
# Tune with e.g.
#   make bench BENCH_FLAGS="-logn 14 -requests 32 -workers 8"
KERNEL_BENCH ?= ForwardN8192|InverseN8192|ConvertModUp|ConvertExactModDown|MulAcc3
BENCH_FLAGS ?= -logn 13 -requests 8
SERVE_FLAGS ?= -logn 13 -clients 4 -rotations 8 -requests 8 -tenants 2 -levels 2 -keycomp -keybudget 134217728
WORKLOAD_FLAGS ?= -logn 13 -towers 6 -bts 2
SCENARIO_FLAGS ?= -logn 13 -towers 6 -dnum 2
CLUSTER_FLAGS ?= -logn 12 -towers 6 -bts 2 -shards 3 -tenants 4 -replicas 2 -kill

bench:
	$(GO) run ./cmd/ciflow throughput $(BENCH_FLAGS) -hoisted -rotations 8 -profile -json BENCH_engine.json
	$(GO) run ./cmd/ciflow serve $(SERVE_FLAGS) -profile -check -json BENCH_serve.json
	$(GO) run ./cmd/ciflow serve -workload bootstrap $(WORKLOAD_FLAGS) -check -json BENCH_workload.json
	$(GO) run ./cmd/ciflow serve -workload file:internal/workload/testdata/private-inference.schedule.json $(SCENARIO_FLAGS) -check -json BENCH_scenario.json
	$(GO) build -o bin/ciflow ./cmd/ciflow && bin/ciflow cluster $(CLUSTER_FLAGS) -profile -check -json BENCH_cluster.json
	{ $(GO) test -run NONE -bench '$(KERNEL_BENCH)' ./internal/mod/ ./internal/ntt/ ./internal/bconv/ && \
	  $(GO) test -run NONE -bench 'KeySwitchN4096|SwitchParallel|SwitchHoisted' -benchtime 2x ./internal/hks/; } > bench_kernels.txt; \
		status=$$?; cat bench_kernels.txt; exit $$status

# perfgate compares fresh BENCH_engine.json / BENCH_serve.json /
# BENCH_workload.json against stashed baselines (the CI perf-
# regression gate): fail only on >2x ops/sec regressions, a hoisted
# path losing to per-rotation switching, the serve invariants breaking
# (bit-exactness, coalescing > 1, global and per-tenant cache hit
# rates > 50%, resident key bytes within budget, zero cross-tenant
# coalesces, no starved tenant), or the workload invariants breaking
# (replay bit-exact with serial schedule execution, measured counters
# equal to the DAG's predictions — dependency order respected, hoist
# groups coalescing > 1, zero coalesces across chain steps; applied to
# the generated bootstrap schedule and the imported library scenario
# alike), or the
# cluster invariants breaking (per-shard stats summing exactly to
# tenants x the schedule prediction, bit-exactness over the wire,
# exact router delivery/attribution across the mid-replay drain), or
# the observability invariants breaking (serial stage shares summing
# to 1 within 10%, profiles present wherever the baseline has them,
# cluster-merged histogram buckets equal to the per-shard sums).
BASELINE ?= bench_baseline.json
SERVE_BASELINE ?= serve_baseline.json
WORKLOAD_BASELINE ?= workload_baseline.json
SCENARIO_BASELINE ?= scenario_baseline.json
CLUSTER_BASELINE ?= cluster_baseline.json

perfgate:
	$(GO) run ./cmd/ciflow perfgate -baseline $(BASELINE) -fresh BENCH_engine.json \
		-serve-baseline $(SERVE_BASELINE) -serve-fresh BENCH_serve.json \
		-workload-baseline $(WORKLOAD_BASELINE) -workload-fresh BENCH_workload.json \
		-scenario-baseline $(SCENARIO_BASELINE) -scenario-fresh BENCH_scenario.json \
		-cluster-baseline $(CLUSTER_BASELINE) -cluster-fresh BENCH_cluster.json \
		-max-regression 2

clean:
	rm -f BENCH_engine.json BENCH_serve.json BENCH_workload.json BENCH_scenario.json BENCH_cluster.json \
		bench_baseline.json serve_baseline.json workload_baseline.json scenario_baseline.json cluster_baseline.json \
		bench_kernels.txt
	rm -rf bin
