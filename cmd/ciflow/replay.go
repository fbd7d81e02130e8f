package main

// `ciflow serve` is the one replay driver: it replays one schedule (a
// -workload shape or file:PATH) for -tenants tenants concurrently,
// each against the serial bit-exactness reference, through one
// in-process serve.Service (-shards 0) or through -shards spawned
// `ciflow shard` processes behind a cluster.Router (-replicas, -kill).
// The two modes differ only in the fabric. Keys and the reference come
// from one seed-derived source — what every shard builds for itself,
// so no key crosses the wire; every service is configured by
// replayServiceConfig; the servers are per-tenant views of
// the service or of the router; the books are the service's Stats or
// the aggregate of the shards'. One report, one -check. What a run
// costs is `go run ./bench`'s question, not this verb's: the timings
// printed here are context for the exactness verdicts.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/cluster"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/mod"
	"ciflow/internal/obs"
	"ciflow/internal/serve"
	"ciflow/internal/workload"
)

// serveConfig is the replay driver's flags.
type serveConfig struct {
	fabricFlags
	shapeFlags
	dfName    string
	shards    int // 0 = one in-process service
	kill      bool
	tracePath string
	pprofDir  string
	check     bool
}

// serveReport is the JSON artifact of a replay, in either mode.
type serveReport struct {
	N        int    `json:"n"`
	Towers   int    `json:"towers"`
	Dnum     int    `json:"dnum"`
	Workers  int    `json:"workers"`
	NumCPU   int    `json:"num_cpu"`
	Dataflow string `json:"dataflow"`
	// Kernel is this process's kernel body (mod.Kernel); each shard's
	// rides per_shard[].stats.kernel. Like workers and num_cpu it says
	// which other reports the timings below compare with.
	Kernel string `json:"kernel"`

	Tenants  int `json:"tenants"`
	Shards   int `json:"shards"`
	Replicas int `json:"replicas,omitempty"`
	// Drained is the shard -kill drained mid-replay, -1 otherwise.
	Drained int `json:"drained_shard"`

	Workload string `json:"workload"`
	BTS      int    `json:"bts,omitempty"`
	Radix    int    `json:"radix"`
	Schedule string `json:"schedule"`

	// Predicted is one tenant's schedule; the books below cover all.
	Predicted workload.Counts `json:"predicted"`

	DurationSec float64 `json:"duration_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`

	Served    uint64 `json:"served"`
	ModUps    uint64 `json:"mod_ups"`
	Groups    uint64 `json:"groups"`
	Coalesced uint64 `json:"coalesced"`

	KeyHitRate   float64 `json:"key_hit_rate"`
	KeyMisses    uint64  `json:"key_misses"`
	KeyEvictions uint64  `json:"key_evictions"`
	KeyBytes     int64   `json:"key_resident_bytes"`
	KeyBudget    int64   `json:"key_budget_bytes"`

	// BooksExact: the books sum to tenants x Predicted, level by level.
	// CountsExact/BitExact/DepViolations fold every tenant's replay
	// verdicts; HoistCoalescingFactor is the smallest tenant's.
	BooksExact            bool     `json:"books_exact"`
	CountsExact           bool     `json:"counts_exact"`
	BitExact              bool     `json:"bit_exact"`
	DepViolations         int      `json:"dep_violations"`
	HoistCoalescingFactor float64  `json:"hoist_coalescing_factor"`
	Mismatches            []string `json:"mismatches,omitempty"`

	// Delivered counts results the router handed to clients and
	// CompletedSum the per-shard attribution (sharded runs only): both
	// must equal tenants x Predicted.Switches, so no retry across a
	// drain was lost, double-delivered or double-counted.
	Delivered    uint64 `json:"delivered,omitempty"`
	CompletedSum uint64 `json:"completed_sum,omitempty"`

	// Phases is the request-lifecycle breakdown the service always
	// keeps; StageShares prices the -profile stage histograms (merged
	// exactly across shards) against the wall time of the replays and
	// their references. In-process the references and the tenants'
	// dispatchers record into the same profile as the engine workers,
	// so the shares sum to at most workers + 2 x tenants.
	Phases      []serve.PhaseStats `json:"phases,omitempty"`
	StageShares []obs.StageShare   `json:"stage_shares,omitempty"`

	TenantStats []serve.Stats         `json:"tenant_stats"`
	PerShard    []cluster.ShardStatus `json:"per_shard,omitempty"`
}

// replayServiceConfig is the serve.Config of every service a replay
// goes through, in the driver's process or a shard's: request levels
// taken literally (workload.ReplayServiceConfig — a schedule node at
// level 0 is served at level 0) on the given engine and key budget.
// A replay submits only sealed groups, which serve starts as soon as
// their tenant has a slot for them and never splits, merges or joins.
func replayServiceConfig(e *engine.Engine, keyBudget int64) serve.Config {
	scfg := workload.ReplayServiceConfig(nil)
	scfg.Engine, scfg.KeyBudget = e, keyBudget
	return scfg
}

// tenantService is one tenant's view of the in-process service — what
// cluster.TenantView is to a router: the replay's counter deltas see
// only that tenant's slice of the shared books.
type tenantService struct {
	*serve.Service
	tenant string
}

func (t tenantService) Stats() serve.Stats { return t.Service.Stats().ForTenant(t.tenant) }

// serveRun validates the configuration, stands the fabric up, replays
// every tenant and fills the report. Every refusal comes before the
// first side effect (profiles, trace, subprocesses). Split from the
// printing so tests can call it directly.
func serveRun(cfg serveConfig) (rep *serveReport, err error) {
	switch {
	case cfg.tenants < 1:
		return nil, fmt.Errorf("serve: -tenants %d, want >= 1", cfg.tenants)
	case cfg.shards < 0:
		return nil, fmt.Errorf("serve: -shards %d, want >= 0", cfg.shards)
	case cfg.kill && cfg.shards < 2:
		return nil, fmt.Errorf("serve: -kill needs -shards >= 2 so survivors can absorb the drain")
	case cfg.tracePath != "" && cfg.shards > 0:
		return nil, fmt.Errorf("serve: -trace follows one process; use -shards 0")
	case cfg.keyBudget < 0:
		return nil, fmt.Errorf("serve: keybudget %d must be >= 0", cfg.keyBudget)
	}
	df, err := dataflow.Parse(cfg.dfName)
	if err != nil {
		return nil, err
	}
	bts, err := workload.BTSBenchmark(cfg.bts)
	if err != nil {
		return nil, err
	}
	if cfg.dnum == 0 {
		// The level count is fixed by -towers, so the digit count is
		// what a bootstrap replay inherits from the -bts set — raised
		// when needed so no digit spans more Q towers than the replay
		// ring's three P moduli can cover in ModUp (K ≥ α).
		cfg.dnum = max(bts.Dnum, (cfg.towers+2)/3)
	}
	if cfg.dnum > cfg.towers {
		return nil, fmt.Errorf("serve: dnum %d exceeds %d towers", cfg.dnum, cfg.towers)
	}
	if cfg.workers <= 0 {
		// Split the machine across the shard processes rather than
		// oversubscribing it shards times.
		cfg.workers = max(runtime.GOMAXPROCS(0)/max(cfg.shards, 1), 1)
	}
	cctx, err := cfg.context("serve")
	if err != nil {
		return nil, err
	}
	sched, err := scheduleFor(cfg.workload, geometry{logN: cfg.logN, top: cctx.MaxLevel},
		cfg.radix, cfg.rotations, cfg.requests)
	if err != nil {
		return nil, err
	}

	stopPprof, err := startPprof(cfg.pprofDir)
	if err != nil {
		return nil, err
	}
	// Shards profile themselves (spawnShard passes -profile on) and
	// ship the histograms in their stats frames.
	finishObs := setupObs(cfg.profile && cfg.shards == 0, cfg.tracePath)
	defer func() {
		if perr := stopPprof(); err == nil {
			err = perr
		}
		if oerr := finishObs(); err == nil {
			err = oerr
		}
	}()

	names := tenantNames(cfg.tenants)
	keys, err := serve.NewSeedKeySource(cctx, names, true)
	if err != nil {
		return nil, err
	}
	servers := make([]workload.Server, len(names))
	var books func() serve.Stats
	var rt *cluster.Router
	if cfg.shards == 0 {
		e := engine.New(cfg.workers)
		defer e.Close()
		svc, err := serve.New(cctx.Switchers(), keys, replayServiceConfig(e, cfg.keyBudget))
		if err != nil {
			return nil, err
		}
		defer svc.Close()
		for i, tn := range names {
			servers[i] = tenantService{svc, tn}
		}
		books = svc.Stats
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		var procs []*shardProc
		defer func() {
			for _, p := range procs {
				p.stop()
			}
		}()
		addrs := make([]string, cfg.shards)
		for i := range addrs {
			p, err := spawnShard(exe, shardConfig{fabricFlags: cfg.fabricFlags, addr: "127.0.0.1:0"})
			if err != nil {
				return nil, err
			}
			procs = append(procs, p)
			addrs[i] = p.addr
		}
		if rt, err = cluster.NewRouter(cctx.R, addrs, cluster.RouterConfig{Replicas: cfg.replicas}); err != nil {
			return nil, err
		}
		defer rt.Close()
		for i, tn := range names {
			servers[i] = &cluster.TenantView{Router: rt, Tenant: tn}
		}
		books = func() serve.Stats { return cluster.AggregateStats(rt.AllStats()) }
	}

	results, elapsed, err := replayTenants(cctx, sched, keys, names, servers, df, rt, cfg.kill)
	if err != nil {
		return nil, err
	}

	st := books()
	rep = &serveReport{
		N: cctx.R.N, Towers: cfg.towers, Dnum: cfg.dnum,
		Workers: cfg.workers, NumCPU: runtime.NumCPU(), Kernel: mod.Kernel(), Dataflow: df.String(),
		Tenants: cfg.tenants, Shards: cfg.shards, Drained: -1,
		Workload: cfg.workload, Radix: sched.Radix, Schedule: sched.Name,
		Predicted: sched.Counts(),
		P50Ms:     float64(st.P50) / float64(time.Millisecond),
		P99Ms:     float64(st.P99) / float64(time.Millisecond),
		Served:    st.Served, ModUps: st.ModUps, Groups: st.Groups,
		Coalesced:  st.Coalesced,
		KeyHitRate: st.Keys.HitRate, KeyMisses: st.Keys.Misses,
		KeyEvictions: st.Keys.Evictions, KeyBytes: st.Keys.Bytes,
		KeyBudget:   st.Keys.BudgetBytes,
		CountsExact: true, BitExact: true,
		Phases:      st.Phases,
		StageShares: obs.Shares(st.Profile, elapsed.Seconds()),
		TenantStats: st.Tenants,
	}
	if cfg.workload == "bootstrap" {
		rep.BTS = cfg.bts
	}
	var wall time.Duration
	for i, res := range results {
		rep.CountsExact = rep.CountsExact && res.CountsExact
		rep.BitExact = rep.BitExact && res.Checked && res.BitExact
		rep.DepViolations += res.DepViolations
		for _, m := range res.Mismatches {
			rep.Mismatches = append(rep.Mismatches, names[i]+": "+m)
		}
		if i == 0 || res.HoistCoalescingFactor < rep.HoistCoalescingFactor {
			rep.HoistCoalescingFactor = res.HoistCoalescingFactor
		}
		wall = max(wall, res.Wall)
	}
	// The slowest tenant's replay, its reference excluded.
	rep.DurationSec = wall.Seconds()
	rep.OpsPerSec = float64(st.Served) / wall.Seconds()
	drift := sched.CompareBooks(serve.Stats{}, st, cfg.tenants)
	rep.BooksExact = len(drift) == 0
	for _, m := range drift {
		rep.Mismatches = append(rep.Mismatches, "books: "+m)
	}
	if rt != nil {
		rep.Replicas = max(cfg.replicas, 1)
		rep.Delivered = rt.Delivered()
		rep.PerShard = rt.Status()
		for _, s := range rep.PerShard {
			rep.CompletedSum += s.Completed
			if s.State == cluster.ShardDrained {
				rep.Drained = s.Shard
			}
		}
		rt.ShutdownShards()
	}
	return rep, nil
}

// replayTenants replays sched for every tenant at once, each through
// its own server and against the serial reference, and returns the
// results in tenant order with the wall time of the lot (references
// included). With kill it drains one shard of rt mid-replay; the
// watcher lives no longer than the replays, and a failed replay's
// error — the first, in tenant order — is what comes back.
func replayTenants(cctx *ckks.Context, sched *workload.Schedule, keys serve.KeySource, names []string,
	servers []workload.Server, df dataflow.Dataflow, rt *cluster.Router, kill bool) ([]*workload.ReplayResult, time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drained := make(chan error, 1)
	if kill {
		quarter := uint64(len(names)) * uint64(sched.Counts().Switches) / 4
		go func() { drained <- drainBusiest(ctx, rt, quarter) }()
	} else {
		drained <- nil
	}

	results := make([]*workload.ReplayResult, len(names))
	errs := make([]error, len(names))
	start := time.Now()
	var wg sync.WaitGroup
	for i, tn := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = workload.Replay(ctx, servers[i], cctx.Switchers(), keys, cctx.R, sched,
				workload.ReplayConfig{Tenant: tn, Dataflow: df, Seed: serve.TenantSeed(tn), Check: true})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	derr := <-drained
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return results, elapsed, derr
}

// drainBusiest waits until the router has delivered after results,
// then drains the live shard that completed the most. Drain requeues
// the shard's queued groups and folds its final books into AllStats,
// so the books must still sum across the handoff. If ctx ends first
// the replays finished short of the mark — they failed, and their
// error is the report — so there is nothing to drain.
func drainBusiest(ctx context.Context, rt *cluster.Router, after uint64) error {
	for rt.Delivered() < after {
		if ctx.Err() != nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim, best := -1, uint64(0)
	for _, st := range rt.Status() {
		if st.State == cluster.ShardLive && st.Completed >= best {
			victim, best = st.Shard, st.Completed
		}
	}
	if victim < 0 {
		return fmt.Errorf("serve: no live shard to drain")
	}
	_, err := rt.Drain(victim)
	return err
}

// serveCheck is the acceptance bar behind `serve -check`, the same in
// both modes: every tenant's replay bit-exact with serial execution of
// the schedule and its counters equal to the prediction, dependency
// order held, the books summing to tenants x the prediction level by
// level, hoist groups (where the schedule has any — evalmod's relin
// chain predicts zero coalesces, which the exact counts enforce)
// coalescing, and over shards exact delivery and attribution,
// including across a -kill drain — by shards that all ran the router's
// kernel body, or the one rate the report prints mixes two machines.
func serveCheck(rep *serveReport) error {
	total := uint64(rep.Tenants) * uint64(rep.Predicted.Switches)
	var otherKernel []string
	for _, s := range rep.PerShard {
		if k := s.Stats.Kernel; k != "" && k != rep.Kernel {
			otherKernel = append(otherKernel, fmt.Sprintf("%s (%s)", s.Name, k))
		}
	}
	switch {
	case !rep.BitExact:
		return fmt.Errorf("serve check: replay not bit-exact with serial schedule execution: %v", rep.Mismatches)
	case !rep.CountsExact:
		return fmt.Errorf("serve check: a tenant's measured counters drifted from the schedule's prediction: %v", rep.Mismatches)
	case rep.DepViolations != 0:
		return fmt.Errorf("serve check: %d dependency-order violations", rep.DepViolations)
	case !rep.BooksExact:
		return fmt.Errorf("serve check: the books do not sum to tenants x the schedule's prediction: %v", rep.Mismatches)
	case rep.Predicted.HoistGroups > 0 && rep.HoistCoalescingFactor <= 1:
		return fmt.Errorf("serve check: hoist-group coalescing factor %.2f, want > 1", rep.HoistCoalescingFactor)
	case rep.Shards > 0 && rep.Delivered != total:
		return fmt.Errorf("serve check: router delivered %d results, want exactly %d", rep.Delivered, total)
	case rep.Shards > 0 && rep.CompletedSum != total:
		return fmt.Errorf("serve check: per-shard completion attribution sums to %d, want exactly %d (a retry was double-counted)",
			rep.CompletedSum, total)
	case len(otherKernel) > 0:
		return fmt.Errorf("serve check: the router runs the %s kernel but shards %s do not", rep.Kernel, strings.Join(otherKernel, ", "))
	}
	return nil
}

func serveCmd(cfg serveConfig) error {
	rep, err := serveRun(cfg)
	if err != nil {
		return err
	}

	p := rep.Predicted
	fabric := "one in-process service"
	if rep.Shards > 0 {
		fabric = fmt.Sprintf("%d shards (replicas %d)", rep.Shards, rep.Replicas)
	}
	fmt.Printf("Serve replay: %s (%s) x %d tenants through %s\n", rep.Schedule, rep.Dataflow, rep.Tenants, fabric)
	fmt.Printf("N=2^%d, %d towers, dnum=%d, %d workers per process (%d CPUs), %s kernel\n",
		cfg.logN, rep.Towers, rep.Dnum, rep.Workers, rep.NumCPU, rep.Kernel)
	fmt.Printf("%d switches (%d rotations, %d relins) in %d groups, depth %d, max fan-out %d, %d distinct keys\n",
		p.Switches, p.Rotations, p.Relins, p.ModUps, p.Depth, p.MaxWidth, p.DistinctKeys)
	fmt.Printf("%-26s %12.2f\n", "served switches/sec", rep.OpsPerSec)
	fmt.Printf("%-26s %9.3f ms\n", "p50 latency", rep.P50Ms)
	fmt.Printf("%-26s %9.3f ms\n", "p99 latency", rep.P99Ms)
	fmt.Printf("%-26s %12d  (predicted %d x %d; %d without hoisting)\n",
		"ModUp executions", rep.ModUps, rep.Tenants, p.ModUps, p.ModUpsUnhoisted)
	fmt.Printf("%-26s %11.2fx  (%d coalesced over %d x %d hoist groups)\n",
		"hoist-group coalescing", rep.HoistCoalescingFactor, rep.Coalesced, rep.Tenants, p.HoistGroups)
	fmt.Printf("%-26s %11.1f%%  (%d misses, %d evictions, %.1f of %.1f MiB resident)\n",
		"key cache hit rate", 100*rep.KeyHitRate, rep.KeyMisses, rep.KeyEvictions,
		float64(rep.KeyBytes)/(1<<20), float64(rep.KeyBudget)/(1<<20))
	fmt.Printf("%-26s %12v\n", "books exact", rep.BooksExact)
	fmt.Printf("%-26s %12v\n", "counts exact", rep.CountsExact)
	fmt.Printf("%-26s %12v\n", "bit-exact", rep.BitExact)
	if rep.Shards > 0 {
		fmt.Printf("%-26s %12d  (attribution sum %d)\n", "delivered", rep.Delivered, rep.CompletedSum)
	}
	if rep.Drained >= 0 {
		fmt.Printf("%-26s %12d  (drained mid-replay)\n", "killed shard", rep.Drained)
	}
	for _, m := range rep.Mismatches {
		fmt.Printf("  mismatch: %s\n", m)
	}
	if len(rep.TenantStats) > 1 {
		fmt.Printf("\n%-8s %10s %10s %8s %10s\n", "tenant", "served", "p99 ms", "mod_ups", "hit rate")
		for _, ts := range rep.TenantStats {
			fmt.Printf("%-8s %10d %10.3f %8d %9.1f%%\n", ts.Tenant, ts.Served,
				float64(ts.P99)/float64(time.Millisecond), ts.ModUps, 100*ts.Keys.HitRate)
		}
	}
	if len(rep.PerShard) > 0 {
		fmt.Println()
		printShardTable(rep.PerShard)
	}
	fmt.Printf("\n%-10s %10s %12s %10s\n", "phase", "count", "total ms", "mean µs")
	for _, ps := range rep.Phases {
		fmt.Printf("%-10s %10d %12.3f %10.1f\n", ps.Phase, ps.Count,
			float64(ps.TotalNs)/float64(time.Millisecond),
			float64(ps.TotalNs)/float64(ps.Count)/float64(time.Microsecond))
	}
	if len(rep.StageShares) > 0 {
		fmt.Println("\nStage profile (every process, per-goroutine time):")
		printStageShares(rep.StageShares)
	}

	if cfg.jsonPath != "" {
		if err := writeJSONReport(cfg.jsonPath, rep); err != nil {
			return err
		}
	}
	if cfg.check {
		if err := serveCheck(rep); err != nil {
			return err
		}
		if err := checkObs(cfg, rep); err != nil {
			return err
		}
		fmt.Println("serve check passed")
	}
	return nil
}
