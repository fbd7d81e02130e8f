package main

// The workload replay half of the serve experiment: `ciflow serve
// -workload bootstrap|matvec|pir|private-inference|evalmod` generates
// a schedule DAG (internal/workload), and `-workload file:<path>`
// imports one from a versioned JSON schedule file; either way the
// dependency-aware client replays it against the serve service,
// instead of the independent fan-out bursts of the default load
// generator (-workload fanout). This is
// the regime where coalescing competes with dependency stalls: a
// bootstrapping stage's baby rotations coalesce onto one hoisted
// ModUp while its giant rotations and the next stage must wait for
// results. The report cross-validates the measured serve.Stats deltas
// against the schedule's predicted counts — they must match exactly —
// and -check turns that, bit-exact replay, dependency order, and
// hoist-group coalescing into an exit code (the workload-smoke CI job
// and the perf gate consume it as BENCH_workload.json).

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/engine"
	"ciflow/internal/serve"
	"ciflow/internal/workload"
)

// workloadConfig is the parsed flag set of a schedule replay.
type workloadConfig struct {
	workload  string // bootstrap or matvec (fanout takes the serveRun path)
	bts       int
	radix     int
	dfName    string
	logN      int
	towers    int
	dnum      int // 0 (bootstrap only) = inherit the BTS set's digit count
	workers   int
	rotations int // matvec baby steps (n1)
	giants    int // matvec giant steps (n2); -requests
	keyBudget int64
	maxBatch  int
	window    time.Duration
}

// workloadReport is the JSON artifact of a schedule replay
// (BENCH_workload.json in the bench/perfgate flow).
type workloadReport struct {
	N        int    `json:"n"`
	Towers   int    `json:"towers"`
	Dnum     int    `json:"dnum"`
	Workers  int    `json:"workers"`
	NumCPU   int    `json:"num_cpu"`
	Dataflow string `json:"dataflow"`

	Workload string `json:"workload"`
	BTS      int    `json:"bts,omitempty"`
	Radix    int    `json:"radix"`
	Schedule string `json:"schedule"`

	Predicted workload.Counts `json:"predicted"`

	DurationSec float64 `json:"duration_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`

	Served    uint64 `json:"served"`
	ModUps    uint64 `json:"mod_ups"`
	Groups    uint64 `json:"groups"`
	Coalesced uint64 `json:"coalesced"`
	Batches   uint64 `json:"batches"`

	CountsExact           bool     `json:"counts_exact"`
	Mismatches            []string `json:"mismatches,omitempty"`
	HoistCoalescingFactor float64  `json:"hoist_coalescing_factor"`
	DepViolations         int      `json:"dep_violations"`
	BitExact              bool     `json:"bit_exact"`

	KeyHitRate   float64 `json:"key_hit_rate"`
	KeyMisses    uint64  `json:"key_misses"`
	KeyEvictions uint64  `json:"key_evictions"`
	KeyBytes     int64   `json:"key_resident_bytes"`
	KeyBudget    int64   `json:"key_budget_bytes"`
}

// workloadSchedule generates the replay schedule for a configuration:
// bootstrap scales the BTS construction onto the replay ring (the
// slot count and level budget of -logn/-towers, the digit structure
// of the -bts set), matvec is one BSGS diagonal product at the top
// level, pir/private-inference/evalmod are the library shapes scaled
// to the ring's level budget, and file:<path> imports a versioned
// JSON schedule (fully re-validated, and rejected with a precise
// error if it needs more levels than the ring has).
func workloadSchedule(cfg workloadConfig, maxLevel int) (*workload.Schedule, error) {
	if path, ok := strings.CutPrefix(cfg.workload, "file:"); ok {
		s, err := workload.ImportFile(path)
		if err != nil {
			return nil, err
		}
		for _, n := range s.Nodes {
			if n.Level > maxLevel {
				return nil, fmt.Errorf("schedule %s: node %d runs at level %d but the replay ring tops out at level %d (raise -towers)",
					s.Name, n.ID, n.Level, maxLevel)
			}
		}
		return s, nil
	}
	switch cfg.workload {
	case "bootstrap":
		return workload.Bootstrap(workload.BootstrapParams{
			LogSlots: cfg.logN - 1,
			Radix:    cfg.radix,
			Top:      maxLevel,
			Bottom:   0,
		})
	case "matvec":
		return workload.Matvec(cfg.rotations, cfg.giants, maxLevel)
	case "pir":
		return workload.PIR(cfg.giants, cfg.rotations, maxLevel)
	case "private-inference":
		return workload.PrivateInference((maxLevel+1)/2, cfg.rotations, cfg.giants, maxLevel)
	case "evalmod":
		return workload.EvalMod(maxLevel+1, maxLevel)
	default:
		return nil, fmt.Errorf("unknown workload %q (want fanout, bootstrap, matvec, pir, private-inference, evalmod, or file:<path>)",
			cfg.workload)
	}
}

// workloadRun generates the schedule, stands up a one-tenant service
// over a fresh keyspace, and replays the DAG through it with the
// serial reference check enabled. Split from the printing so tests
// can exercise it directly.
func workloadRun(cfg workloadConfig) (*workloadReport, error) {
	if cfg.logN < 4 || cfg.logN > 16 {
		return nil, fmt.Errorf("logn %d out of range [4,16]", cfg.logN)
	}
	bts, err := workload.BTSBenchmark(cfg.bts)
	if err != nil {
		return nil, err
	}
	if cfg.dnum == 0 {
		// The BTS sets differ in level count and digit structure; the
		// level count is fixed by -towers here, so the digit count is
		// what the replay inherits from the chosen set — raised when
		// needed so no digit spans more Q towers than the replay
		// ring's three P moduli can cover in ModUp (the same K ≥ α
		// constraint the paper's parameter sets satisfy).
		cfg.dnum = bts.Dnum
		if min := (cfg.towers + 2) / 3; cfg.dnum < min {
			cfg.dnum = min
		}
	}
	if cfg.dnum > cfg.towers {
		return nil, fmt.Errorf("dnum %d exceeds %d towers", cfg.dnum, cfg.towers)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	// The replay runs one dataflow; "all" (the flag default) selects
	// MP, the paper's baseline.
	dfName := cfg.dfName
	if dfName == "all" {
		dfName = "mp"
	}
	dfs, err := parseThroughputDataflows(dfName)
	if err != nil {
		return nil, err
	}
	df := dfs[0]

	n := 1 << cfg.logN
	cctx, err := ckks.NewContext(n, cfg.towers, 40, 3, 41, cfg.dnum)
	if err != nil {
		return nil, err
	}
	sched, err := workloadSchedule(cfg, cctx.MaxLevel)
	if err != nil {
		return nil, err
	}

	const tenant = "t0"
	kc, _ := ckks.GenKeys(cctx, 1)
	chains := serve.KeyChains{tenant: kc}

	e := engine.New(cfg.workers)
	defer e.Close()
	scfg := workload.ReplayServiceConfig(sched)
	scfg.Engine = e
	scfg.KeyBudget = cfg.keyBudget
	scfg.MaxBatch = cfg.maxBatch
	scfg.Window = cfg.window
	svc, err := serve.New(cctx.Switchers(), chains, scfg)
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	res, err := workload.Replay(context.Background(), svc, cctx.Switchers(), chains, cctx.R,
		sched, workload.ReplayConfig{Tenant: tenant, Dataflow: df, Seed: 1, Check: true})
	if err != nil {
		return nil, err
	}

	st := svc.Stats()
	rep := &workloadReport{
		N: n, Towers: cfg.towers, Dnum: cfg.dnum,
		Workers: cfg.workers, NumCPU: runtime.NumCPU(),
		Dataflow: df.String(),
		Workload: cfg.workload, Radix: sched.Radix, Schedule: sched.Name,
		Predicted:   res.Predicted,
		DurationSec: res.Wall.Seconds(),
		OpsPerSec:   float64(res.Served) / res.Wall.Seconds(),
		P50Ms:       float64(st.P50) / float64(time.Millisecond),
		P99Ms:       float64(st.P99) / float64(time.Millisecond),
		Served:      res.Served, ModUps: res.ModUps, Groups: res.Groups,
		Coalesced: res.Coalesced, Batches: res.Batches,
		CountsExact:           res.CountsExact,
		Mismatches:            res.Mismatches,
		HoistCoalescingFactor: res.HoistCoalescingFactor,
		DepViolations:         res.DepViolations,
		BitExact:              res.Checked && res.BitExact,
		KeyHitRate:            st.Keys.HitRate,
		KeyMisses:             st.Keys.Misses,
		KeyEvictions:          st.Keys.Evictions,
		KeyBytes:              st.Keys.Bytes,
		KeyBudget:             st.Keys.BudgetBytes,
	}
	if cfg.workload == "bootstrap" {
		rep.BTS = cfg.bts
	}
	return rep, nil
}

// workloadCheck enforces the acceptance bar behind `serve -workload
// ... -check`: the replay must be bit-exact with serial execution of
// the same schedule, the measured counters must equal the schedule's
// predictions exactly (one ModUp per group — zero coalesces across
// chain steps, none missing inside fan-outs), dependency order must
// hold, and any hoist groups must actually coalesce (factor > 1).
// A schedule without hoistable fan-outs (evalmod's pure relin chain)
// passes on the exact counts alone — its prediction is *zero*
// coalesces, which CountsExact already enforces.
func workloadCheck(rep *workloadReport) error {
	if !rep.BitExact {
		return fmt.Errorf("workload check: replay not bit-exact with serial schedule execution")
	}
	if !rep.CountsExact {
		return fmt.Errorf("workload check: measured counters drifted from the schedule's prediction: %v",
			rep.Mismatches)
	}
	if rep.DepViolations != 0 {
		return fmt.Errorf("workload check: %d dependency-order violations", rep.DepViolations)
	}
	if rep.Predicted.HoistGroups > 0 && rep.HoistCoalescingFactor <= 1 {
		return fmt.Errorf("workload check: hoist-group coalescing factor %.2f, want > 1",
			rep.HoistCoalescingFactor)
	}
	return nil
}

func workloadCmd(cfg workloadConfig, jsonPath string, check bool) error {
	rep, err := workloadRun(cfg)
	if err != nil {
		return err
	}

	p := rep.Predicted
	fmt.Printf("Workload replay: %s (%s), N=2^%d, %d towers, dnum=%d, %d workers (%d CPUs)\n",
		rep.Schedule, rep.Dataflow, log2(rep.N), rep.Towers, rep.Dnum, rep.Workers, rep.NumCPU)
	fmt.Printf("%d switches (%d rotations, %d relins) in %d groups, depth %d, max fan-out %d, %d distinct keys\n",
		p.Switches, p.Rotations, p.Relins, p.ModUps, p.Depth, p.MaxWidth, p.DistinctKeys)
	fmt.Printf("%-26s %12.2f\n", "served switches/sec", rep.OpsPerSec)
	fmt.Printf("%-26s %9.3f ms\n", "p50 latency", rep.P50Ms)
	fmt.Printf("%-26s %9.3f ms\n", "p99 latency", rep.P99Ms)
	fmt.Printf("%-26s %12d  (predicted %d; %d without hoisting)\n",
		"ModUp executions", rep.ModUps, p.ModUps, p.ModUpsUnhoisted)
	fmt.Printf("%-26s %11.2fx  (%d coalesced over %d hoist groups)\n",
		"hoist-group coalescing", rep.HoistCoalescingFactor, rep.Coalesced, p.HoistGroups)
	fmt.Printf("%-26s %11.1f%%  (%d misses, %d evictions, %.1f MiB resident)\n",
		"key cache hit rate", 100*rep.KeyHitRate, rep.KeyMisses, rep.KeyEvictions,
		float64(rep.KeyBytes)/(1<<20))
	fmt.Printf("%-26s %12v\n", "counts exact", rep.CountsExact)
	fmt.Printf("%-26s %12v\n", "bit-exact", rep.BitExact)
	for _, m := range rep.Mismatches {
		fmt.Printf("  mismatch: %s\n", m)
	}

	if jsonPath != "" {
		if err := writeJSONReport(jsonPath, rep); err != nil {
			return err
		}
	}
	if check {
		if err := workloadCheck(rep); err != nil {
			return err
		}
		fmt.Println("workload check passed")
	}
	return nil
}

// log2 returns the exponent of a power-of-two ring degree.
func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
