package main

// The sharded serving experiment: `ciflow cluster` spawns -shards
// shard subprocesses (each a `ciflow shard` wrapping one
// serve.Service behind the internal/cluster wire protocol), routes
// -tenants keyspaces onto them with the consistent-hashing router,
// and replays the schedule DAG of -workload concurrently for every
// tenant with the serial bit-exactness reference enabled. The
// acceptance bar is the single-process one, distributed: per-shard
// serve.Stats deltas must SUM to tenants x the schedule's predicted
// counts exactly — per level included — and every result must be
// bit-exact over the wire. With -kill the run drains one shard
// mid-replay and the same sums must still hold: the drained shard's
// final snapshot plus the survivors' books. `ciflow shard` and
// `ciflow router` expose the two halves standalone.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/cluster"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/serve"
	"ciflow/internal/workload"
)

// tenantNames is the canonical tenant naming every cluster process
// agrees on: t0..t{n-1}. Key material follows from the name alone
// (cluster.KeySeed), so shards and verifiers never exchange keys.
func tenantNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", i)
	}
	return out
}

// shardConfig is the parsed flag set of one shard backend. The
// cluster parent passes every field explicitly — a shard does no
// schedule-dependent tuning of its own, so the parent controls the
// exact-replay batch geometry.
type shardConfig struct {
	addr      string
	tenants   int
	logN      int
	towers    int
	dnum      int
	workers   int
	keyBudget int64
	maxBatch  int
	window    time.Duration
	profile   bool // record stage/kernel histograms, shipped in stats frames
}

// shardCmd runs one shard backend: serve.Service + wire listener. It
// prints "listening <addr>" once the socket is bound (the line the
// cluster parent parses) and exits when its stdin reaches EOF (the
// parent went away) or a Shutdown frame arrives.
func shardCmd(cfg shardConfig) error {
	if cfg.tenants < 1 {
		return fmt.Errorf("shard: -tenants %d, want >= 1", cfg.tenants)
	}
	if cfg.logN < 4 || cfg.logN > 16 {
		return fmt.Errorf("shard: logn %d out of range [4,16]", cfg.logN)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.profile {
		// The recorder snapshot rides every stats frame (serve.Stats
		// .Profile), so the router can merge shard profiles exactly.
		obs.Enable()
		defer obs.Disable()
	}
	cctx, err := ckks.NewContext(1<<cfg.logN, cfg.towers, 40, 3, 41, cfg.dnum)
	if err != nil {
		return err
	}
	e := engine.New(cfg.workers)
	defer e.Close()
	scfg := serve.Config{
		Engine:       e,
		KeyBudget:    cfg.keyBudget,
		MaxBatch:     cfg.maxBatch,
		Window:       cfg.window,
		DefaultLevel: cctx.MaxLevel,
	}
	sh, err := cluster.NewShard(cctx, tenantNames(cfg.tenants), scfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", ln.Addr())
	go func() {
		// The parent holds our stdin pipe open for our whole life;
		// EOF means it exited (cleanly or not) and we must not leak.
		io.Copy(io.Discard, os.Stdin)
		sh.Close()
	}()
	go func() {
		<-sh.Done() // Shutdown frame
		sh.Close()
	}()
	return sh.Serve(ln)
}

// routerConfig is the parsed flag set of the standalone router verb.
type routerConfig struct {
	shardAddrs string
	replicas   int
	logN       int
	towers     int
	dnum       int
}

// routerCmd connects to already-running shards, pings each one, and
// prints the status table — the operational "is the fabric up" probe.
func routerCmd(cfg routerConfig) error {
	addrs := splitAddrs(cfg.shardAddrs)
	if len(addrs) == 0 {
		return fmt.Errorf("router: -shardaddrs is required (comma-separated host:port list)")
	}
	cctx, err := ckks.NewContext(1<<cfg.logN, cfg.towers, 40, 3, 41, cfg.dnum)
	if err != nil {
		return err
	}
	rt, err := cluster.NewRouter(cctx.R, addrs, cluster.RouterConfig{Replicas: cfg.replicas})
	if err != nil {
		return err
	}
	defer rt.Close()
	for i := range addrs {
		if err := rt.Ping(i); err != nil {
			return fmt.Errorf("router: shard %d (%s): %w", i, addrs[i], err)
		}
	}
	fmt.Printf("%d shards live\n", rt.Live())
	printShardTable(rt.Status())
	return nil
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func printShardTable(sts []cluster.ShardStatus) {
	fmt.Printf("%-6s %-22s %-8s %10s %10s %8s\n",
		"shard", "addr", "state", "completed", "served", "modups")
	for _, st := range sts {
		fmt.Printf("%-6d %-22s %-8s %10d %10d %8d\n",
			st.Shard, st.Name, st.State, st.Completed, st.Stats.Served, st.Stats.ModUps)
	}
}

// clusterConfig is the parsed flag set of the cluster experiment.
type clusterConfig struct {
	shards   int
	tenants  int
	replicas int
	kill     bool

	workload  string
	bts       int
	radix     int
	dfName    string
	rotations int
	giants    int

	logN      int
	towers    int
	dnum      int // 0 (bootstrap) = inherit the BTS set's digit count
	workers   int
	keyBudget int64
	maxBatch  int
	window    time.Duration
	profile   bool // shards record stage histograms; router merges them
}

// clusterShardReport is one shard's line in the report.
type clusterShardReport struct {
	Shard     int    `json:"shard"`
	Addr      string `json:"addr"`
	State     string `json:"state"`
	Completed uint64 `json:"completed"`
	Served    uint64 `json:"served"`
	ModUps    uint64 `json:"mod_ups"`
}

// clusterReport is the JSON artifact of a cluster run
// (BENCH_cluster.json in the bench/perfgate flow).
type clusterReport struct {
	N       int `json:"n"`
	Towers  int `json:"towers"`
	Dnum    int `json:"dnum"`
	Workers int `json:"workers"`
	NumCPU  int `json:"num_cpu"`

	Shards   int `json:"shards"`
	Tenants  int `json:"tenants"`
	Replicas int `json:"replicas"`
	// Drained is the shard drained mid-replay by -kill, -1 otherwise.
	Drained int `json:"drained_shard"`

	Workload string `json:"workload"`
	BTS      int    `json:"bts,omitempty"`
	Radix    int    `json:"radix"`
	Schedule string `json:"schedule"`

	Predicted workload.Counts `json:"predicted"`

	DurationSec float64 `json:"duration_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`

	// Aggregate serve.Stats across every shard's books (drained
	// finals included).
	Served    uint64 `json:"served"`
	ModUps    uint64 `json:"mod_ups"`
	Groups    uint64 `json:"groups"`
	Coalesced uint64 `json:"coalesced"`

	// Delivered is the router-side count of results handed to
	// clients; CompletedSum the per-shard attribution total. Both
	// must equal tenants x predicted switches — the retry path may
	// never double-deliver or double-count.
	Delivered    uint64 `json:"delivered"`
	CompletedSum uint64 `json:"completed_sum"`

	// ShardSumExact is the tentpole invariant: per-shard stats sum to
	// tenants x the schedule prediction, level by level.
	ShardSumExact bool     `json:"shard_sum_exact"`
	Mismatches    []string `json:"mismatches,omitempty"`

	// CountsExact/BitExact/DepViolations fold every tenant's replay
	// verdicts (all must hold for every tenant).
	CountsExact           bool    `json:"counts_exact"`
	BitExact              bool    `json:"bit_exact"`
	DepViolations         int     `json:"dep_violations"`
	HoistCoalescingFactor float64 `json:"hoist_coalescing_factor"`

	// Profiled says the shards ran with -profile and shipped stage
	// histograms in their stats frames. ProfileSumExact then asserts
	// the router-merged fabric profile equals the per-shard snapshots
	// summed bucket by bucket — verified by an independent summation,
	// not by the merge under test. StageShares prices the merged
	// profile against the replay wall clock.
	Profiled        bool             `json:"profiled"`
	ProfileSumExact bool             `json:"profile_sum_exact"`
	StageShares     []obs.StageShare `json:"stage_shares,omitempty"`

	PerShard []clusterShardReport `json:"per_shard"`
}

// shardProc is one spawned `ciflow shard` subprocess.
type shardProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

// spawnShard starts one shard subprocess and waits for its
// "listening" line. The returned proc's stdin must stay open for the
// shard's lifetime — closing it is the kill switch.
func spawnShard(exe string, cfg shardConfig) (*shardProc, error) {
	args := []string{"shard",
		"-addr", cfg.addr,
		"-tenants", strconv.Itoa(cfg.tenants),
		"-logn", strconv.Itoa(cfg.logN),
		"-towers", strconv.Itoa(cfg.towers),
		"-dnum", strconv.Itoa(cfg.dnum),
		"-workers", strconv.Itoa(cfg.workers),
		"-keybudget", strconv.FormatInt(cfg.keyBudget, 10),
		"-batch", strconv.Itoa(cfg.maxBatch),
		"-window", cfg.window.String(),
	}
	if cfg.profile {
		args = append(args, "-profile")
	}
	cmd := exec.Command(exe, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &shardProc{cmd: cmd, stdin: stdin}

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // past the handshake, just drain
			}
		}
		close(lines)
	}()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				p.stop()
				return nil, fmt.Errorf("cluster: shard exited before listening")
			}
			if addr, found := strings.CutPrefix(line, "listening "); found {
				p.addr = addr
				return p, nil
			}
		case <-deadline:
			p.stop()
			return nil, fmt.Errorf("cluster: shard did not report a listening address")
		}
	}
}

// stop closes the shard's stdin (its signal to exit) and reaps it,
// escalating to a kill if it lingers.
func (p *shardProc) stop() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// clusterRun stands the fabric up, replays every tenant, and fills
// the report. Split from the printing so tests can call it directly.
func clusterRun(cfg clusterConfig) (*clusterReport, error) {
	if cfg.shards < 1 {
		return nil, fmt.Errorf("cluster: -shards %d, want >= 1", cfg.shards)
	}
	if cfg.tenants < 1 {
		return nil, fmt.Errorf("cluster: -tenants %d, want >= 1", cfg.tenants)
	}
	if cfg.kill && cfg.shards < 2 {
		return nil, fmt.Errorf("cluster: -kill needs -shards >= 2 so survivors can absorb the drain")
	}
	if cfg.logN < 4 || cfg.logN > 16 {
		return nil, fmt.Errorf("cluster: logn %d out of range [4,16]", cfg.logN)
	}
	bts, err := workload.BTSBenchmark(cfg.bts)
	if err != nil {
		return nil, err
	}
	if cfg.dnum == 0 {
		// Same digit-structure inheritance as the one-process replay
		// (workloadRun): the -bts set's dnum, raised to keep every
		// digit coverable by the replay ring's three P moduli.
		cfg.dnum = bts.Dnum
		if min := (cfg.towers + 2) / 3; cfg.dnum < min {
			cfg.dnum = min
		}
	}
	if cfg.dnum > cfg.towers {
		return nil, fmt.Errorf("cluster: dnum %d exceeds %d towers", cfg.dnum, cfg.towers)
	}
	if cfg.workers <= 0 {
		// Split the machine across the shard processes rather than
		// oversubscribing it shards times.
		cfg.workers = runtime.GOMAXPROCS(0) / cfg.shards
		if cfg.workers < 1 {
			cfg.workers = 1
		}
	}
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
	if cfg.workload == "fanout" {
		return nil, fmt.Errorf("cluster: -workload fanout has no schedule to replay; use bootstrap, matvec, pir, private-inference, evalmod, or file:<path>")
	}
	sched, err := workloadSchedule(workloadConfig{
		workload: cfg.workload, bts: cfg.bts, radix: cfg.radix,
		logN: cfg.logN, rotations: cfg.rotations, giants: cfg.giants,
	}, cctx.MaxLevel)
	if err != nil {
		return nil, err
	}
	pred := sched.Counts()

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	procs := make([]*shardProc, 0, cfg.shards)
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	addrs := make([]string, 0, cfg.shards)
	for i := 0; i < cfg.shards; i++ {
		p, err := spawnShard(exe, shardConfig{
			addr: "127.0.0.1:0", tenants: cfg.tenants,
			logN: cfg.logN, towers: cfg.towers, dnum: cfg.dnum,
			workers: cfg.workers, keyBudget: cfg.keyBudget,
			maxBatch: cfg.maxBatch, window: cfg.window, profile: cfg.profile,
		})
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
		addrs = append(addrs, p.addr)
	}

	rt, err := cluster.NewRouter(cctx.R, addrs, cluster.RouterConfig{Replicas: cfg.replicas})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	tenants := tenantNames(cfg.tenants)
	total := uint64(cfg.tenants) * uint64(pred.Switches)

	// -kill: once a quarter of the deliveries are in, drain the
	// busiest live shard. Drain requeues its queued groups and folds
	// its final books into AllStats, so the shard-sum invariant must
	// survive the handoff.
	drained := -1
	drainDone := make(chan error, 1)
	if cfg.kill {
		go func() {
			for rt.Delivered() < total/4 {
				time.Sleep(2 * time.Millisecond)
			}
			victim, best := -1, uint64(0)
			for _, st := range rt.Status() {
				if st.State == cluster.ShardLive && st.Completed >= best {
					victim, best = st.Shard, st.Completed
				}
			}
			if victim < 0 {
				drainDone <- fmt.Errorf("cluster: no live shard to drain")
				return
			}
			drained = victim
			_, err := rt.Drain(victim)
			drainDone <- err
		}()
	} else {
		drainDone <- nil
	}

	type tenantOut struct {
		res *workload.ReplayResult
		err error
	}
	outs := make(chan tenantOut, cfg.tenants)
	start := time.Now()
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			// The verifier derives the tenant's keys locally from the
			// tenant seed — bit-identical to every shard's copy.
			kc, _ := ckks.GenKeys(cctx, cluster.KeySeed(tn))
			res, err := workload.Replay(context.Background(),
				&cluster.TenantView{Router: rt, Tenant: tn},
				cctx.Switchers(), serve.KeyChains{tn: kc}, cctx.R, sched,
				workload.ReplayConfig{Tenant: tn, Dataflow: df, Seed: cluster.KeySeed(tn), Check: true})
			outs <- tenantOut{res, err}
		}(tn)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := <-drainDone; err != nil {
		return nil, err
	}

	rep := &clusterReport{
		N: n, Towers: cfg.towers, Dnum: cfg.dnum,
		Workers: cfg.workers, NumCPU: runtime.NumCPU(),
		Shards: cfg.shards, Tenants: cfg.tenants,
		Replicas: cfg.replicas, Drained: drained,
		Workload: cfg.workload, Radix: sched.Radix, Schedule: sched.Name,
		Predicted:   pred,
		DurationSec: wall.Seconds(),
		CountsExact: true, BitExact: true,
	}
	if cfg.workload == "bootstrap" {
		rep.BTS = cfg.bts
	}
	for i := 0; i < cfg.tenants; i++ {
		o := <-outs
		if o.err != nil {
			return nil, o.err
		}
		rep.CountsExact = rep.CountsExact && o.res.CountsExact
		rep.BitExact = rep.BitExact && o.res.Checked && o.res.BitExact
		rep.DepViolations += o.res.DepViolations
		rep.Mismatches = append(rep.Mismatches, o.res.Mismatches...)
		rep.HoistCoalescingFactor = o.res.HoistCoalescingFactor
	}
	rep.OpsPerSec = float64(total) / wall.Seconds()

	// Snapshot the shard books once: the aggregate and the per-shard
	// profile exactness check below must see the same frames.
	all := rt.AllStats()
	agg := cluster.AggregateStats(all)
	rep.Served, rep.ModUps = agg.Served, agg.ModUps
	rep.Groups, rep.Coalesced = agg.Groups, agg.Coalesced
	if agg.Profile != nil {
		snaps := make([]*obs.Snapshot, 0, len(all))
		for i := range all {
			if all[i].Profile != nil {
				snaps = append(snaps, all[i].Profile)
			}
		}
		rep.Profiled = true
		rep.ProfileSumExact = profileSumExact(snaps, agg.Profile)
		rep.StageShares = obs.Shares(agg.Profile, wall.Seconds())
	}
	rep.Delivered = rt.Delivered()
	for i := 0; i < rt.NumShards(); i++ {
		rep.CompletedSum += rt.Completed(i)
	}
	rep.ShardSumExact, rep.Mismatches = shardSumCheck(agg, pred, cfg.tenants, rep.Mismatches)

	for _, st := range rt.Status() {
		rep.PerShard = append(rep.PerShard, clusterShardReport{
			Shard: st.Shard, Addr: st.Name, State: string(st.State),
			Completed: st.Completed, Served: st.Stats.Served, ModUps: st.Stats.ModUps,
		})
	}

	rt.ShutdownShards()
	return rep, nil
}

// profileSumExact verifies the merged fabric profile against the
// per-shard snapshots with a summation of its own — a plain
// per-(name,dataflow) tally over counts, nanosecond sums, and every
// bucket — so it would catch a broken obs.Merge rather than agree
// with it. Exact means: every key the shards recorded appears in the
// merge with the summed values, and the merge has nothing extra.
func profileSumExact(shards []*obs.Snapshot, merged *obs.Snapshot) bool {
	if merged == nil {
		return len(shards) == 0
	}
	type key struct{ name, df string }
	sum := func(pick func(*obs.Snapshot) []obs.HistogramSnapshot) map[key]obs.HistogramSnapshot {
		m := map[key]obs.HistogramSnapshot{}
		for _, s := range shards {
			if s == nil {
				continue
			}
			for _, hs := range pick(s) {
				k := key{hs.Name, hs.Dataflow}
				e := m[k]
				e.Name, e.Dataflow = hs.Name, hs.Dataflow
				e.Count += hs.Count
				e.SumNs += hs.SumNs
				if len(hs.Buckets) > len(e.Buckets) {
					e.Buckets = append(e.Buckets, make([]uint64, len(hs.Buckets)-len(e.Buckets))...)
				}
				for b, v := range hs.Buckets {
					e.Buckets[b] += v
				}
				m[k] = e
			}
		}
		return m
	}
	check := func(want map[key]obs.HistogramSnapshot, got []obs.HistogramSnapshot) bool {
		if len(got) != len(want) {
			return false
		}
		for _, hs := range got {
			w, ok := want[key{hs.Name, hs.Dataflow}]
			if !ok || hs.Count != w.Count || hs.SumNs != w.SumNs || len(hs.Buckets) != len(w.Buckets) {
				return false
			}
			for b, v := range hs.Buckets {
				if v != w.Buckets[b] {
					return false
				}
			}
		}
		return true
	}
	if !check(sum(func(s *obs.Snapshot) []obs.HistogramSnapshot { return s.Stages }), merged.Stages) {
		return false
	}
	if !check(sum(func(s *obs.Snapshot) []obs.HistogramSnapshot { return s.Kernels }), merged.Kernels) {
		return false
	}
	type lkey struct {
		stage string
		level int
	}
	want := map[lkey]obs.LevelSnapshot{}
	for _, s := range shards {
		if s == nil {
			continue
		}
		for _, ls := range s.Levels {
			k := lkey{ls.Stage, ls.Level}
			e := want[k]
			e.Stage, e.Level = ls.Stage, ls.Level
			e.Count += ls.Count
			e.SumNs += ls.SumNs
			want[k] = e
		}
	}
	if len(merged.Levels) != len(want) {
		return false
	}
	for _, ls := range merged.Levels {
		w, ok := want[lkey{ls.Stage, ls.Level}]
		if !ok || ls.Count != w.Count || ls.SumNs != w.SumNs {
			return false
		}
	}
	return true
}

// shardSumCheck compares the aggregated shard books against tenants x
// the schedule prediction, per level included.
func shardSumCheck(agg serve.Stats, pred workload.Counts, tenants int, mism []string) (bool, []string) {
	exact := true
	n := uint64(tenants)
	want := func(what string, got, wantV uint64) {
		if got != wantV {
			exact = false
			mism = append(mism, fmt.Sprintf("shard-sum %s: measured %d, predicted %d", what, got, wantV))
		}
	}
	want("served", agg.Served, n*uint64(pred.Switches))
	want("mod_ups", agg.ModUps, n*uint64(pred.ModUps))
	want("groups", agg.Groups, n*uint64(pred.ModUps))
	want("coalesced", agg.Coalesced, n*uint64(pred.Coalesced))
	measured := map[int]serve.LevelStats{}
	for _, ls := range agg.PerLevel {
		measured[ls.Level] = ls
	}
	for _, pl := range pred.PerLevel {
		m := measured[pl.Level]
		want(fmt.Sprintf("level %d switches", pl.Level), m.Switches, n*uint64(pl.Switches))
		want(fmt.Sprintf("level %d mod_ups", pl.Level), m.ModUps, n*uint64(pl.ModUps))
		want(fmt.Sprintf("level %d coalesced", pl.Level), m.Coalesced, n*uint64(pl.Coalesced))
		delete(measured, pl.Level)
	}
	for l, m := range measured {
		if m.Switches != 0 || m.ModUps != 0 || m.Coalesced != 0 {
			exact = false
			mism = append(mism, fmt.Sprintf("shard-sum: level %d has %d/%d/%d but the schedule predicts nothing there",
				l, m.Switches, m.ModUps, m.Coalesced))
		}
	}
	return exact, mism
}

// clusterCheck is the acceptance bar behind `ciflow cluster -check`:
// bit-exact over the wire, counts exact per tenant, shard books
// summing to the prediction, and router delivery/attribution exact —
// including across a -kill drain.
func clusterCheck(rep *clusterReport) error {
	if !rep.BitExact {
		return fmt.Errorf("cluster check: replay not bit-exact with local serial execution")
	}
	if !rep.CountsExact {
		return fmt.Errorf("cluster check: a tenant's measured counters drifted from the schedule prediction: %v",
			rep.Mismatches)
	}
	if rep.DepViolations != 0 {
		return fmt.Errorf("cluster check: %d dependency-order violations", rep.DepViolations)
	}
	if !rep.ShardSumExact {
		return fmt.Errorf("cluster check: per-shard stats do not sum to the global prediction: %v", rep.Mismatches)
	}
	total := uint64(rep.Tenants) * uint64(rep.Predicted.Switches)
	if rep.Delivered != total {
		return fmt.Errorf("cluster check: router delivered %d results, want exactly %d", rep.Delivered, total)
	}
	if rep.CompletedSum != total {
		return fmt.Errorf("cluster check: per-shard completion attribution sums to %d, want exactly %d (a retry was double-counted)",
			rep.CompletedSum, total)
	}
	if rep.Predicted.HoistGroups > 0 && rep.HoistCoalescingFactor <= 1 {
		return fmt.Errorf("cluster check: hoist-group coalescing factor %.2f, want > 1", rep.HoistCoalescingFactor)
	}
	if rep.Profiled && !rep.ProfileSumExact {
		return fmt.Errorf("cluster check: merged stage-histogram buckets do not equal the sum of the per-shard snapshots")
	}
	return nil
}

func clusterCmd(cfg clusterConfig, jsonPath string, check bool) error {
	rep, err := clusterRun(cfg)
	if err != nil {
		return err
	}
	p := rep.Predicted
	fmt.Printf("Cluster replay: %s x %d tenants over %d shards (replicas %d), N=2^%d, %d towers, dnum=%d, %d workers/shard\n",
		rep.Schedule, rep.Tenants, rep.Shards, rep.Replicas, log2(rep.N), rep.Towers, rep.Dnum, rep.Workers)
	fmt.Printf("schedule: %d switches in %d groups, depth %d; predicted total %d switches\n",
		p.Switches, p.ModUps, p.Depth, rep.Tenants*p.Switches)
	fmt.Printf("%-26s %12.2f\n", "served switches/sec", rep.OpsPerSec)
	fmt.Printf("%-26s %12d  (attribution sum %d)\n", "delivered", rep.Delivered, rep.CompletedSum)
	fmt.Printf("%-26s %12v\n", "shard-sum exact", rep.ShardSumExact)
	fmt.Printf("%-26s %12v\n", "counts exact", rep.CountsExact)
	fmt.Printf("%-26s %12v\n", "bit-exact", rep.BitExact)
	if rep.Drained >= 0 {
		fmt.Printf("%-26s %12d  (drained mid-replay)\n", "killed shard", rep.Drained)
	}
	if rep.Profiled {
		fmt.Printf("%-26s %12v\n", "profile-sum exact", rep.ProfileSumExact)
	}
	for _, m := range rep.Mismatches {
		fmt.Printf("  mismatch: %s\n", m)
	}
	fmt.Println()
	fmt.Printf("%-6s %-22s %-8s %10s %10s %8s\n",
		"shard", "addr", "state", "completed", "served", "modups")
	for _, s := range rep.PerShard {
		fmt.Printf("%-6d %-22s %-8s %10d %10d %8d\n",
			s.Shard, s.Addr, s.State, s.Completed, s.Served, s.ModUps)
	}
	if len(rep.StageShares) > 0 {
		fmt.Println("\nStage profile (fabric-wide, merged across shards):")
		printStageShares(rep.StageShares)
	}

	if jsonPath != "" {
		if err := writeJSONReport(jsonPath, rep); err != nil {
			return err
		}
	}
	if check {
		if err := clusterCheck(rep); err != nil {
			return err
		}
		fmt.Println("cluster check passed")
	}
	return nil
}
