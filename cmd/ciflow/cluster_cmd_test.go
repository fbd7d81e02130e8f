package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/cluster"
	"ciflow/internal/dataflow"
	"ciflow/internal/serve"
	"ciflow/internal/workload"
)

// TestMain lets the test binary stand in for the ciflow executable
// when the replay driver re-execs itself as shard backends: `serveRun`
// spawns os.Executable() with "shard" as the first argument, which in
// a test process is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "ciflow:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyClusterConfig is the smallest real fabric: 2 shard processes,
// 2 tenants, the radix-16 bootstrap schedule on a 32-degree ring.
func tinyClusterConfig() serveConfig {
	return serveConfig{
		fabricFlags: fabricFlags{logN: 5, towers: 4, dnum: 2, workers: 2, tenants: 2, replicas: 1},
		shapeFlags:  shapeFlags{workload: "bootstrap", bts: 2, radix: 16},
		dfName:      "mp", shards: 2,
	}
}

func TestClusterExperiment(t *testing.T) {
	rep, err := serveRun(tinyClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	exactBooks(t, rep)
	if rep.Drained != -1 {
		t.Fatalf("drained shard %d without -kill", rep.Drained)
	}
	if total := uint64(rep.Tenants) * uint64(rep.Predicted.Switches); rep.Delivered != total || rep.CompletedSum != total {
		t.Fatalf("delivered %d, attributed %d, want %d each", rep.Delivered, rep.CompletedSum, total)
	}
	if len(rep.PerShard) != 2 {
		t.Fatalf("per-shard rows %d, want 2", len(rep.PerShard))
	}
	for _, s := range rep.PerShard {
		if s.State != cluster.ShardLive {
			t.Fatalf("shard %d state %q, want live", s.Shard, s.State)
		}
	}
}

// TestClusterExperimentKill is the whole sharded surface through the
// CLI dispatch: three shard subprocesses, two replicated tenants, one
// shard drained mid-replay, shards profiling themselves. The check
// must pass across the handoff, exactly one shard must end drained,
// and every shard's stats frame — the drained final included — must
// have carried its profile to the router.
func TestClusterExperimentKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kill.json")
	args := []string{"serve", "-workload", "bootstrap", "-radix", "16", "-dataflow", "mp",
		"-logn", "5", "-towers", "4", "-dnum", "2", "-workers", "2",
		"-shards", "3", "-tenants", "2", "-replicas", "2", "-kill", "-profile",
		"-check", "-json", path}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	rep := readReport(t, path)
	if rep.Drained < 0 {
		t.Fatal("no shard drained despite -kill")
	}
	if len(rep.PerShard) != 3 {
		t.Fatalf("per-shard rows %d, want 3", len(rep.PerShard))
	}
	for _, s := range rep.PerShard {
		want := cluster.ShardLive
		if s.Shard == rep.Drained {
			want = cluster.ShardDrained
		}
		if s.State != want {
			t.Errorf("shard %d state %q, want %q", s.Shard, s.State, want)
		}
		if s.Stats.Profile == nil {
			t.Errorf("shard %d (%s): stats frame carried no profile", s.Shard, s.State)
		}
	}
	if len(rep.StageShares) == 0 {
		t.Error("no merged stage shares in a -profile run")
	}
}

func TestClusterCmdJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	cfg := tinyClusterConfig()
	cfg.jsonPath, cfg.check = path, true
	if err := serveCmd(cfg); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, path)
	if rep.Shards != 2 || rep.Tenants != 2 || !rep.BooksExact || !rep.BitExact {
		t.Fatalf("report from disk: %+v", rep)
	}
}

func TestClusterConfigErrors(t *testing.T) {
	for name, mut := range map[string]func(*serveConfig){
		"zero tenants":  func(c *serveConfig) { c.tenants = 0 },
		"kill solo":     func(c *serveConfig) { c.shards, c.kill = 1, true },
		"traced":        func(c *serveConfig) { c.tracePath = filepath.Join(t.TempDir(), "trace.json") },
		"bad workload":  func(c *serveConfig) { c.workload = "nope" },
		"bad logn":      func(c *serveConfig) { c.logN = 2 },
		"dnum > towers": func(c *serveConfig) { c.dnum = 99 },
		"bad bts":       func(c *serveConfig) { c.bts = 9 },
	} {
		cfg := tinyClusterConfig()
		mut(&cfg)
		if _, err := serveRun(cfg); err == nil {
			t.Errorf("%s: serveRun accepted %+v", name, cfg)
		}
	}
	if err := shardCmd(shardConfig{fabricFlags: fabricFlags{logN: 5, towers: 4, dnum: 2}}); err == nil {
		t.Error("shard accepted zero tenants")
	}
}

// TestKillWatcherEndsWithReplays: a -kill run whose tenants the shards
// refuse never reaches the quarter mark the drain waits for. The
// watcher must end with the replays and the refusal must come back —
// a watcher that only watches the delivery count waits forever.
func TestKillWatcherEndsWithReplays(t *testing.T) {
	cctx, err := ckks.NewContext(1<<5, 6, 40, 3, 41, 2)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		p, err := spawnShard(exe, shardConfig{addr: "127.0.0.1:0",
			fabricFlags: fabricFlags{logN: 5, towers: 6, dnum: 2, workers: 1, tenants: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.stop()
		addrs = append(addrs, p.addr)
	}
	rt, err := cluster.NewRouter(cctx.R, addrs, cluster.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// The shards serve t0 alone; these two are strangers to them.
	names := []string{"t7", "t8"}
	keys, err := serve.NewSeedKeySource(cctx, names, true)
	if err != nil {
		t.Fatal(err)
	}
	// A chain: each replay ends at its first node's refusal, and a
	// refusal is a delivered result — 2 of the 12 the quarter mark (3)
	// is measured against.
	sched, err := workload.EvalMod(cctx.MaxLevel+1, cctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	servers := []workload.Server{
		&cluster.TenantView{Router: rt, Tenant: names[0]},
		&cluster.TenantView{Router: rt, Tenant: names[1]},
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := replayTenants(cctx, sched, keys, names, servers, dataflow.MP, rt, true)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "t7") {
			t.Fatalf("refused replay returned %v, want the first tenant's refusal", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("replayTenants still waiting for a drain 20s after every replay was refused")
	}
}
