package main

// The flag set and the verbs that are not experiments live here, in one
// place: run() dispatches on the analysis registry and then on this
// table, `ciflow help` (usage.go) prints both and the flag set, and
// TestHelpMatchesREADME checks README.md against all three.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ciflow/internal/analysis"
	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
)

// verb is one ciflow command that is not a registry experiment: its
// name and summary as `ciflow help` shows them, and what it runs.
type verb struct {
	name, desc string
	run        func(*cli) error
}

// verbs is filled at init because help reads the table it is an entry
// of.
var verbs []verb

func init() {
	verbs = []verb{
		{"serve", "replay a -workload schedule DAG for -tenants tenants against the serial reference, through one in-process service or -shards shard processes behind the router (-replicas, -kill); -check verifies exact counts and bit-exactness", serveVerb},
		{"schedule", "print a workload schedule DAG's shape, predicted op counts, and modeled cost (-export writes versioned JSON, -workload file: reads it)", scheduleVerb},
		{"shard", "one cluster shard backend: a serve service behind the wire protocol (-addr)", shardVerb},
		{"all", "every table, figure and ablation of the paper, in its order (all but roofline and memory above)", runAll},
		{"help", "this usage summary", func(c *cli) error {
			usage(os.Stdout, c.fl)
			return nil
		}},
	}
}

// cliFlags is the parsed flag set. newFlags is the single source of
// truth for names, defaults and usage strings, and binds every flag
// straight into the field that consumes it: a verb's own flags into
// its config, the flags several verbs read into the two structs those
// configs embed.
type cliFlags struct {
	fs *flag.FlagSet

	benchName string
	memMiB    int64
	csvOut    bool

	fabricFlags
	shapeFlags
	serve    serveConfig
	schedule scheduleConfig
	shard    shardConfig
}

// fabricFlags are the ring and the process sizing that serve and shard
// share: a shard must be started on its driver's ring, and context is
// the one place either builds it.
type fabricFlags struct {
	logN      int
	towers    int
	dnum      int // serve: 0 = inherit the -bts set's digit count
	workers   int // per process; 0 = GOMAXPROCS (serve: split over the shards)
	keyBudget int64
	tenants   int
	replicas  int
	profile   bool // record stage/kernel histograms (a shard ships them in stats frames)
}

// context builds the ring the flags name; verb prefixes a refusal.
func (f fabricFlags) context(verb string) (*ckks.Context, error) {
	if f.logN < 4 || f.logN > 16 {
		return nil, fmt.Errorf("%s: logn %d out of range [4,16]", verb, f.logN)
	}
	return ckks.NewContext(1<<f.logN, f.towers, 40, 3, 41, f.dnum)
}

// shapeFlags name the schedule that serve replays and schedule prints.
type shapeFlags struct {
	workload  string // a library shape or file:<path>
	bts       int
	radix     int
	rotations int
	requests  int
	jsonPath  string
}

func newFlags() *cliFlags {
	fs := flag.NewFlagSet("ciflow", flag.ContinueOnError)
	fl := &cliFlags{fs: fs}

	var takeBench []string
	for _, e := range analysis.Experiments {
		if e.Bench.Name != "" {
			takeBench = append(takeBench, e.Name)
		}
	}
	fs.StringVar(&fl.benchName, "bench", "", "benchmark name (BTS1, BTS2, BTS3, ARK, DPRIVE) for "+strings.Join(takeBench, ", "))
	fs.Int64Var(&fl.memMiB, "mem", 32, "on-chip data memory in MiB")
	fs.BoolVar(&fl.csvOut, "csv", false, "print every table of an experiment as CSV instead of text")

	fs.IntVar(&fl.logN, "logn", 14, "ring degree exponent (N = 2^logn)")
	fs.IntVar(&fl.towers, "towers", 6, "Q-tower count")
	fs.IntVar(&fl.dnum, "dnum", 3, "key-switching digit count")
	fs.IntVar(&fl.workers, "workers", 0, "engine worker count per process (0 = GOMAXPROCS, split over the shards)")
	fs.Int64Var(&fl.keyBudget, "keybudget", 0, "serve key-cache byte budget per service (0 = serve default)")
	fs.IntVar(&fl.tenants, "tenants", 1, "serve tenant count (distinct keyspaces, each replaying the schedule)")
	fs.IntVar(&fl.replicas, "replicas", 1, "serve shards eligible to serve one tenant (hot-key replication)")
	fs.BoolVar(&fl.profile, "profile", false, "serve: record per-stage/per-kernel runtime histograms; adds stage_shares to the report")

	fs.StringVar(&fl.workload, "workload", "fanout", "serve/schedule shape: fanout, bootstrap, matvec, pir, private-inference, evalmod, or file:<path>")
	fs.IntVar(&fl.bts, "bts", 2, "BTS parameter set (1, 2, or 3) shaping bootstrap schedules")
	fs.IntVar(&fl.radix, "radix", 0, "bootstrap DFT radix, a power of two (0 = auto-fit the level budget)")
	fs.IntVar(&fl.rotations, "rotations", 8, "rotation fan-out width per ciphertext")
	fs.IntVar(&fl.requests, "requests", 16, "schedule shape: fanout bursts, matvec giants, pir batches")
	fs.StringVar(&fl.jsonPath, "json", "", "also write the report to this JSON file")

	fs.StringVar(&fl.serve.dfName, "dataflow", "all", "dataflow: "+dataflow.Names()+", or all (serve replays one: all = mp)")
	fs.BoolVar(&fl.serve.check, "check", false, "serve: fail unless bit-exact, counts exact per tenant, books summing to tenants x the prediction, dependency order held (and the -trace/-profile artifacts well-formed)")
	fs.StringVar(&fl.serve.tracePath, "trace", "", "serve (in-process): write a Chrome trace-event timeline (chrome://tracing, Perfetto) to this file")
	fs.StringVar(&fl.serve.pprofDir, "pprof", "", "serve: write cpu.prof and mem.prof (runtime/pprof) into this directory")
	fs.IntVar(&fl.serve.shards, "shards", 0, "serve shard process count (0 = one in-process service)")
	fs.BoolVar(&fl.serve.kill, "kill", false, "serve: drain and retire one shard mid-replay")

	fs.StringVar(&fl.schedule.exportPath, "export", "", "schedule: also write the schedule as versioned JSON to this file")
	fs.StringVar(&fl.schedule.dotPath, "dot", "", "schedule: render the schedule DAG in Graphviz DOT format to this file")

	fs.StringVar(&fl.shard.addr, "addr", "127.0.0.1:0", "shard listen address")
	return fl
}

// The three verbs' configs: each its own flags plus the shared structs.

func serveVerb(c *cli) error {
	cfg := c.fl.serve
	cfg.fabricFlags, cfg.shapeFlags = c.fl.fabricFlags, c.fl.shapeFlags
	// Bootstrap inherits the BTS set's digit count when -dnum is left
	// unset (0 here); other shapes keep the flag default.
	set := false
	c.fl.fs.Visit(func(f *flag.Flag) { set = set || f.Name == "dnum" })
	if cfg.workload == "bootstrap" && !set {
		cfg.dnum = 0
	}
	return serveCmd(cfg)
}

func scheduleVerb(c *cli) error {
	cfg := c.fl.schedule
	cfg.shapeFlags = c.fl.shapeFlags
	return scheduleCmd(c.r, cfg)
}

func shardVerb(c *cli) error {
	cfg := c.fl.shard
	cfg.fabricFlags = c.fl.fabricFlags
	return shardCmd(cfg)
}
