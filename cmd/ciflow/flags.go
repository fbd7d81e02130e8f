package main

// The flag set and the verbs that are not experiments live here, in one
// place: run() dispatches on the analysis registry and then on this
// table, `ciflow help` (usage.go) prints both and the flag set, and
// TestHelpMatchesREADME checks README.md against all three.

import (
	"flag"
	"os"
	"strings"

	"ciflow/internal/analysis"
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
		{"schedule", "print a workload schedule DAG's shape, predicted op counts, and modeled cost (-export/-import versioned JSON)", scheduleVerb},
		{"shard", "one cluster shard backend: a serve service behind the wire protocol (-addr)", shardVerb},
		{"router", "probe running shards (-shardaddrs) and print the cluster status table", routerVerb},
		{"all", "every table, figure and ablation of the paper, in its order (all but roofline and memory above)", runAll},
		{"help", "this usage summary", func(c *cli) error {
			usage(os.Stdout, c.fl)
			return nil
		}},
	}
}

// cliFlags carries every parsed flag; newFlags is the single source of
// truth for names, defaults, and usage strings.
type cliFlags struct {
	fs *flag.FlagSet

	benchName *string
	memMiB    *int64
	csvOut    *bool

	// replay shape and ring (serve, schedule, shard, router)
	dfName    *string
	workers   *int
	requests  *int
	logN      *int
	towers    *int
	dnum      *int
	rotations *int
	jsonPath  *string

	// serve service settings
	tenants   *int
	keyBudget *int64
	check     *bool

	// workload schedules (serve, schedule)
	workloadName *string
	bts          *int
	radix        *int
	exportPath   *string
	importPath   *string

	// observability (serve, shard, schedule)
	profile   *bool
	tracePath *string
	pprofDir  *string
	dotPath   *string

	// sharding (serve, shard, router)
	shards     *int
	replicas   *int
	kill       *bool
	addr       *string
	shardAddrs *string
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
	fl.benchName = fs.String("bench", "", "benchmark name (BTS1, BTS2, BTS3, ARK, DPRIVE) for "+strings.Join(takeBench, ", "))
	fl.memMiB = fs.Int64("mem", 32, "on-chip data memory in MiB")
	fl.csvOut = fs.Bool("csv", false, "print every table of an experiment as CSV instead of text")

	fl.dfName = fs.String("dataflow", "all", "dataflow: "+dataflow.Names()+", or all (serve replays one: all = mp)")
	fl.workers = fs.Int("workers", 0, "engine worker count per process (0 = GOMAXPROCS, split over the shards)")
	fl.requests = fs.Int("requests", 16, "schedule shape: fanout bursts, matvec giants, pir batches")
	fl.logN = fs.Int("logn", 14, "ring degree exponent (N = 2^logn)")
	fl.towers = fs.Int("towers", 6, "Q-tower count")
	fl.dnum = fs.Int("dnum", 3, "key-switching digit count")
	fl.rotations = fs.Int("rotations", 8, "rotation fan-out width per ciphertext")
	fl.jsonPath = fs.String("json", "", "also write the report to this JSON file")

	fl.tenants = fs.Int("tenants", 1, "serve tenant count (distinct keyspaces, each replaying the schedule)")
	fl.keyBudget = fs.Int64("keybudget", 0, "serve key-cache byte budget per service (0 = serve default)")
	fl.check = fs.Bool("check", false, "serve: fail unless bit-exact, counts exact per tenant, books summing to tenants x the prediction, dependency order held")

	fl.workloadName = fs.String("workload", "fanout", "serve/schedule shape: fanout, bootstrap, matvec, pir, private-inference, evalmod, or file:<path>")
	fl.bts = fs.Int("bts", 2, "BTS parameter set (1, 2, or 3) shaping bootstrap schedules")
	fl.radix = fs.Int("radix", 0, "bootstrap DFT radix, a power of two (0 = auto-fit the level budget)")
	fl.exportPath = fs.String("export", "", "schedule: also write the schedule as versioned JSON to this file")
	fl.importPath = fs.String("import", "", "schedule: load and re-validate the schedule from this JSON file instead of generating it")

	fl.profile = fs.Bool("profile", false, "serve: record per-stage/per-kernel runtime histograms; adds stage_shares to the report")
	fl.tracePath = fs.String("trace", "", "serve (in-process): write a Chrome trace-event timeline (chrome://tracing, Perfetto) to this file")
	fl.pprofDir = fs.String("pprof", "", "serve: write cpu.prof and mem.prof (runtime/pprof) into this directory")
	fl.dotPath = fs.String("dot", "", "schedule: render the schedule DAG in Graphviz DOT format to this file")

	fl.shards = fs.Int("shards", 0, "serve shard process count (0 = one in-process service)")
	fl.replicas = fs.Int("replicas", 1, "serve shards eligible to serve one tenant (hot-key replication)")
	fl.kill = fs.Bool("kill", false, "serve: drain and retire one shard mid-replay")
	fl.addr = fs.String("addr", "127.0.0.1:0", "shard listen address")
	fl.shardAddrs = fs.String("shardaddrs", "", "router: comma-separated shard addresses")

	return fl
}

// flagDnum returns the parsed -dnum, or 0 when the flag was left at
// its default — the workload replay then inherits the digit structure
// of the chosen BTS parameter set instead of the generic default.
func flagDnum(fl *cliFlags) int {
	set := false
	fl.fs.Visit(func(f *flag.Flag) {
		if f.Name == "dnum" {
			set = true
		}
	})
	if set {
		return *fl.dnum
	}
	return 0
}
