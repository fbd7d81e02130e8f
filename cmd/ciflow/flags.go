package main

// The flag set and the experiment catalog live here, in one place, so
// that `ciflow help` (usage.go prints from these), the package doc
// comment, and README.md can be checked against each other by
// TestHelpMatchesREADME instead of drifting apart.

import (
	"flag"
	"time"
)

// experiment is one ciflow verb as shown by `ciflow help`.
type experiment struct {
	name, desc string
}

// experiments lists every verb run() dispatches, in display order.
var experiments = []experiment{
	{"table2", "DRAM traffic and arithmetic intensity (Table II)"},
	{"table3", "benchmark parameter sets (Table III)"},
	{"table4", "OCbase bandwidths and speedups (Table IV)"},
	{"table5", "configs matching ARK's saturation point (Table V)"},
	{"fig4", "runtime vs bandwidth sweep (Figure 4; -bench)"},
	{"fig5", "BTS3 evk streamed vs on-chip (Figure 5)"},
	{"fig6", "ARK evk streamed vs on-chip (Figure 6)"},
	{"fig7", "OC streaming slowdown per benchmark (Figure 7)"},
	{"fig8", "ARK MODOPS sensitivity (Figure 8; -bench)"},
	{"fig9", "equivalent configs with streamed evks (Figure 9)"},
	{"ablate-keycomp", "key-compression ablation (§IV-D)"},
	{"ablate-ocf", "fused-ModDown OC extension vs plain OC"},
	{"roofline", "memory/compute-bound classification at 8/64/256 GB/s"},
	{"memory", "data traffic vs on-chip memory size (§IV working sets)"},
	{"area", "SRAM/area saving summary (§VI-B)"},
	{"throughput", "measured HKS ops/sec and latency per dataflow on the engine pool"},
	{"serve", "batching key-switch service load generator (cache + coalescing; -workload replays schedule DAGs)"},
	{"schedule", "print a workload schedule DAG's shape, predicted op counts, and modeled cost (-export/-import versioned JSON)"},
	{"shard", "one cluster shard backend: a serve service behind the wire protocol (-addr)"},
	{"router", "probe running shards (-shardaddrs) and print the cluster status table"},
	{"cluster", "sharded serving experiment: spawn -shards shard processes, replay -tenants schedules through the router, verify exact shard-sum and bit-exactness (-replicas, -kill)"},
	{"perfgate", "CI performance-regression gate vs committed baselines"},
	{"all", "everything above in paper order (except throughput, serve, schedule, shard, router, cluster, perfgate)"},
	{"help", "this usage summary"},
}

// cliFlags carries every parsed flag; newFlags is the single source of
// truth for names, defaults, and usage strings.
type cliFlags struct {
	fs *flag.FlagSet

	benchName *string
	memMiB    *int64
	csvOut    *bool

	// throughput + serve workload shape
	dfName    *string
	workers   *int
	requests  *int
	logN      *int
	towers    *int
	dnum      *int
	hoisted   *bool
	rotations *int
	jsonPath  *string

	// serve load generator
	clients   *int
	rps       *int
	rotPool   *int
	tenants   *int
	levels    *int
	keyBudget *int64
	keyComp   *bool
	maxBatch  *int
	window    *time.Duration
	check     *bool

	// workload schedules (serve -workload, schedule)
	workloadName *string
	bts          *int
	radix        *int
	exportPath   *string
	importPath   *string

	// observability (throughput, serve, cluster, shard, schedule)
	profile   *bool
	tracePath *string
	pprofDir  *string
	dotPath   *string

	// cluster (shard, router, cluster)
	shards     *int
	replicas   *int
	kill       *bool
	addr       *string
	shardAddrs *string

	// perfgate
	baseline         *string
	freshPath        *string
	serveBaseline    *string
	serveFresh       *string
	workloadBaseline *string
	workloadFresh    *string
	scenarioBaseline *string
	scenarioFresh    *string
	clusterBaseline  *string
	clusterFresh     *string
	maxRegression    *float64
}

func newFlags() *cliFlags {
	fs := flag.NewFlagSet("ciflow", flag.ContinueOnError)
	fl := &cliFlags{fs: fs}

	fl.benchName = fs.String("bench", "", "benchmark name (BTS1, BTS2, BTS3, ARK, DPRIVE)")
	fl.memMiB = fs.Int64("mem", 32, "on-chip data memory in MiB")
	fl.csvOut = fs.Bool("csv", false, "emit CSV instead of ASCII tables")

	fl.dfName = fs.String("dataflow", "all", "dataflow: mp, dc, oc, ocf, or all")
	fl.workers = fs.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	fl.requests = fs.Int("requests", 16, "throughput request count / serve operations per client")
	fl.logN = fs.Int("logn", 14, "ring degree exponent (N = 2^logn)")
	fl.towers = fs.Int("towers", 6, "Q-tower count")
	fl.dnum = fs.Int("dnum", 3, "key-switching digit count")
	fl.hoisted = fs.Bool("hoisted", false, "also measure hoisted key switching (shared ModUp)")
	fl.rotations = fs.Int("rotations", 8, "rotation fan-out width per ciphertext")
	fl.jsonPath = fs.String("json", "", "also write the report to this JSON file")

	fl.clients = fs.Int("clients", 4, "serve concurrent client goroutines")
	fl.rps = fs.Int("rps", 0, "serve per-client operations/sec pacing (0 = unpaced)")
	fl.rotPool = fs.Int("rotpool", 0, "serve distinct rotation amounts shared per keyspace (0 = -rotations)")
	fl.tenants = fs.Int("tenants", 1, "serve tenant count (distinct keyspaces, round-robin over clients)")
	fl.levels = fs.Int("levels", 1, "serve distinct ciphertext levels, topmost first")
	fl.keyBudget = fs.Int64("keybudget", 0, "serve global key-cache byte budget (0 = serve default)")
	fl.keyComp = fs.Bool("keycomp", false, "serve: cache seed-compressed evaluation keys, expanded per digit at use")
	fl.maxBatch = fs.Int("batch", 64, "serve micro-batch size cap")
	fl.window = fs.Duration("window", 500*time.Microsecond, "serve micro-batch gather window for separate Submit calls")
	fl.check = fs.Bool("check", false, "serve: fail unless coalescing > 1, hit rates > 50%, keyspaces isolated, bit-exact")

	fl.workloadName = fs.String("workload", "fanout", "serve/schedule shape: fanout, bootstrap, matvec, pir, private-inference, evalmod, or file:<path>")
	fl.bts = fs.Int("bts", 2, "BTS parameter set (1, 2, or 3) shaping bootstrap schedules")
	fl.radix = fs.Int("radix", 0, "bootstrap DFT radix, a power of two (0 = auto-fit the level budget)")
	fl.exportPath = fs.String("export", "", "schedule: also write the schedule as versioned JSON to this file")
	fl.importPath = fs.String("import", "", "schedule: load and re-validate the schedule from this JSON file instead of generating it")

	fl.profile = fs.Bool("profile", false, "record per-stage/per-kernel runtime histograms; adds stage_shares to throughput/serve/cluster reports")
	fl.tracePath = fs.String("trace", "", "throughput/serve: write a Chrome trace-event timeline (chrome://tracing, Perfetto) to this file")
	fl.pprofDir = fs.String("pprof", "", "throughput/serve: write cpu.prof and mem.prof (runtime/pprof) into this directory")
	fl.dotPath = fs.String("dot", "", "schedule: render the schedule DAG in Graphviz DOT format to this file")

	fl.shards = fs.Int("shards", 2, "cluster shard process count")
	fl.replicas = fs.Int("replicas", 1, "cluster shards eligible to serve one tenant (hot-key replication)")
	fl.kill = fs.Bool("kill", false, "cluster: drain and retire one shard mid-replay")
	fl.addr = fs.String("addr", "127.0.0.1:0", "shard listen address")
	fl.shardAddrs = fs.String("shardaddrs", "", "router: comma-separated shard addresses")

	fl.baseline = fs.String("baseline", "BENCH_engine.json", "perfgate throughput baseline report")
	fl.freshPath = fs.String("fresh", "bench_fresh.json", "perfgate fresh throughput report")
	fl.serveBaseline = fs.String("serve-baseline", "", "perfgate serve baseline report (empty = skip serve gate)")
	fl.serveFresh = fs.String("serve-fresh", "", "perfgate fresh serve report (empty = skip serve gate)")
	fl.workloadBaseline = fs.String("workload-baseline", "", "perfgate workload-replay baseline report (empty = skip workload gate)")
	fl.workloadFresh = fs.String("workload-fresh", "", "perfgate fresh workload-replay report (empty = skip workload gate)")
	fl.scenarioBaseline = fs.String("scenario-baseline", "", "perfgate scenario-replay baseline report (empty = skip scenario gate)")
	fl.scenarioFresh = fs.String("scenario-fresh", "", "perfgate fresh scenario-replay report (empty = skip scenario gate)")
	fl.clusterBaseline = fs.String("cluster-baseline", "", "perfgate cluster baseline report (empty = skip cluster gate)")
	fl.clusterFresh = fs.String("cluster-fresh", "", "perfgate fresh cluster report (empty = skip cluster gate)")
	fl.maxRegression = fs.Float64("max-regression", 2, "perfgate allowed ops/sec drop factor")

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
