// Command ciflow regenerates the tables and figures of "CiFlow:
// Dataflow Analysis and Optimization of Key Switching for Homomorphic
// Encryption" (ISPASS 2024) from this repository's from-scratch
// reproduction.
//
// Usage:
//
//	ciflow <experiment> [flags]
//
// Experiments:
//
//	table2         DRAM traffic and arithmetic intensity (Table II)
//	table3         benchmark parameter sets (Table III)
//	table4         OCbase bandwidths and speedups (Table IV)
//	table5         configs matching ARK's saturation point (Table V)
//	fig4           runtime vs bandwidth sweep (Figure 4; -bench)
//	fig5           BTS3 evk streamed vs on-chip (Figure 5)
//	fig6           ARK evk streamed vs on-chip (Figure 6)
//	fig7           OC streaming slowdown per benchmark (Figure 7)
//	fig8           ARK MODOPS sensitivity (Figure 8; -bench)
//	fig9           equivalent configs with streamed evks (Figure 9)
//	ablate-keycomp key-compression ablation (§IV-D)
//	ablate-ocf     fused-ModDown OC extension vs plain OC
//	roofline       memory/compute-bound classification at 8/64/256 GB/s
//	memory         data traffic vs on-chip memory size (§IV working sets)
//	area           SRAM/area saving summary (§VI-B)
//	serve          replay a schedule DAG (internal/workload) through
//	               the internal/serve multi-tenant key-switch service
//	               with the dependency-aware client: -workload picks
//	               the shape — independent fanout bursts (-requests
//	               bursts of -rotations rotations), bootstrapping
//	               CoeffToSlot/SlotToCoeff stages shaped by -bts/-radix,
//	               a baby-step/giant-step matvec (-rotations babies,
//	               -requests giants), a PIR fan-out (-requests batches
//	               of -rotations probes), a private-inference matvec/
//	               relin layer stack, an evalmod relin chain, or any
//	               imported schedule (file:PATH). -tenants keyspaces
//	               replay it concurrently, each against the serial
//	               bit-exactness reference, through one in-process
//	               service (-shards 0) or through -shards spawned
//	               shard processes behind the consistent-hashing
//	               router (-replicas replicas per tenant; -kill drains
//	               one shard mid-replay). The report cross-validates
//	               the measured serve counters — per tenant, per level,
//	               summed over every shard's books — against the
//	               schedule's predicted counts exactly. Timing a layer
//	               is `go run ./bench`'s job, not this verb's
//	schedule       print a workload schedule DAG at the paper's
//	               canonical BTS geometry (-workload, -bts, -radix):
//	               shape, per-level switch counts, predicted ModUps
//	               with/without hoisting, and the analysis model's
//	               cost estimate including shared-ModUp savings;
//	               -export FILE writes the schedule as versioned JSON,
//	               -import FILE loads and re-validates one instead of
//	               generating it
//	shard          one cluster shard backend: a serve.Service behind
//	               the internal/cluster wire protocol on -addr; prints
//	               "listening <addr>" once bound, exits on stdin EOF
//	               or a Shutdown frame (normally spawned by serve
//	               -shards, not run by hand)
//	router         probe running shards: dial the -shardaddrs list,
//	               ping every shard, print the status table
//	all            every table, figure and ablation above in paper
//	               order
//	help           the same experiment and flag summary on the CLI
//
// Flags:
//
//	-bench NAME    benchmark for fig4/fig8/memory (default BTS3 / ARK)
//	-mem MiB       on-chip data memory (default 32)
//	-csv           emit CSV instead of the ASCII table (table2, table4,
//	               fig4, fig5, fig6, memory)
//	-dataflow D    dataflow: mp, dc, oc, ocf, or all (default; a
//	               replay runs one dataflow, so serve reads all as mp)
//	-workers N     engine worker count per process (default GOMAXPROCS,
//	               split over the shards)
//	-requests B    schedule shape: fanout bursts, matvec giants, pir
//	               batches (default 16)
//	-logn L        ring degree 2^L (default 14)
//	-towers L      Q-tower count (default 6)
//	-dnum D        digit count (default 3; a bootstrap replay inherits
//	               the -bts set's unless given)
//	-rotations K   rotation fan-out width per ciphertext (default 8)
//	-json FILE     also write the report as JSON
//	-tenants T     serve tenant count — distinct keyspaces t0..t{T-1},
//	               each replaying the schedule (default 1)
//	-keybudget B   serve key-cache byte budget per service, in bytes
//	               (default 0 = the serve package default, 256 MiB)
//	-batch B       serve micro-batch size cap (default 64)
//	-window D      serve micro-batch gather window for separate
//	               Submit calls (default 500µs); replayed hoist groups
//	               never wait on it
//	-check         serve: exit non-zero unless every tenant's replay is
//	               bit-exact with serial execution, its counters equal
//	               the schedule's predictions exactly, dependency
//	               order holds, the books sum to tenants x the
//	               prediction level by level, hoist groups (when the
//	               schedule has any) coalesce (factor > 1), and — over
//	               shards — delivered = attributed = tenants x switches
//	-workload W    serve/schedule shape: fanout (default; independent
//	               bursts), bootstrap (CoeffToSlot/SlotToCoeff DAG),
//	               matvec (baby-step/giant-step DAG), pir (wide
//	               fan-out batches plus a combine), private-inference
//	               (matvec layers with relins between levels), evalmod
//	               (relin chain), or file:PATH (imported JSON)
//	-bts N         BTS parameter set (1, 2, or 3) shaping bootstrap
//	               schedules (default 2)
//	-radix R       bootstrap DFT radix, a power of two (default 0 =
//	               auto-fit the level budget)
//	-export F      schedule: also write the schedule as versioned JSON
//	-import F      schedule: load and re-validate the schedule from
//	               this JSON file instead of generating it
//	-dot F         schedule: render the schedule DAG in Graphviz DOT
//	               format to this file (one compute node per key
//	               switch, dependency edges preserved)
//	-profile       serve: record per-stage and per-kernel runtime
//	               histograms (internal/obs) and add stage_shares to
//	               the report; shards ship their histograms in stats
//	               frames and the router merges them exactly, bucket
//	               by bucket
//	-trace F       serve (in-process): write a Chrome trace-event
//	               timeline of engine node and serve batch spans to
//	               this file (load in chrome://tracing or Perfetto)
//	-pprof DIR     serve: write cpu.prof and mem.prof (runtime/pprof)
//	               of the driver process into this directory
//	-shards N      serve shard process count (default 0 = one
//	               in-process service)
//	-replicas R    serve shards eligible to serve one tenant — hot-key
//	               replication via per-tenant round-robin (default 1)
//	-kill          serve: drain and retire one shard mid-replay; the
//	               drained shard's final books plus the survivors'
//	               must still sum to the prediction exactly
//	-addr A        shard listen address (default 127.0.0.1:0)
//	-shardaddrs L  router: comma-separated shard addresses
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"ciflow/internal/analysis"
	"ciflow/internal/hks"
	"ciflow/internal/params"
	"ciflow/internal/ring"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ciflow:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing experiment (try: ciflow help)")
	}
	verb := args[0]
	fl := newFlags()
	switch verb {
	case "help", "-h", "-help", "--help":
		usage(os.Stdout, fl)
		return nil
	}
	if err := fl.fs.Parse(args[1:]); err != nil {
		return err
	}

	r := analysis.NewRunner()
	r.DataMemBytes = *fl.memMiB << 20

	pick := func(def params.Benchmark) (params.Benchmark, error) {
		if *fl.benchName == "" {
			return def, nil
		}
		return params.ByName(*fl.benchName)
	}

	csvMode = *fl.csvOut

	switch verb {
	case "table2":
		return table2(r)
	case "table3":
		fmt.Print(analysis.FormatTableIII())
		return nil
	case "table4":
		return table4(r)
	case "table5":
		return table5(r)
	case "fig4":
		b, err := pick(params.BTS3)
		if err != nil {
			return err
		}
		return fig4(r, b)
	case "fig5":
		return figStream(r, params.BTS3, "Figure 5: BTS3 runtime, evk streamed vs on-chip")
	case "fig6":
		return figStream(r, params.ARK, "Figure 6: ARK runtime, evk streamed vs on-chip")
	case "fig7":
		return fig7(r)
	case "fig8":
		b, err := pick(params.ARK)
		if err != nil {
			return err
		}
		return fig8(r, b)
	case "fig9":
		return fig9(r)
	case "ablate-keycomp":
		return keycomp(r)
	case "memory":
		b, err := pick(params.BTS3)
		if err != nil {
			return err
		}
		return memorySweep(b)
	case "ablate-ocf":
		return ocf(r)
	case "roofline":
		for _, bw := range []float64{8, 64, 256} {
			rows, err := r.Roofline(bw)
			if err != nil {
				return err
			}
			fmt.Print(analysis.FormatRoofline(bw, rows))
			fmt.Println()
		}
		return nil
	case "area":
		fmt.Print(analysis.AreaSummary())
		return nil
	case "serve":
		// Only bootstrap inherits the BTS set's digit count when -dnum
		// is left unset; other shapes keep the flag default.
		dnum := *fl.dnum
		if *fl.workloadName == "bootstrap" {
			dnum = flagDnum(fl)
		}
		return serveCmd(serveConfig{
			workload:  *fl.workloadName,
			bts:       *fl.bts,
			radix:     *fl.radix,
			dfName:    *fl.dfName,
			rotations: *fl.rotations,
			requests:  *fl.requests,
			logN:      *fl.logN,
			towers:    *fl.towers,
			dnum:      dnum,
			workers:   *fl.workers,
			keyBudget: *fl.keyBudget,
			maxBatch:  *fl.maxBatch,
			window:    *fl.window,
			tenants:   *fl.tenants,
			shards:    *fl.shards,
			replicas:  *fl.replicas,
			kill:      *fl.kill,
			profile:   *fl.profile,
			tracePath: *fl.tracePath,
			pprofDir:  *fl.pprofDir,
		}, *fl.jsonPath, *fl.check)
	case "schedule":
		return scheduleCmd(r, *fl.workloadName, *fl.bts, *fl.radix,
			*fl.rotations, *fl.requests, *fl.jsonPath, *fl.exportPath, *fl.importPath, *fl.dotPath)
	case "shard":
		return shardCmd(shardConfig{
			addr:      *fl.addr,
			tenants:   *fl.tenants,
			logN:      *fl.logN,
			towers:    *fl.towers,
			dnum:      *fl.dnum,
			workers:   *fl.workers,
			keyBudget: *fl.keyBudget,
			maxBatch:  *fl.maxBatch,
			window:    *fl.window,
			profile:   *fl.profile,
		})
	case "router":
		return routerCmd(routerConfig{
			shardAddrs: *fl.shardAddrs,
			replicas:   *fl.replicas,
			logN:       *fl.logN,
			towers:     *fl.towers,
			dnum:       *fl.dnum,
		})
	case "all":
		fmt.Print(analysis.FormatTableIII())
		fmt.Println()
		for _, f := range []func(*analysis.Runner) error{table2, table4, table5, fig7, fig9, keycomp, ocf} {
			if err := f(r); err != nil {
				return err
			}
			fmt.Println()
		}
		for _, b := range params.All() {
			if err := fig4(r, b); err != nil {
				return err
			}
			fmt.Println()
		}
		if err := figStream(r, params.BTS3, "Figure 5: BTS3 runtime, evk streamed vs on-chip"); err != nil {
			return err
		}
		fmt.Println()
		if err := figStream(r, params.ARK, "Figure 6: ARK runtime, evk streamed vs on-chip"); err != nil {
			return err
		}
		fmt.Println()
		if err := fig8(r, params.ARK); err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(analysis.AreaSummary())
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (try: ciflow help)", verb)
	}
}

// csvMode switches the output format of the experiments that support
// CSV emission.
var csvMode bool

// writeJSONReport writes one experiment's report (indented JSON) to
// path and confirms it on stdout — the shared tail of every verb with
// a -json flag.
func writeJSONReport(path string, rep any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func table2(r *analysis.Runner) error {
	rows, err := r.TableII()
	if err != nil {
		return err
	}
	if csvMode {
		return analysis.WriteTableIICSV(os.Stdout, rows)
	}
	fmt.Print(analysis.FormatTableII(rows))
	return nil
}

func memorySweep(b params.Benchmark) error {
	sizes := []int64{8, 16, 32, 64, 128, 256, 512, 1024}
	pts, err := analysis.MemorySweep(b, sizes)
	if err != nil {
		return err
	}
	if csvMode {
		return analysis.WriteMemoryCSV(os.Stdout, pts)
	}
	fmt.Print(analysis.FormatMemory(b, pts))
	return nil
}

func table4(r *analysis.Runner) error {
	rows, err := r.TableIV()
	if err != nil {
		return err
	}
	if csvMode {
		return analysis.WriteTableIVCSV(os.Stdout, rows)
	}
	fmt.Print(analysis.FormatTableIV(rows))
	return nil
}

func table5(r *analysis.Runner) error {
	rows, err := r.TableV()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatTableV(rows))
	return nil
}

func fig4(r *analysis.Runner, b params.Benchmark) error {
	bws := analysis.StdBandwidthsGBs
	if b.Name == "ARK" || b.Name == "BTS3" {
		bws = analysis.ExtBandwidthsGBs // the paper extends these two to 1 TB/s
	}
	pts, err := r.Figure4(b, bws)
	if err != nil {
		return err
	}
	if csvMode {
		return analysis.WriteSweepCSV(os.Stdout, pts)
	}
	fmt.Print(analysis.FormatSweep(
		fmt.Sprintf("Figure 4 (%s): HKS runtime vs off-chip bandwidth, evk on-chip", b.Name), pts))
	return nil
}

func figStream(r *analysis.Runner, b params.Benchmark, title string) error {
	pts, err := r.FigureStream(b, analysis.ExtBandwidthsGBs)
	if err != nil {
		return err
	}
	if csvMode {
		return analysis.WriteStreamCSV(os.Stdout, pts)
	}
	fmt.Print(analysis.FormatStream(title, pts))
	return nil
}

func fig7(r *analysis.Runner) error {
	rows, err := r.Figure7()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatFigure7(rows))
	return nil
}

func fig8(r *analysis.Runner, b params.Benchmark) error {
	pts, err := r.Figure8(b, analysis.ExtBandwidthsGBs)
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatFigure8(
		fmt.Sprintf("Figure 8 (%s): OC runtime at 1-16x MODOPS, evk on-chip", b.Name), pts))
	return nil
}

func fig9(r *analysis.Runner) error {
	sat, base, err := r.Figure9()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatFigure9(sat, base))
	return nil
}

func ocf(r *analysis.Runner) error {
	rows, err := r.AblationOCF()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatOCF(rows))
	return nil
}

func keycomp(r *analysis.Runner) error {
	rows, err := r.AblationKeyCompression()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatKeyCompression(rows))
	return keycompMeasured()
}

// keycompMeasured generates one real evaluation key and reports the
// two resident footprints the serving cache accounts — the model rows
// above say what compression buys at accelerator scale; these numbers
// are what the hks types deliver in this process (seed-compressed
// a-halves, dense b-halves).
func keycompMeasured() error {
	rg, err := ring.NewRingGenerated(1<<10, 6, 40, 3, 41)
	if err != nil {
		return err
	}
	sw, err := hks.NewSwitcher(rg, rg.NumQ-1, 3)
	if err != nil {
		return err
	}
	s := ring.NewSampler(rg, 1)
	full := rg.DBasis(rg.NumQ - 1)
	evk := sw.GenEvk(s, s.Ternary(full), s.Ternary(full))
	comp, ok := evk.Compress()
	if !ok {
		return fmt.Errorf("generated evk carries no seeds to compress")
	}
	dense, compressed := evk.SizeBytes(), comp.SizeBytes()
	fmt.Printf("Measured (N=%d, %d towers, dnum=%d): dense evk %.2f MiB, compressed %.2f MiB (%.2fx)\n",
		rg.N, len(sw.DBasis()), sw.Dnum,
		float64(dense)/(1<<20), float64(compressed)/(1<<20), float64(dense)/float64(compressed))
	return nil
}
