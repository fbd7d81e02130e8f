// Command ciflow regenerates the tables and figures of "CiFlow:
// Dataflow Analysis and Optimization of Key Switching for Homomorphic
// Encryption" (ISPASS 2024) from this repository's from-scratch
// reproduction, and drives its serving stack.
//
// Usage:
//
//	ciflow <experiment> [flags]
//
// The paper's experiments are table2 … table5, fig4 … fig9,
// ablate-keycomp, ablate-ocf, roofline, memory and area (all runs them
// in paper order). serve replays a workload schedule through the
// serving stack — one in-process service or spawned shard processes —
// and checks bit-exactness and exact counts; schedule prints a
// schedule's shape and modeled cost; shard and router are the halves
// of the sharded fabric as standalone processes.
//
// Run `ciflow help` for every experiment and flag with its default:
// that output is generated from the one table (flags.go) the dispatch
// reads, and README.md's CLI reference is tested against it.
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

// cli is what an experiment runs with: the parsed flags and the
// analysis runner configured from them.
type cli struct {
	fl *cliFlags
	r  *analysis.Runner
}

// bench resolves -bench, or def when the flag was left empty.
func (c *cli) bench(def params.Benchmark) (params.Benchmark, error) {
	if *c.fl.benchName == "" {
		return def, nil
	}
	return params.ByName(*c.fl.benchName)
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing experiment (try: ciflow help)")
	}
	verb := args[0]
	c := &cli{fl: newFlags(), r: analysis.NewRunner()}
	switch verb {
	case "-h", "-help", "--help":
		verb = "help"
	}
	e := lookup(verb)
	if e == nil {
		return fmt.Errorf("unknown experiment %q (try: ciflow help)", verb)
	}
	// help takes no flags: whatever follows it is ignored.
	if verb != "help" {
		if err := c.fl.fs.Parse(args[1:]); err != nil {
			return err
		}
	}
	c.r.DataMemBytes = *c.fl.memMiB << 20
	csvMode = *c.fl.csvOut
	return e.run(c)
}

// lookup finds a verb's entry in the experiments table; nil if it has
// none.
func lookup(verb string) *experiment {
	for i := range experiments {
		if experiments[i].name == verb {
			return &experiments[i]
		}
	}
	return nil
}

// runAll is the `all` verb: every table, figure and ablation in the
// order the paper presents them — Figure 4 once per benchmark — each
// through its own entry of the experiments table.
func runAll(c *cli) error {
	type step struct{ verb, bench string }
	var steps []step
	for _, v := range []string{"table3", "table2", "table4", "table5", "fig7", "fig9", "ablate-keycomp", "ablate-ocf"} {
		steps = append(steps, step{verb: v})
	}
	for _, b := range params.All() {
		steps = append(steps, step{"fig4", b.Name})
	}
	steps = append(steps, step{verb: "fig5"}, step{verb: "fig6"}, step{verb: "fig8"}, step{verb: "area"})
	for i, st := range steps {
		if i > 0 {
			fmt.Println()
		}
		*c.fl.benchName = st.bench
		if err := lookup(st.verb).run(c); err != nil {
			return err
		}
	}
	return nil
}

func roofline(c *cli) error {
	for _, bw := range []float64{8, 64, 256} {
		rows, err := c.r.Roofline(bw)
		if err != nil {
			return err
		}
		fmt.Print(analysis.FormatRoofline(bw, rows))
		fmt.Println()
	}
	return nil
}

func serveVerb(c *cli) error {
	fl := c.fl
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
		tenants:   *fl.tenants,
		shards:    *fl.shards,
		replicas:  *fl.replicas,
		kill:      *fl.kill,
		profile:   *fl.profile,
		tracePath: *fl.tracePath,
		pprofDir:  *fl.pprofDir,
	}, *fl.jsonPath, *fl.check)
}

func scheduleVerb(c *cli) error {
	fl := c.fl
	return scheduleCmd(c.r, *fl.workloadName, *fl.bts, *fl.radix,
		*fl.rotations, *fl.requests, *fl.jsonPath, *fl.exportPath, *fl.importPath, *fl.dotPath)
}

func shardVerb(c *cli) error {
	fl := c.fl
	return shardCmd(shardConfig{
		addr:      *fl.addr,
		tenants:   *fl.tenants,
		logN:      *fl.logN,
		towers:    *fl.towers,
		dnum:      *fl.dnum,
		workers:   *fl.workers,
		keyBudget: *fl.keyBudget,
		profile:   *fl.profile,
	})
}

func routerVerb(c *cli) error {
	fl := c.fl
	return routerCmd(routerConfig{
		shardAddrs: *fl.shardAddrs,
		replicas:   *fl.replicas,
		logN:       *fl.logN,
		towers:     *fl.towers,
		dnum:       *fl.dnum,
	})
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

func table2(c *cli) error {
	rows, err := c.r.TableII()
	if err != nil {
		return err
	}
	if csvMode {
		return analysis.WriteTableIICSV(os.Stdout, rows)
	}
	fmt.Print(analysis.FormatTableII(rows))
	return nil
}

func memorySweep(c *cli) error {
	b, err := c.bench(params.BTS3)
	if err != nil {
		return err
	}
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

func table4(c *cli) error {
	rows, err := c.r.TableIV()
	if err != nil {
		return err
	}
	if csvMode {
		return analysis.WriteTableIVCSV(os.Stdout, rows)
	}
	fmt.Print(analysis.FormatTableIV(rows))
	return nil
}

func table5(c *cli) error {
	rows, err := c.r.TableV()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatTableV(rows))
	return nil
}

func fig4(c *cli) error {
	b, err := c.bench(params.BTS3)
	if err != nil {
		return err
	}
	bws := analysis.StdBandwidthsGBs
	if b.Name == "ARK" || b.Name == "BTS3" {
		bws = analysis.ExtBandwidthsGBs // the paper extends these two to 1 TB/s
	}
	pts, err := c.r.Figure4(b, bws)
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

// figStream is Figures 5 and 6: one benchmark's runtime with the evk
// streamed against the evk on chip.
func figStream(b params.Benchmark, figure int) func(*cli) error {
	return func(c *cli) error {
		pts, err := c.r.FigureStream(b, analysis.ExtBandwidthsGBs)
		if err != nil {
			return err
		}
		if csvMode {
			return analysis.WriteStreamCSV(os.Stdout, pts)
		}
		fmt.Print(analysis.FormatStream(
			fmt.Sprintf("Figure %d: %s runtime, evk streamed vs on-chip", figure, b.Name), pts))
		return nil
	}
}

func fig7(c *cli) error {
	rows, err := c.r.Figure7()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatFigure7(rows))
	return nil
}

func fig8(c *cli) error {
	b, err := c.bench(params.ARK)
	if err != nil {
		return err
	}
	pts, err := c.r.Figure8(b, analysis.ExtBandwidthsGBs)
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatFigure8(
		fmt.Sprintf("Figure 8 (%s): OC runtime at 1-16x MODOPS, evk on-chip", b.Name), pts))
	return nil
}

func fig9(c *cli) error {
	sat, base, err := c.r.Figure9()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatFigure9(sat, base))
	return nil
}

func ocf(c *cli) error {
	rows, err := c.r.AblationOCF()
	if err != nil {
		return err
	}
	fmt.Print(analysis.FormatOCF(rows))
	return nil
}

func keycomp(c *cli) error {
	rows, err := c.r.AblationKeyCompression()
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
