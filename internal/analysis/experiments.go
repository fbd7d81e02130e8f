package analysis

import "ciflow/internal/params"

// Experiment is one table, figure or ablation of the evaluation: the
// name `ciflow` runs it under, a one-line summary, and the function
// that computes its tables.
type Experiment struct {
	Name, Desc string
	// Bench is the benchmark Run gets unless the caller names another;
	// the zero value marks an experiment that covers all five (or
	// none) and ignores the argument.
	Bench params.Benchmark
	// PerBench: a full run (`ciflow all`) repeats the experiment for
	// every benchmark — Figure 4 has a panel for each (see Panels).
	PerBench bool
	// Extra: not among the paper's numbered results; a full run leaves
	// it out.
	Extra bool
	Run   func(*Runner, params.Benchmark) ([]*Table, error)
}

// Panels are the benchmarks a full run covers: the experiment's own,
// or each of the five for one with a panel per benchmark.
func (e Experiment) Panels() []params.Benchmark {
	if e.PerBench {
		return params.All()
	}
	return []params.Benchmark{e.Bench}
}

// Experiments is the registry, in the order a full run prints them.
// Everything that lists experiments — `ciflow help` and `all`, the
// root benchmarks, the README check — walks it; adding one is adding
// an entry here.
var Experiments = []Experiment{
	{Name: "table3", Desc: "benchmark parameter sets (Table III)", Run: tableIII},
	{Name: "table2", Desc: "DRAM traffic and arithmetic intensity (Table II)", Run: tableII},
	{Name: "table4", Desc: "OCbase bandwidths and speedups (Table IV)", Run: tableIV},
	{Name: "table5", Desc: "configs matching ARK's saturation point (Table V)", Run: tableV},
	{Name: "fig7", Desc: "OC streaming slowdown per benchmark (Figure 7)", Run: figure7},
	{Name: "fig9", Desc: "equivalent configs with streamed evks (Figure 9)", Run: figure9},
	{Name: "ablate-keycomp", Desc: "key-compression ablation (§IV-D)", Run: ablationKeyCompression},
	{Name: "ablate-ocf", Desc: "fused-ModDown OC extension vs plain OC", Run: ablationOCF},
	{Name: "fig4", Desc: "runtime vs bandwidth sweep (Figure 4; -bench)", Bench: params.BTS3, PerBench: true, Run: figure4},
	{Name: "fig5", Desc: "BTS3 evk streamed vs on-chip (Figure 5)", Run: figureStream(5, params.BTS3)},
	{Name: "fig6", Desc: "ARK evk streamed vs on-chip (Figure 6)", Run: figureStream(6, params.ARK)},
	{Name: "fig8", Desc: "ARK MODOPS sensitivity (Figure 8; -bench)", Bench: params.ARK, Run: figure8},
	{Name: "area", Desc: "SRAM/area saving summary (§VI-B)", Run: area},
	{Name: "roofline", Desc: "memory/compute-bound classification at 8/64/256 GB/s", Extra: true, Run: roofline},
	{Name: "memory", Desc: "data traffic vs on-chip memory size (§IV working sets)", Bench: params.BTS3, Extra: true, Run: memory},
}

// The two leading columns most tables share.
var (
	benchCol = Col{"Benchmark", "bench", -10, "%s"}
	bwCol    = Col{"BW GB/s", "bw_gbs", 10, "%.1f"}
)
