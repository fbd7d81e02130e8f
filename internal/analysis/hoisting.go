package analysis

// Hoisting model: how much of a key switch's weighted modular work is
// the key-independent ModUp pipeline, and what speedup sharing it
// across k rotations of one ciphertext buys. It is the one model of
// dataflow.Plan.HoistedSpeedup, counted on the benchmark's plan as
// hks.HoistedSpeedupModel counts the switcher's; `go run ./bench
// -workload switch_direct -trace 1` prints the measured
// hks.hoist_speedup_x beside hks.hoist_model_x.

import (
	"fmt"

	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

// hoistPlan is the plan the hoisting model counts. Every dataflow's
// plan carries the same work; MP's at an unbounded budget is the
// simplest.
func hoistPlan(b params.Benchmark) *dataflow.Plan {
	return dataflow.NewPlan(dataflow.MP, b, dataflow.Unbounded)
}

// Hoisting tabulates the modeled hoisting savings of a benchmark for a
// list of fan-out widths k.
func Hoisting(b params.Benchmark, ks []int) *Table {
	p := hoistPlan(b)
	t := &Table{
		Title: fmt.Sprintf("Hoisting model (%s): ModUp is %.0f%% of one key switch's weighted mod ops", b.Name, 100*p.ModUpShare()),
		Cols:  []Col{{"k", "k", 6, "%d"}, {"ops saved", "ops_saved_g", 16, "%.2fG"}, {"speedup", "speedup_x", 14, "%.2fx"}},
	}
	modUp := p.Ops(dataflow.ModUpTile)
	for _, k := range ks {
		t.Add(k, float64(int64(k-1)*modUp)/1e9, p.HoistedSpeedup(k))
	}
	return t
}
