package analysis

import (
	"fmt"

	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

// Workload models the key-switch volume of a composite HE computation.
// The paper motivates the dataflow work with exactly such workloads: a
// single ResNet-20 inference performs 3,306 rotations (§I), each one a
// hybrid key switch, plus one key switch per ciphertext multiplication.
//
// Rotations that arrive as hoistable fan-outs — the diagonal method's
// baby steps, a bootstrapping stage's radix group — share one
// Decompose+ModUp, so a workload also states how many ModUps it runs:
// one per switch without hoisting, one per hoist group with it
// (workload.Counts.ModUps of a schedule DAG). EstimateWorkload prices
// each ModUp fewer than KeySwitches with the hoisting model's op share
// (dataflow.Plan.ModUpShare).
type Workload struct {
	Name      string
	Rotations int // each costs one HKS
	Mults     int // each relinearization costs one HKS
	ModUps    int // Decompose+ModUp executions, at most KeySwitches
}

// KeySwitches returns the total HKS invocations.
func (w Workload) KeySwitches() int { return w.Rotations + w.Mults }

// ResNet20 is the paper's motivating workload (§I, Lee et al.), with
// no rotation hoisted.
var ResNet20 = Workload{Name: "ResNet-20", Rotations: 3306, Mults: 1226, ModUps: 3306 + 1226}

// WorkloadEstimate is the projected cost of running a workload's key
// switches back to back on one configuration.
type WorkloadEstimate struct {
	Workload string
	Dataflow string
	PerKSms  float64
	TotalSec float64
	DRAMGB   float64 // total DRAM traffic including streamed keys
	// HoistSavedModUps is KeySwitches − ModUps, the ModUp executions
	// hoisting removes; HoistedTotalSec prices the schedule with that
	// sharing, using the benchmark's ModUp op share. Equal to TotalSec
	// when the workload hoists nothing.
	HoistSavedModUps int
	HoistedTotalSec  float64
}

// EstimateWorkload projects the HKS cost of w at the given benchmark
// parameters, bandwidth and evk placement, for every dataflow.
// Per-operation state (inputs/outputs) is assumed to flow through DRAM
// between operations, which the per-schedule traffic already counts.
// HoistedTotalSec additionally prices the shared-ModUp savings: each
// saved ModUp removes the ModUp share of one key switch's cost (the
// op-share model the measured hoisting experiment reconciles against).
func (r *Runner) EstimateWorkload(w Workload, b params.Benchmark, evkOnChip bool, bwGBs float64) ([]WorkloadEstimate, error) {
	saved := w.KeySwitches() - w.ModUps
	if saved < 0 || w.ModUps < min(1, w.KeySwitches()) {
		return nil, fmt.Errorf("analysis: workload %s runs %d ModUps for %d key switches", w.Name, w.ModUps, w.KeySwitches())
	}
	f := hoistPlan(b).ModUpShare()
	var out []WorkloadEstimate
	for _, df := range dataflow.AllDataflows() {
		ms, err := r.RuntimeMS(df, b, evkOnChip, bwGBs, 1)
		if err != nil {
			return nil, err
		}
		s, err := r.Schedule(df, b, evkOnChip, false)
		if err != nil {
			return nil, err
		}
		ks := float64(w.KeySwitches())
		total := ms * ks / 1e3
		out = append(out, WorkloadEstimate{
			Workload:         w.Name,
			Dataflow:         df.String(),
			PerKSms:          ms,
			TotalSec:         total,
			DRAMGB:           float64(s.Traffic.TotalBytes()) * ks / 1e9,
			HoistSavedModUps: saved,
			HoistedTotalSec:  total - ms*f*float64(saved)/1e3,
		})
	}
	return out, nil
}

// WorkloadTable tabulates the estimates; a workload that hoists gets
// the hoisted-total column and a note of the ModUps saved.
func WorkloadTable(bwGBs float64, rows []WorkloadEstimate) *Table {
	if len(rows) == 0 {
		return &Table{Title: "(no estimates)"}
	}
	hoisted := rows[0].HoistSavedModUps > 0
	t := &Table{
		Title: fmt.Sprintf("Workload %s at %.1f GB/s (key-switch time only)", rows[0].Workload, bwGBs),
		Cols:  []Col{{"DF", "dataflow", -4, "%s"}, {"per-KS ms", "per_ks_ms", 12, "%.2f"}, {"total s", "total_s", 12, "%.1f"}},
	}
	if hoisted {
		t.Cols = append(t.Cols, Col{"hoisted s", "hoisted_s", 12, "%.1f"})
		t.Notes = []string{fmt.Sprintf("hoisting shares ModUps across the declared fan-out groups: %d ModUp executions saved",
			rows[0].HoistSavedModUps)}
	}
	t.Cols = append(t.Cols, Col{"DRAM GB", "dram_gb", 14, "%.0f"})
	for _, r := range rows {
		if hoisted {
			t.Add(r.Dataflow, r.PerKSms, r.TotalSec, r.HoistedTotalSec, r.DRAMGB)
		} else {
			t.Add(r.Dataflow, r.PerKSms, r.TotalSec, r.DRAMGB)
		}
	}
	return t
}
