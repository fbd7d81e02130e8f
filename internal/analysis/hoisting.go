package analysis

// Hoisting model: how much of a key switch's weighted modular work is
// the key-independent ModUp pipeline, and what speedup sharing it
// across k rotations of one ciphertext buys. This is the paper-model
// counterpart of hks.HoistedOpsSaved; `go run ./bench -workload
// switch_direct -trace 1` prints the measured hks.hoist_speedup_x
// beside hks.hoist_model_x.

import (
	"fmt"

	"ciflow/internal/params"
)

// HoistedModUpFraction returns the fraction of one key switch's
// weighted modular operations spent in the ModUp P1–P3 pipeline — the
// part hoisting runs once instead of k times.
func HoistedModUpFraction(b params.Benchmark) float64 {
	oc := b.Ops()
	modUp := params.ButterflyWeight*(oc.ModUpINTTButterflies+oc.ModUpNTTButterflies) +
		params.MulAccWeight*oc.ModUpBConvMulAcc
	return float64(modUp) / float64(oc.WeightedTotal())
}

// HoistedSpeedup predicts the throughput gain of one hoisted switch
// over k keys versus k independent switches, assuming runtime
// proportional to weighted modular operations.
func HoistedSpeedup(b params.Benchmark, k int) float64 {
	if k <= 1 {
		return 1
	}
	f := HoistedModUpFraction(b)
	return float64(k) / (float64(k) - float64(k-1)*f)
}

// Hoisting tabulates the modeled hoisting savings of a benchmark for a
// list of fan-out widths k.
func Hoisting(b params.Benchmark, ks []int) *Table {
	f := HoistedModUpFraction(b)
	t := &Table{
		Title: fmt.Sprintf("Hoisting model (%s): ModUp is %.0f%% of one key switch's weighted mod ops", b.Name, 100*f),
		Cols:  []Col{{"k", "k", 6, "%d"}, {"ops saved", "ops_saved_g", 16, "%.2fG"}, {"speedup", "speedup_x", 14, "%.2fx"}},
	}
	total := float64(b.Ops().WeightedTotal())
	for _, k := range ks {
		t.Add(k, float64(k-1)*f*total/1e9, HoistedSpeedup(b, k))
	}
	return t
}
