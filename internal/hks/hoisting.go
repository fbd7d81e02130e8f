package hks

import "ciflow/internal/dataflow"

// The hoisting model counts the switcher's own plan (dataflow.Plan.Ops:
// the weighted modular operations of the very tiles the schedules
// execute, shorter last digit and bypass towers included). Every
// dataflow's plan carries the same work, so MP's stands for all.

// ModUpOps reports the weighted modular operations of this switcher's
// ModUp phase (P1–P3): what a hoist runs.
func (sw *Switcher) ModUpOps() int64 { return sw.plans[dataflow.MP].Ops(dataflow.ModUpTile) }

// SwitchOps reports the weighted modular operations of one complete
// key switch (ModUp + ApplyKey + Reduce + ModDown), equal to
// params.OpCounts.WeightedTotal for the switcher's shape (bench's
// hks.switch_mod_ops beside params.weighted_mod_ops).
func (sw *Switcher) SwitchOps() int64 { return sw.plans[dataflow.MP].Ops(dataflow.AnyTile) }

// HoistedOpsSaved reports the weighted modular operations a hoisted
// switch over k keys saves versus k independent KeySwitch calls:
// (k−1) executions of the ModUp P1–P3 pipeline.
func (sw *Switcher) HoistedOpsSaved(k int) int64 {
	if k <= 1 {
		return 0
	}
	return int64(k-1) * sw.ModUpOps()
}

// HoistedSpeedupModel predicts the throughput gain of one hoisted
// switch over k keys versus k independent switches
// (dataflow.Plan.HoistedSpeedup).
func (sw *Switcher) HoistedSpeedupModel(k int) float64 {
	return sw.plans[dataflow.MP].HoistedSpeedup(k)
}
