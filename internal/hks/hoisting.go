package hks

import "ciflow/internal/dataflow"

// ops sums the weighted modular operations (internal/params' weights:
// butterfly 3, multiply-accumulate 2, add 1, scale 2) of the tiles of
// the switcher's walk that keep admits: the count of the very plan the
// schedules execute, shorter last digit and bypass towers included.
func (sw *Switcher) ops(keep func(dataflow.Tile) bool) (n int64) {
	for _, grp := range sw.plans[dataflow.MP].Groups {
		for _, t := range grp.Tiles {
			if keep(t) {
				n += t.Cost()
			}
		}
	}
	return n
}

// ModUpOps reports the weighted modular operations of this switcher's
// ModUp phase (P1–P3): what a hoist runs.
func (sw *Switcher) ModUpOps() int64 { return sw.ops(modUpTile) }

// SwitchOps reports the weighted modular operations of one complete
// key switch (ModUp + ApplyKey + Reduce + ModDown), equal to
// params.OpCounts.WeightedTotal for the switcher's shape (bench's
// hks.switch_mod_ops beside params.weighted_mod_ops).
func (sw *Switcher) SwitchOps() int64 { return sw.ops(anyTile) }

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
// switch over k keys versus k independent switches, assuming runtime
// proportional to weighted modular ops: k·SwitchOps over
// k·SwitchOps − HoistedOpsSaved(k).
func (sw *Switcher) HoistedSpeedupModel(k int) float64 {
	if k <= 1 {
		return 1
	}
	total := float64(int64(k) * sw.SwitchOps())
	return total / (total - float64(sw.HoistedOpsSaved(k)))
}
