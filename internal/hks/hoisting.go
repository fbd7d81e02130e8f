package hks

// weightedButterflies returns the weighted modular-op cost of one NTT
// or INTT over this ring: (N/2)·logN butterflies, each one multiply
// plus an add and a sub (params.ButterflyWeight).
func (sw *Switcher) weightedButterflies() int64 {
	n := int64(sw.R.N)
	logN := int64(0)
	for m := sw.R.N; m > 1; m >>= 1 {
		logN++
	}
	return 3 * (n / 2) * logN
}

// ModUpOps reports the weighted modular operations of this switcher's
// ModUp phase (P1–P3) as actually executed: the counts are assembled
// from the live digit partition and converter shapes — including the
// shorter last digit and the bypass towers — rather than from closed-
// form parameters, using the same op weights as internal/params
// (butterfly 3, multiply-accumulate 2).
func (sw *Switcher) ModUpOps() int64 {
	n := int64(sw.R.N)
	bf := sw.weightedButterflies()
	var ops int64
	ops += int64(sw.ell()) * (bf + 2*n) // P1 INTT + ŷ premultiply per Q tower
	for j, dg := range sw.digits {
		alpha := int64(len(dg))
		beta := int64(len(sw.upConv[j].Dst()))
		ops += beta * 2 * n * alpha // P2 BConv accumulation
		ops += beta * bf            // P3 NTT of the converted towers
	}
	return ops
}

// SwitchOps reports the weighted modular operations of one complete
// key switch (ModUp + ApplyKey + Reduce + ModDown) as executed by
// this switcher, with the same stage conventions as
// params.OpCounts.WeightedTotal — the live-structure counterpart of
// the model (bench's hks.switch_mod_ops beside params.weighted_mod_ops).
func (sw *Switcher) SwitchOps() int64 {
	n := int64(sw.R.N)
	bf := sw.weightedButterflies()
	ell := int64(sw.ell())
	kp := int64(len(sw.pBasis))
	lk := int64(len(sw.dBasis))
	dnum := int64(sw.Dnum)

	ops := sw.ModUpOps()
	ops += 2 * (2 * dnum * n * lk)     // P4 ApplyKey (both output polys)
	ops += (dnum - 1) * 2 * n * lk     // P5 Reduce
	ops += 2 * kp * bf                 // ModDown P1 INTT
	ops += 2 * (2 * (n*kp*ell + n*kp)) // ModDown P2 BConv (+ ŷ premultiply)
	ops += 2 * ell * bf                // ModDown P3 NTT
	ops += 2 * (2 * n * ell)           // ModDown P4 subtract-and-scale
	return ops
}

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
