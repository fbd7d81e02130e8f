package params

// Operation-count model. The total modular-operation count of one HKS
// execution is independent of dataflow (paper §IV-D), so arithmetic
// intensity differences come purely from DRAM traffic.
//
// Weights convert kernel-level counts into the "modular operations"
// (MODOPS) currency of the paper's throughput metric:
//   - a butterfly is one modular multiplication plus an add and a sub;
//   - a multiply-accumulate is a multiplication plus an addition;
//   - the ModDown P4 step does a subtraction and a scaling
//     multiplication per residue.
const (
	ButterflyWeight = 3
	MulAccWeight    = 2
	AddWeight       = 1
	ScaleWeight     = 2
)

// OpCounts breaks one HKS execution into the stages of paper Figure 1.
// All counts are raw kernel-element counts (before weighting).
type OpCounts struct {
	ModUpINTTButterflies   int64 // P1: KL transforms
	ModUpBConvMulAcc       int64 // P2: Σ_j N·α_j·β_j + N·α_j
	ModUpNTTButterflies    int64 // P3: Σ_j β_j transforms
	ApplyKeyMulAcc         int64 // P4: 2·Dnum·N·(KL+KP)
	ReduceAdds             int64 // P5: (Dnum−1)·2·N·(KL+KP)
	ModDownINTTButterflies int64 // P1: 2·KP transforms
	ModDownBConvMulAcc     int64 // P2: 2·(N·KP·KL + N·KP)
	ModDownNTTButterflies  int64 // P3: 2·KL transforms
	ModDownScaleElems      int64 // P4: 2·N·KL residues (sub+mul each)
}

// butterfliesPerTransform returns (N/2)·logN.
func butterfliesPerTransform(logN int) int64 {
	n := int64(1) << uint(logN)
	return n / 2 * int64(logN)
}

// Ops computes the exact per-stage operation counts for b.
func (b Benchmark) Ops() OpCounts {
	n := int64(b.N())
	bf := butterfliesPerTransform(b.LogN)
	lk := int64(b.KL + b.KP)

	var oc OpCounts
	oc.ModUpINTTButterflies = int64(b.KL) * bf
	for j, w := range b.DigitWidths() {
		alpha := int64(w)
		beta := int64(b.Beta(j))
		oc.ModUpBConvMulAcc += n*alpha*beta + n*alpha
		oc.ModUpNTTButterflies += beta * bf
	}
	oc.ApplyKeyMulAcc = 2 * int64(b.Dnum) * n * lk
	oc.ReduceAdds = int64(b.Dnum-1) * 2 * n * lk
	oc.ModDownINTTButterflies = 2 * int64(b.KP) * bf
	oc.ModDownBConvMulAcc = 2 * (n*int64(b.KP)*int64(b.KL) + n*int64(b.KP))
	oc.ModDownNTTButterflies = 2 * int64(b.KL) * bf
	oc.ModDownScaleElems = 2 * n * int64(b.KL)
	return oc
}

// WeightedTotal converts the stage counts into total modular
// operations, the unit the RPU's MODOPS throughput consumes.
func (oc OpCounts) WeightedTotal() int64 {
	return ButterflyWeight*(oc.ModUpINTTButterflies+oc.ModUpNTTButterflies+
		oc.ModDownINTTButterflies+oc.ModDownNTTButterflies) +
		MulAccWeight*(oc.ModUpBConvMulAcc+oc.ApplyKeyMulAcc+oc.ModDownBConvMulAcc) +
		AddWeight*oc.ReduceAdds +
		ScaleWeight*oc.ModDownScaleElems
}
