package params

import (
	"math"
	"testing"
)

const mib = 1 << 20

func TestTableIIIEvkSizes(t *testing.T) {
	// Paper Table III evk column, exactly (MB = MiB, 8-byte words).
	want := map[string]int64{
		"BTS1": 112 * mib, "BTS2": 240 * mib, "BTS3": 360 * mib,
		"ARK": 120 * mib, "DPRIVE": 99 * mib,
	}
	for _, b := range All() {
		if got := b.EvkBytes(); got != want[b.Name] {
			t.Errorf("%s evk = %d bytes, want %d", b.Name, got, want[b.Name])
		}
	}
}

func TestTableIIITempSizes(t *testing.T) {
	// Paper Table III temp-data column; allow 2% for the paper's
	// rounding (DPRIVE prints 163 MB vs the exact 161.5 MB).
	want := map[string]float64{
		"BTS1": 196, "BTS2": 400, "BTS3": 585, "ARK": 192, "DPRIVE": 163,
	}
	for _, b := range All() {
		got := float64(b.TempBytes()) / mib
		if math.Abs(got-want[b.Name])/want[b.Name] > 0.02 {
			t.Errorf("%s temp = %.1f MiB, want %.0f", b.Name, got, want[b.Name])
		}
	}
}

func TestTableIIIAlpha(t *testing.T) {
	want := map[string]int{"BTS1": 28, "BTS2": 20, "BTS3": 15, "ARK": 6, "DPRIVE": 9}
	for _, b := range All() {
		if got := b.Alpha(); got != want[b.Name] {
			t.Errorf("%s alpha = %d, want %d", b.Name, got, want[b.Name])
		}
	}
}

func TestDigitWidths(t *testing.T) {
	for _, b := range All() {
		ws := b.DigitWidths()
		if len(ws) != b.Dnum {
			t.Fatalf("%s: %d digits, want %d", b.Name, len(ws), b.Dnum)
		}
		sum := 0
		for _, w := range ws {
			sum += w
		}
		if sum != b.KL {
			t.Fatalf("%s: digits cover %d towers, want %d", b.Name, sum, b.KL)
		}
	}
	// DPRIVE has the uneven split 9,9,8.
	ws := DPRIVE.DigitWidths()
	if ws[0] != 9 || ws[1] != 9 || ws[2] != 8 {
		t.Fatalf("DPRIVE digits = %v, want [9 9 8]", ws)
	}
}

func TestBeta(t *testing.T) {
	// β = KL + KP − α_j.
	if got := BTS3.Beta(0); got != 45 {
		t.Errorf("BTS3 beta(0) = %d, want 45", got)
	}
	if got := DPRIVE.Beta(2); got != 25 {
		t.Errorf("DPRIVE beta(2) = %d, want 25", got)
	}
	if got := BTS1.Beta(0); got != 28 {
		t.Errorf("BTS1 beta(0) = %d, want 28", got)
	}
}

func TestValidateAll(t *testing.T) {
	for _, b := range All() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	bad := Benchmark{Name: "bad", LogN: 17, KL: 4, KP: 2, Dnum: 5}
	if err := bad.Validate(); err == nil {
		t.Error("dnum > KL accepted")
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("ARK")
	if err != nil || b.Name != "ARK" {
		t.Fatalf("ByName(ARK) = %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestOpsArithmeticIntensityShape(t *testing.T) {
	// Sanity targets from Table II: with the published MP traffic the
	// weighted op counts must land near the published AI (±20%,
	// absorbing the paper's unpublished op weighting).
	mpTraffic := map[string]float64{
		"BTS1": 600, "BTS2": 1352, "BTS3": 1850, "ARK": 432, "DPRIVE": 365,
	}
	paperAI := map[string]float64{
		"BTS1": 1.81, "BTS2": 1.14, "BTS3": 1.00, "ARK": 1.05, "DPRIVE": 1.26,
	}
	for _, b := range All() {
		ops := float64(b.Ops().WeightedTotal())
		ai := ops / (mpTraffic[b.Name] * mib)
		rel := math.Abs(ai-paperAI[b.Name]) / paperAI[b.Name]
		if rel > 0.20 {
			t.Errorf("%s: modeled AI %.2f vs paper %.2f (%.0f%% off)", b.Name, ai, paperAI[b.Name], rel*100)
		}
	}
}

func TestOpsStageFormulas(t *testing.T) {
	// Spot-check ARK against hand computation.
	oc := ARK.Ops()
	n := int64(1 << 16)
	bf := n / 2 * 16
	if oc.ModUpINTTButterflies != 24*bf {
		t.Errorf("ModUp INTT = %d, want %d", oc.ModUpINTTButterflies, 24*bf)
	}
	if oc.ModUpBConvMulAcc != 4*(n*6*24+n*6) {
		t.Errorf("ModUp BConv = %d", oc.ModUpBConvMulAcc)
	}
	if oc.ModUpNTTButterflies != 4*24*bf {
		t.Errorf("ModUp NTT = %d", oc.ModUpNTTButterflies)
	}
	if oc.ApplyKeyMulAcc != 2*4*n*30 {
		t.Errorf("ApplyKey = %d", oc.ApplyKeyMulAcc)
	}
	if oc.ReduceAdds != 3*2*n*30 {
		t.Errorf("Reduce = %d", oc.ReduceAdds)
	}
	if oc.ModDownINTTButterflies != 12*bf {
		t.Errorf("ModDown INTT = %d", oc.ModDownINTTButterflies)
	}
	if oc.ModDownBConvMulAcc != 2*(n*6*24+n*6) {
		t.Errorf("ModDown BConv = %d", oc.ModDownBConvMulAcc)
	}
	if oc.ModDownNTTButterflies != 2*24*bf {
		t.Errorf("ModDown NTT = %d", oc.ModDownNTTButterflies)
	}
	if oc.ModDownScaleElems != 2*n*24 {
		t.Errorf("ModDown scale = %d", oc.ModDownScaleElems)
	}
}

func TestReduceVanishesForSingleDigit(t *testing.T) {
	// BTS1 has one digit and therefore no ModUp Reduce stage
	// (paper §VI-A-2).
	if BTS1.Ops().ReduceAdds != 0 {
		t.Error("BTS1 should have zero reduce adds")
	}
}

func TestWeightedTotalConsistency(t *testing.T) {
	oc := BTS2.Ops()
	manual := ButterflyWeight*(oc.ModUpINTTButterflies+oc.ModUpNTTButterflies+oc.ModDownINTTButterflies+oc.ModDownNTTButterflies) +
		MulAccWeight*(oc.ModUpBConvMulAcc+oc.ApplyKeyMulAcc+oc.ModDownBConvMulAcc) +
		AddWeight*oc.ReduceAdds + ScaleWeight*oc.ModDownScaleElems
	if oc.WeightedTotal() != manual {
		t.Error("WeightedTotal does not match its definition")
	}
}
