package dataflow

import (
	"testing"

	"ciflow/internal/params"
)

// TestModUpShareIsClosedForm holds the hoisting model's count to the
// paper's closed form: on every Table III set the plan's ModUp share is
// params.Ops's ModUp P1–P3 over the whole switch, bit for bit, under
// every dataflow's plan.
func TestModUpShareIsClosedForm(t *testing.T) {
	for _, b := range params.All() {
		oc := b.Ops()
		modUp := params.ButterflyWeight*(oc.ModUpINTTButterflies+oc.ModUpNTTButterflies) +
			params.MulAccWeight*oc.ModUpBConvMulAcc
		want := float64(modUp) / float64(oc.WeightedTotal())
		for _, df := range []Dataflow{MP, DC, OC, OCF} {
			if got := NewPlan(df, b, Unbounded).ModUpShare(); got != want {
				t.Errorf("%s %s: ModUp share %v, closed form %v", b.Name, df, got, want)
			}
		}
		if f := want; f <= 0 || f >= 1 {
			t.Errorf("%s: ModUp share %g out of (0,1)", b.Name, f)
		}
	}
}

// TestHoistedSpeedupMonotone: no gain at k=1, a gain growing with k,
// and below 1/(1−f), the Amdahl limit of sharing a fraction f.
func TestHoistedSpeedupMonotone(t *testing.T) {
	p := NewPlan(MP, params.ARK, Unbounded)
	prev := p.HoistedSpeedup(1)
	if prev != 1 {
		t.Fatalf("k=1 speedup %g, want 1", prev)
	}
	for _, k := range []int{2, 4, 8, 16} {
		s := p.HoistedSpeedup(k)
		if s <= prev {
			t.Fatalf("speedup not increasing at k=%d: %g <= %g", k, s, prev)
		}
		prev = s
	}
	if limit := 1 / (1 - p.ModUpShare()); prev >= limit {
		t.Fatalf("k=16 speedup %g exceeds Amdahl limit %g", prev, limit)
	}
}
