package hks

import (
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

func benchSetup(b *testing.B, n, numQ, dnum int) (*ring.Ring, *Switcher, *Evk, *ring.Poly) {
	b.Helper()
	r, err := ring.NewRingGenerated(n, numQ, 40, 3, 41)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := NewSwitcher(r, numQ-1, dnum)
	if err != nil {
		b.Fatal(err)
	}
	s := ring.NewSampler(r, 1)
	full := r.DBasis(r.NumQ - 1)
	sOld := s.Ternary(full)
	sNew := s.Ternary(full)
	evk := sw.GenEvk(s, sOld, sNew)
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	return r, sw, evk, d
}

func BenchmarkKeySwitchN4096(b *testing.B) {
	_, sw, evk, d := benchSetup(b, 4096, 6, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.KeySwitch(d, evk)
	}
}

func BenchmarkModUpN4096(b *testing.B) {
	_, sw, _, d := benchSetup(b, 4096, 6, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ModUp(d)
	}
}

func BenchmarkModDownN4096(b *testing.B) {
	_, sw, evk, d := benchSetup(b, 4096, 6, 3)
	ups := sw.ModUp(d)
	c0, _ := sw.ApplyEvk(ups, evk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ModDown(c0)
	}
}

func BenchmarkSwitchHoisted8(b *testing.B) {
	r, sw, _, d := benchSetup(b, 2048, 6, 3)
	s := ring.NewSampler(r, 2)
	full := r.DBasis(r.NumQ - 1)
	sk := s.Ternary(full)
	evks := make([]*Evk, 8)
	for i := range evks {
		evks[i] = sw.GenEvk(s, s.Ternary(full), sk)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.SwitchHoisted(d, evks)
	}
}

func BenchmarkKeySwitch8Individual(b *testing.B) {
	r, sw, _, d := benchSetup(b, 2048, 6, 3)
	s := ring.NewSampler(r, 2)
	full := r.DBasis(r.NumQ - 1)
	sk := s.Ternary(full)
	evks := make([]*Evk, 8)
	for i := range evks {
		evks[i] = sw.GenEvk(s, s.Ternary(full), sk)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, evk := range evks {
			sw.KeySwitch(d, evk)
		}
	}
}

// Engine-backed benchmarks: the same switch executed as MP/DC/OC task
// graphs on a GOMAXPROCS-sized worker pool. Compare against
// BenchmarkKeySwitchN4096 for the dataflow's wall-clock effect.

func benchFusedSwitch(b *testing.B, df dataflow.Dataflow) {
	r, sw, evk, d := benchSetup(b, 4096, 6, 3)
	e := engine.New(0)
	defer e.Close()
	c0 := r.NewPoly(sw.QBasis())
	c1 := r.NewPoly(sw.QBasis())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.SwitchParallelInto(e, df, d, evk, c0, c1)
	}
}

func BenchmarkSwitchParallelMPN4096(b *testing.B) { benchFusedSwitch(b, dataflow.MP) }
func BenchmarkSwitchParallelDCN4096(b *testing.B) { benchFusedSwitch(b, dataflow.DC) }
func BenchmarkSwitchParallelOCN4096(b *testing.B) { benchFusedSwitch(b, dataflow.OC) }

// Hoisted benchmarks: 8 switches of one input with shared ModUp,
// engine-backed. Compare BenchmarkSwitchHoistedParallel8 against
// BenchmarkSwitchParallel8Individual for the measured amortization
// (the model predicts HoistedSpeedupModel(8)).

func benchHoistedSetup(b *testing.B) (*ring.Ring, *Switcher, []*Evk, *ring.Poly) {
	b.Helper()
	r, sw, _, d := benchSetup(b, 4096, 6, 3)
	s := ring.NewSampler(r, 2)
	full := r.DBasis(r.NumQ - 1)
	sk := s.Ternary(full)
	evks := make([]*Evk, 8)
	for i := range evks {
		evks[i] = sw.GenEvk(s, s.Ternary(full), sk)
	}
	return r, sw, evks, d
}

func BenchmarkSwitchHoistedParallel8(b *testing.B) {
	r, sw, evks, d := benchHoistedSetup(b)
	e := engine.New(0)
	defer e.Close()
	c0s := make([]*ring.Poly, len(evks))
	c1s := make([]*ring.Poly, len(evks))
	for i := range c0s {
		c0s[i] = r.NewPoly(sw.QBasis())
		c1s[i] = r.NewPoly(sw.QBasis())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.SwitchHoistedParallelInto(e, dataflow.MP, d, evks, c0s, c1s)
	}
}

func BenchmarkSwitchParallel8Individual(b *testing.B) {
	r, sw, evks, d := benchHoistedSetup(b)
	e := engine.New(0)
	defer e.Close()
	c0 := r.NewPoly(sw.QBasis())
	c1 := r.NewPoly(sw.QBasis())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, evk := range evks {
			sw.SwitchParallelInto(e, dataflow.MP, d, evk, c0, c1)
		}
	}
}
