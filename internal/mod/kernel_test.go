package mod_test

import (
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/mod"
	"ciflow/internal/ntt"
	"ciflow/internal/ring"
)

// TestSwitchAgreesAcrossKernels is the end-to-end equivalence of the
// two kernel bodies: the same seeded ring, keys and input are built and
// key-switched through hks.SwitchParallelInto under MP, DC and OC once
// per body, and every output polynomial must be word-identical. The
// ring is built inside the loop because an ntt.Table picks its body at
// construction, and the test lives in this package because the switch
// between the bodies is its unexported variable. The operation counts the benchmark reports as exact are
// a function of the shape alone and are pinned to their values before
// the vector lane existed. Run under -race this is also the check that
// the assembly shares nothing between concurrent tiles.
func TestSwitchAgreesAcrossKernels(t *testing.T) {
	dataflows := []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC}
	var want []*ring.Poly
	mod.EachKernel(t, func(t *testing.T) {
		r, err := ring.NewRingGenerated(1<<10, 4, 40, 2, 41)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := hks.NewSwitcher(r, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if bf, up, all := ntt.ButterflyOps(r.N), sw.ModUpOps(), sw.SwitchOps(); bf != 5120 || up != 225280 || all != 528384 {
			t.Errorf("butterflies %d, ModUp ops %d, switch ops %d; want 5120, 225280, 528384", bf, up, all)
		}
		s := ring.NewSampler(r, 1)
		full := r.DBasis(r.NumQ - 1)
		evk := sw.GenEvk(s, s.Ternary(full), s.Ternary(full))
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		e := engine.New(2)
		defer e.Close()
		var got []*ring.Poly
		for _, df := range dataflows {
			c0, c1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
			sw.SwitchParallelInto(e, df, d, evk, c0, c1)
			got = append(got, c0, c1)
		}
		if want == nil {
			want = got
			return
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s output %d under %s differs from the %s body's", dataflows[i/2], i%2, mod.Kernel(), mod.KernelGeneric)
			}
		}
	})
}
