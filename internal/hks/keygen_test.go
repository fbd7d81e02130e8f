package hks

import (
	"testing"

	"ciflow/internal/ring"
)

// genEvkSerial is GenEvk as it was before the tower tasks: the whole
// key on the caller, digit by digit over whole polynomials. It stays
// here verbatim as the oracle GenEvk's bits are held to.
func genEvkSerial(sw *Switcher, sampler *ring.Sampler, sOld, sNew *ring.Poly) *Evk {
	r := sw.R
	sNewD := sNew.SubPoly(sw.dBasis).Copy()
	sOldD := sOld.SubPoly(sw.dBasis).Copy()
	r.NTT(sNewD)
	r.NTT(sOldD)

	evk := &Evk{}
	for j := 0; j < sw.Dnum; j++ {
		seed := sampler.NewSeed()
		a := r.UniformFromSeed(sw.dBasis, seed)
		a.IsNTT = true // uniform residues are uniform in either domain
		e := sampler.Gaussian(sw.dBasis)
		r.NTT(e)

		// b = -a·sNew + e + w_j ⊙ sOld  over D_ℓ.
		b := r.NewPoly(sw.dBasis)
		b.IsNTT = true
		r.MulCoeffwise(a, sNewD, b)
		r.Sub(e, b, b) // b = e - a·sNew
		ws := r.NewPoly(sw.dBasis)
		r.MulTowerScalars(sOldD, sw.gadget[j], ws)
		r.Add(b, ws, b)

		evk.B = append(evk.B, b)
		evk.A = append(evk.A, a)
		evk.Seeds = append(evk.Seeds, seed)
	}
	return evk
}

// TestGenEvkMatchesSerial holds GenEvk to the serial oracle on every
// golden shape, a dnum-1 shape below the top level (so D_ℓ skips Q
// towers the secrets carry) and a dnum-4 shape, both over 40-bit
// moduli at N = 2^12: every seed and every residue of both halves
// equal, the sampler left where the oracle left it, and the compressed
// form expanding back to the dense key.
func TestGenEvkMatchesSerial(t *testing.T) {
	type shape struct {
		name                        string
		n, numQ, qBits, numP, pBits int
		level, dnum                 int
	}
	shapes := []shape{
		{"low_level_dnum1", 1 << 12, 6, 40, 3, 41, 2, 1},
		{"dnum4", 1 << 12, 8, 40, 3, 41, 7, 4},
	}
	for _, tc := range goldenCases {
		shapes = append(shapes, shape(tc))
	}
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			r, _, sOld, sNew := testSetup(t, tc.n, tc.numQ, tc.qBits, tc.numP, tc.pBits)
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			s, oracle := ring.NewSampler(r, 9), ring.NewSampler(r, 9)
			got, want := sw.GenEvk(s, sOld, sNew), genEvkSerial(sw, oracle, sOld, sNew)
			requireSameEvk(t, got, want)
			if a, b := s.NewSeed(), oracle.NewSeed(); a != b {
				t.Fatal("GenEvk left the sampler's stream elsewhere than the serial oracle")
			}
			c, ok := got.Compress()
			if !ok {
				t.Fatal("GenEvk's key did not compress")
			}
			requireSameEvk(t, c.Expand(r), want)
		})
	}
}

// requireSameEvk fails t unless the two keys hold the same seeds and
// the same residues, domain and basis in every digit of both halves.
func requireSameEvk(t *testing.T, got, want *Evk) {
	t.Helper()
	if len(got.B) != len(want.B) || len(got.A) != len(want.A) || len(got.Seeds) != len(want.Seeds) {
		t.Fatalf("key has %d/%d/%d digits, want %d/%d/%d", len(got.B), len(got.A), len(got.Seeds), len(want.B), len(want.A), len(want.Seeds))
	}
	for j := range want.B {
		if got.Seeds[j] != want.Seeds[j] {
			t.Fatalf("digit %d: seed differs", j)
		}
		if !got.A[j].Equal(want.A[j]) {
			t.Fatalf("digit %d: A differs", j)
		}
		if !got.B[j].Equal(want.B[j]) {
			t.Fatalf("digit %d: B differs", j)
		}
	}
}

// BenchmarkGenEvk prices one key at the benchmark's shape (N = 2^13,
// 6 × 40-bit Q and 3 × 41-bit P towers, level 5, dnum 3): GenEvk's
// tower tasks on engine.Default() beside the serial oracle.
func BenchmarkGenEvk(b *testing.B) {
	r, _, sOld, sNew := testSetup(b, 1<<13, 6, 40, 3, 41)
	sw, err := NewSwitcher(r, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	s := ring.NewSampler(r, 9)
	b.Run("towers", func(b *testing.B) {
		for b.Loop() {
			sw.GenEvk(s, sOld, sNew)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for b.Loop() {
			genEvkSerial(sw, s, sOld, sNew)
		}
	})
}
