package bconv

import (
	"math/big"
	"math/rand"
	"testing"

	"ciflow/internal/mod"
	"ciflow/internal/ring"
)

func testRing(t *testing.T) *ring.Ring {
	t.Helper()
	r, err := ring.NewRingGenerated(32, 4, 30, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	r := testRing(t)
	if _, err := New(r, nil, r.PBasis()); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := New(r, r.QBasis(1), nil); err == nil {
		t.Error("empty destination accepted")
	}
	if _, err := New(r, r.QBasis(2), r.QBasis(1)); err == nil {
		t.Error("overlapping bases accepted")
	}
}

// exactConversion computes the RNS conversion formula with big.Int:
// Σ_i [x_i·(B/b_i)^{-1} mod b_i]·(B/b_i) mod c_j.
func exactConversion(t *testing.T, r *ring.Ring, in *ring.Poly, dst ring.Basis, j, coeff int) uint64 {
	t.Helper()
	B := r.BasisProduct(in.Basis)
	acc := new(big.Int)
	for i, ti := range in.Basis {
		bi := new(big.Int).SetUint64(r.Moduli[ti])
		bHat := new(big.Int).Div(B, bi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(bHat, bi), bi)
		y := new(big.Int).SetUint64(in.Coeffs[i][coeff])
		y.Mul(y, inv).Mod(y, bi)
		y.Mul(y, bHat)
		acc.Add(acc, y)
	}
	cj := new(big.Int).SetUint64(r.Moduli[dst[j]])
	return new(big.Int).Mod(acc, cj).Uint64()
}

func TestConvertMatchesExactFormula(t *testing.T) {
	// The wide ring converts six 62-bit towers onto 60-bit ones: the
	// ŷ operands exceed the destination modulus and only 4 products fit
	// one deferred reduction, so the accumulate must split 4+2.
	wide, err := ring.NewRingGenerated(32, 2, 60, 6, 62)
	if err != nil {
		t.Fatal(err)
	}
	small := testRing(t)
	for _, tc := range []struct {
		name     string
		r        *ring.Ring
		src, dst ring.Basis
	}{
		{"30bit_Q_to_P", small, small.QBasis(3), small.PBasis()},
		{"62bit_P_to_60bit_Q", wide, wide.PBasis(), wide.QBasis(1)},
		{"60bit_Q_to_62bit_P", wide, wide.QBasis(1), wide.PBasis()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r
			c, err := New(r, tc.src, tc.dst)
			if err != nil {
				t.Fatal(err)
			}
			if terms := mod.AccTerms(c.maxSrc); tc.src.Equal(wide.PBasis()) && terms >= len(tc.src) {
				t.Fatalf("AccTerms %d does not split %d source towers", terms, len(tc.src))
			}
			in := ring.NewSampler(r, 1).Uniform(tc.src)
			out := r.NewPoly(tc.dst)
			c.Convert(in, out)
			for j := range tc.dst {
				for k := 0; k < r.N; k++ {
					want := exactConversion(t, r, in, tc.dst, j, k)
					if out.Coeffs[j][k] != want {
						t.Fatalf("tower %d coeff %d: got %d want %d", j, k, out.Coeffs[j][k], want)
					}
				}
			}
		})
	}
}

func TestConvertExactSmallValues(t *testing.T) {
	// The exact (float-corrected) conversion maps any centered value
	// in (-B/2, B/2) to the same centered value in the destination,
	// including negatives.
	r := testRing(t)
	src := r.QBasis(2)
	dst := r.PBasis()
	c, err := New(r, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	in := r.NewPoly(src)
	vals := []int64{0, 1, 2, -1, -12345, 1 << 20, -(1 << 40), 1 << 40}
	for k, v := range vals {
		r.SetBig(in, k, big.NewInt(v))
	}
	out := r.NewPoly(dst)
	c.ConvertExact(in, out)
	for j, tj := range dst {
		m := r.Mods[tj]
		for k, v := range vals {
			var want uint64
			if v >= 0 {
				want = m.Reduce(uint64(v))
			} else {
				want = m.Sub(0, m.Reduce(uint64(-v)))
			}
			if out.Coeffs[j][k] != want {
				t.Fatalf("tower %d coeff %d: got %d want %d", j, k, out.Coeffs[j][k], want)
			}
		}
	}
}

func TestConvertExactMatchesBigCRT(t *testing.T) {
	// On uniform random inputs the exact conversion must equal the
	// centered big.Int reconstruction in every destination tower.
	r := testRing(t)
	s := ring.NewSampler(r, 11)
	src := r.QBasis(3)
	dst := r.PBasis()
	c, err := New(r, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	in := s.Uniform(src)
	out := r.NewPoly(dst)
	c.ConvertExact(in, out)
	for k := 0; k < r.N; k++ {
		x := r.ToBigCentered(in, k)
		for j, tj := range dst {
			cj := new(big.Int).SetUint64(r.Moduli[tj])
			want := new(big.Int).Mod(x, cj).Uint64()
			if out.Coeffs[j][k] != want {
				t.Fatalf("tower %d coeff %d: got %d want %d", j, k, out.Coeffs[j][k], want)
			}
		}
	}
}

func TestConvertOvershootBounded(t *testing.T) {
	// Conv(x) = x̂ + u·B with 0 ≤ u < |src|. Verify on random inputs
	// by reconstructing the converted value exactly.
	r := testRing(t)
	s := ring.NewSampler(r, 7)
	src := r.QBasis(3)
	dst := r.PBasis()
	c, err := New(r, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	in := s.Uniform(src)
	out := r.NewPoly(dst)
	c.Convert(in, out)

	B := r.BasisProduct(src)
	for k := 0; k < r.N; k++ {
		// x̂ ∈ [0, B): the non-centered representative.
		xHat := new(big.Int)
		for i, ti := range src {
			bi := new(big.Int).SetUint64(r.Moduli[ti])
			bHat := new(big.Int).Div(B, bi)
			inv := new(big.Int).ModInverse(new(big.Int).Mod(bHat, bi), bi)
			y := new(big.Int).SetUint64(in.Coeffs[i][k])
			y.Mul(y, inv).Mod(y, bi).Mul(y, bHat)
			xHat.Add(xHat, y)
		}
		u := new(big.Int).Div(xHat, B) // the exact overshoot
		if u.Cmp(big.NewInt(int64(len(src)))) >= 0 || u.Sign() < 0 {
			t.Fatalf("coeff %d: overshoot u=%v out of [0,%d)", k, u, len(src))
		}
		// And every destination tower must carry x̂ mod c_j (with the
		// same u folded in).
		for j, tj := range dst {
			cj := new(big.Int).SetUint64(r.Moduli[tj])
			want := new(big.Int).Mod(xHat, cj).Uint64()
			if out.Coeffs[j][k] != want {
				t.Fatalf("tower %d coeff %d mismatch", j, k)
			}
		}
	}
}

// refOvershoot is Overshoot as first written: one loop over the source
// towers per coefficient, through Go's unsigned conversions.
func refOvershoot(c *Converter, y [][]uint64, from, to int) {
	u := y[len(c.src)]
	for k := from; k < to; k++ {
		var v float64
		for i := range c.src {
			v += float64(y[i][k]) * c.srcInv[i]
		}
		u[k] = uint64(v + 0.5)
	}
}

// Overshoot's unrolled, int64-converting loops must write refOvershoot's
// words over 1–5 source towers at the widths on both sides of the
// shipped 40/41-bit moduli and near the 2^62 cap, with every ŷ at 0, at
// b_i − 1 or uniform, whole-row and over a chunk that starts and ends
// off a row boundary.
func TestOvershootMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, bits := range []int{40, 41, 60, 61} {
		r, err := ring.NewRingGenerated(64, 5, bits, 1, bits)
		if err != nil {
			t.Fatal(err)
		}
		for towers := 1; towers <= 5; towers++ {
			c, err := New(r, r.QBasis(towers-1), r.PBasis())
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]uint64, towers+1)
			want := make([][]uint64, towers+1)
			for i := range got {
				got[i] = make([]uint64, r.N)
				want[i] = make([]uint64, r.N)
			}
			for i, tw := range c.src {
				b := r.Moduli[tw]
				for k := range got[i] {
					// Coefficients 0 and 1 are all-zero and all-maximal
					// columns; the rest mix the three per tower.
					switch v := rng.Intn(3); {
					case k == 0 || k > 1 && v == 0:
						got[i][k] = 0
					case k == 1 || v == 1:
						got[i][k] = b - 1
					default:
						got[i][k] = rng.Uint64() % b
					}
				}
				copy(want[i], got[i])
			}
			for _, span := range [][2]int{{0, r.N}, {3, r.N - 5}} {
				clear(got[towers])
				clear(want[towers])
				c.Overshoot(got, span[0], span[1])
				refOvershoot(c, want, span[0], span[1])
				for k := range got[towers] {
					if got[towers][k] != want[towers][k] {
						t.Fatalf("%d-bit, %d towers, coefficients [%d,%d): u[%d] = %d, oracle %d",
							bits, towers, span[0], span[1], k, got[towers][k], want[towers][k])
					}
				}
			}
		}
	}
}

func TestConvertDomainChecks(t *testing.T) {
	r := testRing(t)
	s := ring.NewSampler(r, 4)
	c, err := New(r, r.QBasis(1), r.PBasis())
	if err != nil {
		t.Fatal(err)
	}
	in := s.Uniform(r.QBasis(1))
	in.IsNTT = true
	out := r.NewPoly(r.PBasis())
	defer func() {
		if recover() == nil {
			t.Fatal("NTT-domain input did not panic")
		}
	}()
	c.Convert(in, out)
}

func TestOpsCount(t *testing.T) {
	r := testRing(t)
	c, err := New(r, r.QBasis(3), r.PBasis()) // |src|=4, |dst|=2
	if err != nil {
		t.Fatal(err)
	}
	want := r.N*4 + r.N*4*2
	if got := c.Ops(); got != want {
		t.Fatalf("Ops() = %d, want %d", got, want)
	}
}
