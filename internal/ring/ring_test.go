package ring

import (
	"math"
	"math/big"
	"testing"
)

func testRing(t *testing.T) *Ring {
	t.Helper()
	r, err := NewRingGenerated(64, 4, 30, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(64, nil, nil); err == nil {
		t.Error("empty Q chain accepted")
	}
	if _, err := NewRing(64, []uint64{769, 769}, nil); err == nil {
		t.Error("duplicate moduli accepted")
	}
	if _, err := NewRing(64, []uint64{1025}, nil); err == nil {
		t.Error("composite modulus accepted")
	}
	if _, err := NewRing(64, []uint64{97}, nil); err == nil {
		t.Error("non-NTT-friendly modulus accepted")
	}
}

func TestBases(t *testing.T) {
	r := testRing(t)
	if got := r.QBasis(2); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("QBasis(2) = %v", got)
	}
	if got := r.PBasis(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("PBasis() = %v", got)
	}
	d := r.DBasis(3)
	if len(d) != 6 {
		t.Fatalf("DBasis(3) = %v", d)
	}
	if !d.Contains(5) || d.Contains(6) {
		t.Fatal("DBasis membership wrong")
	}
	if !d.Sub(0, 4).Equal(r.QBasis(3)) {
		t.Fatal("Sub-basis mismatch")
	}
}

func TestPolyAddSub(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, 1)
	b := r.DBasis(3)
	a := s.Uniform(b)
	c := s.Uniform(b)
	sum := r.NewPoly(b)
	r.Add(a, c, sum)
	diff := r.NewPoly(b)
	r.Sub(sum, c, diff)
	if !diff.Equal(a) {
		t.Fatal("(a+c)-c != a")
	}
}

func TestMulCoeffwiseMatchesBigConvolution(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, 2)
	b := r.QBasis(1)
	a := s.Gaussian(b)
	c := s.Gaussian(b)

	// Ground truth: negacyclic product over the integers via big.Int.
	n := r.N
	av := make([]*big.Int, n)
	cv := make([]*big.Int, n)
	for j := 0; j < n; j++ {
		av[j] = r.ToBigCentered(a, j)
		cv[j] = r.ToBigCentered(c, j)
	}
	want := make([]*big.Int, n)
	for j := range want {
		want[j] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := new(big.Int).Mul(av[i], cv[j])
			if i+j < n {
				want[i+j].Add(want[i+j], p)
			} else {
				want[i+j-n].Sub(want[i+j-n], p)
			}
		}
	}

	r.NTT(a)
	r.NTT(c)
	prod := r.NewPoly(b)
	r.MulCoeffwise(a, c, prod)
	r.INTT(prod)
	for j := 0; j < n; j++ {
		got := r.ToBigCentered(prod, j)
		if got.Cmp(want[j]) != 0 {
			t.Fatalf("coefficient %d: got %v want %v", j, got, want[j])
		}
	}
}

func TestMulAddCoeffwise(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, 3)
	b := r.QBasis(2)
	a := s.Uniform(b)
	c := s.Uniform(b)
	a.IsNTT, c.IsNTT = true, true
	acc := r.NewPoly(b)
	acc.IsNTT = true
	r.MulAddCoeffwise(a, c, acc)
	r.MulAddCoeffwise(a, c, acc)
	want := r.NewPoly(b)
	want.IsNTT = true
	r.MulCoeffwise(a, c, want)
	r.Add(want, want, want)
	if !acc.Equal(want) {
		t.Fatal("MulAdd twice != 2*Mul")
	}
}

func TestNTTDomainTracking(t *testing.T) {
	r := testRing(t)
	p := r.NewPoly(r.QBasis(0))
	r.NTT(p)
	if !p.IsNTT {
		t.Fatal("IsNTT not set")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double NTT did not panic")
		}
	}()
	r.NTT(p)
}

func TestSubPolyView(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, 4)
	p := s.Uniform(r.DBasis(3))
	v := p.SubPoly(r.PBasis())
	// Mutating the view mutates the parent: shared storage.
	v.Coeffs[0][0] = 12345 % r.Mods[r.NumQ].Q
	if p.Tower(r.NumQ)[0] != v.Coeffs[0][0] {
		t.Fatal("SubPoly does not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SubPoly with missing tower did not panic")
		}
	}()
	q := s.Uniform(r.QBasis(0))
	q.SubPoly(r.PBasis())
}

func TestCRTRoundTrip(t *testing.T) {
	r := testRing(t)
	b := r.DBasis(3)
	p := r.NewPoly(b)
	vals := []int64{0, 1, -1, 1 << 40, -(1 << 40), 123456789}
	for j, v := range vals {
		r.SetBig(p, j, big.NewInt(v))
	}
	for j, v := range vals {
		got := r.ToBigCentered(p, j)
		if got.Cmp(big.NewInt(v)) != 0 {
			t.Fatalf("coefficient %d: got %v want %d", j, got, v)
		}
	}
}

func TestSamplerDistributions(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, 5)
	b := r.QBasis(3)

	tern := s.Ternary(b)
	for j := 0; j < r.N; j++ {
		v := r.ToBigCentered(tern, j)
		if v.Cmp(big.NewInt(1)) > 0 || v.Cmp(big.NewInt(-1)) < 0 {
			t.Fatalf("ternary coefficient %d out of range: %v", j, v)
		}
	}

	g := s.Gaussian(b)
	norm := r.InfNorm(g)
	// 6σ tail bound with generous slack.
	if norm.Cmp(big.NewInt(int64(GaussianSigma*10))) > 0 {
		t.Fatalf("gaussian coefficient suspiciously large: %v", norm)
	}

	u := s.Uniform(b)
	for i, tw := range b {
		q := r.Mods[tw].Q
		for j := 0; j < r.N; j++ {
			if u.Coeffs[i][j] >= q {
				t.Fatal("uniform residue out of range")
			}
		}
	}
}

// TestGaussianIntsLift: Gaussian is its integer draw followed by the
// per-tower lift. Two identically seeded samplers, one drawing whole
// polynomials and one drawing integers and lifting them tower by tower,
// must agree on every residue, on the integers those residues stand
// for, and on where they leave the stream.
func TestGaussianIntsLift(t *testing.T) {
	r := testRing(t)
	b := r.DBasis(r.NumQ - 1)
	whole, split := NewSampler(r, 7), NewSampler(r, 7)
	v := make([]int64, r.N)
	for draw := 0; draw < 3; draw++ {
		want := whole.Gaussian(b)
		split.GaussianInts(v)
		got := r.NewPoly(b)
		for i, tw := range b {
			r.LiftInts(got.Coeffs[i], tw, v)
		}
		if !got.Equal(want) {
			t.Fatalf("draw %d: lifted integers differ from Gaussian", draw)
		}
		for k, x := range v {
			if c := r.ToBigCentered(want, k); c.Cmp(big.NewInt(x)) != 0 {
				t.Fatalf("draw %d, coefficient %d: Gaussian holds %v, integer draw %d", draw, k, c, x)
			}
		}
	}
	if a, b := whole.NewSeed(), split.NewSeed(); a != b {
		t.Fatal("the two samplers left the stream at different places")
	}
}

// TestLiftIntsExtremes: the lift is v mod q for every int64, not only
// the small ones a Gaussian draws — at and around ±q and at both ends
// of the range — by math/big.
func TestLiftIntsExtremes(t *testing.T) {
	r := testRing(t)
	for _, tw := range r.DBasis(r.NumQ - 1) {
		q := int64(r.Mods[tw].Q)
		v := []int64{0, 1, -1, 40, -40, q - 1, 1 - q, q, -q, q + 1, -q - 1, 3*q + 5, -3*q - 5, math.MaxInt64, math.MinInt64}
		row := make([]uint64, len(v))
		r.LiftInts(row, tw, v)
		for k, x := range v {
			want := new(big.Int).Mod(big.NewInt(x), big.NewInt(q)).Uint64()
			if row[k] != want || liftInt(uint64(q), x) != want {
				t.Fatalf("tower %d: %d lifts to %d (liftInt %d), want %d", tw, x, row[k], liftInt(uint64(q), x), want)
			}
		}
	}
}

func TestSamplerDeterminism(t *testing.T) {
	r := testRing(t)
	a := NewSampler(r, 42).Uniform(r.QBasis(2))
	b := NewSampler(r, 42).Uniform(r.QBasis(2))
	if !a.Equal(b) {
		t.Fatal("same seed produced different polynomials")
	}
}

func TestAutomorphismComposition(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, 6)
	b := r.QBasis(2)
	p := s.Uniform(b)

	// σ_k(σ_k'(p)) == σ_{kk'}(p)
	k1, k2 := 5, 25
	tmp := r.NewPoly(b)
	out1 := r.NewPoly(b)
	r.Automorphism(p, k1, tmp)
	r.Automorphism(tmp, k2, out1)
	out2 := r.NewPoly(b)
	r.Automorphism(p, k1*k2, out2)
	if !out1.Equal(out2) {
		t.Fatal("automorphisms do not compose")
	}

	// σ_1 is the identity.
	id := r.NewPoly(b)
	r.Automorphism(p, 1, id)
	if !id.Equal(p) {
		t.Fatal("sigma_1 != identity")
	}
}

func TestAutomorphismPreservesProducts(t *testing.T) {
	// σ_k is a ring homomorphism: σ(a·b) = σ(a)·σ(b).
	r := testRing(t)
	s := NewSampler(r, 7)
	b := r.QBasis(1)
	a := s.Gaussian(b)
	c := s.Gaussian(b)
	k := r.GaloisElement(3)

	prod := r.NewPoly(b)
	an, cn := a.Copy(), c.Copy()
	r.NTT(an)
	r.NTT(cn)
	r.MulCoeffwise(an, cn, prod)
	r.INTT(prod)
	sigmaProd := r.NewPoly(b)
	r.Automorphism(prod, k, sigmaProd)

	sa, sc := r.NewPoly(b), r.NewPoly(b)
	r.Automorphism(a, k, sa)
	r.Automorphism(c, k, sc)
	r.NTT(sa)
	r.NTT(sc)
	prodSigma := r.NewPoly(b)
	r.MulCoeffwise(sa, sc, prodSigma)
	r.INTT(prodSigma)

	if !sigmaProd.Equal(prodSigma) {
		t.Fatal("automorphism is not a ring homomorphism")
	}
}

func TestGaloisElement(t *testing.T) {
	r := testRing(t)
	if r.GaloisElement(0) != 1 {
		t.Fatal("rotation by 0 should be identity")
	}
	// Rotating by n/2 slots wraps to identity.
	if r.GaloisElement(r.N/2) != 1 {
		t.Fatal("full wrap should be identity")
	}
	if r.GaloisElement(1) != 5 {
		t.Fatalf("GaloisElement(1) = %d, want 5", r.GaloisElement(1))
	}
	// Negative rotation is the inverse element.
	gPos := r.GaloisElement(1)
	gNeg := r.GaloisElement(-1)
	if gPos*gNeg%(2*r.N) != 1 {
		t.Fatal("GaloisElement(-1) is not inverse of GaloisElement(1)")
	}
}

func TestMulScalar(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, 8)
	b := r.QBasis(2)
	a := s.Uniform(b)
	out := r.NewPoly(b)
	r.MulScalar(a, 3, out)
	want := r.NewPoly(b)
	r.Add(a, a, want)
	r.Add(want, a, want)
	if !out.Equal(want) {
		t.Fatal("3*a != a+a+a")
	}
	// Against Barrett, residue by residue, for scalars below, at and
	// far above the moduli, in place and not.
	for _, sc := range []uint64{0, 1, r.Moduli[0] - 1, r.Moduli[0], 1<<63 + 12345, ^uint64(0)} {
		scalars := make([]uint64, len(b))
		for i := range scalars {
			scalars[i] = sc
		}
		tower := a.Copy()
		r.MulTowerScalars(tower, scalars, tower)
		r.MulScalar(a, sc, out)
		for i, tw := range b {
			m := r.Mods[tw]
			for j, v := range a.Coeffs[i] {
				if w := m.Mul(v, m.Reduce(sc)); out.Coeffs[i][j] != w || tower.Coeffs[i][j] != w {
					t.Fatalf("scalar %d tower %d coeff %d: MulScalar %d, MulTowerScalars %d, Barrett %d",
						sc, tw, j, out.Coeffs[i][j], tower.Coeffs[i][j], w)
				}
			}
		}
	}
}

// TestGaloisHelpersMatchOldFormulas pins Automorphism, which advances
// its exponent per coefficient, to the per-coefficient (j·k) mod 2N it
// replaced for every odd exponent, and GaloisElement, which squares and
// multiplies, to rot multiplications by 5 for every rotation, at
// N = 2^10.
func TestGaloisHelpersMatchOldFormulas(t *testing.T) {
	r, err := NewRingGenerated(1<<10, 2, 30, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	b := r.QBasis(1)
	p := NewSampler(r, 3).Uniform(b)
	got, want := r.NewPoly(b), r.NewPoly(b)
	twoN := 2 * r.N
	for k := 1; k < twoN; k += 2 {
		r.Automorphism(p, k, got)
		for i, tw := range b {
			m := r.Mods[tw]
			for j := 0; j < r.N; j++ {
				e, v := (j*k)%twoN, p.Coeffs[i][j]
				if e >= r.N {
					e, v = e-r.N, m.Neg(v)
				}
				want.Coeffs[i][e] = v
			}
		}
		if !got.Equal(want) {
			t.Fatalf("Automorphism(k=%d) differs from (j·k) mod 2N", k)
		}
	}
	for rot := -r.N; rot <= r.N; rot++ {
		n2 := r.N / 2
		g := 1
		for range ((rot % n2) + n2) % n2 {
			g = (g * 5) % twoN
		}
		if got := r.GaloisElement(rot); got != g {
			t.Fatalf("GaloisElement(%d) = %d, want %d", rot, got, g)
		}
	}
}

// TestAutomorphismNTTMatchesCoefficient holds NTT∘Automorphism equal to
// AutomorphismNTT∘NTT for every Galois element a key chain uses: at
// N = 2^10 every odd exponent (every rotation and the conjugation
// 2N−1 among them), at N = 2^13 rotations ±1…±8, ±2^i and 2N−1.
func TestAutomorphismNTTMatchesCoefficient(t *testing.T) {
	for _, logN := range []int{10, 13} {
		r, err := NewRingGenerated(1<<logN, 2, 40, 1, 41)
		if err != nil {
			t.Fatal(err)
		}
		var ks []int
		if logN == 10 {
			for k := 1; k < 2*r.N; k += 2 {
				ks = append(ks, k)
			}
		} else {
			for rot := 1; rot <= 8; rot++ {
				ks = append(ks, r.GaloisElement(rot), r.GaloisElement(-rot))
			}
			for rot := 16; rot < r.N/2; rot *= 2 {
				ks = append(ks, r.GaloisElement(rot), r.GaloisElement(-rot))
			}
			ks = append(ks, 2*r.N-1)
		}
		b := r.DBasis(r.NumQ - 1)
		p := NewSampler(r, 4).Uniform(b)
		pN := p.Copy()
		r.NTT(pN)
		want, got := r.NewPoly(b), r.NewPoly(b)
		for _, k := range ks {
			r.Automorphism(p, k, want)
			r.NTT(want)
			r.AutomorphismNTT(pN, k, got)
			if !got.IsNTT || !got.Equal(want) {
				t.Fatalf("N=2^%d, k=%d: AutomorphismNTT∘NTT differs from NTT∘Automorphism", logN, k)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { r.AutomorphismNTT(pN, ks[0], got) }); allocs != 0 {
			t.Fatalf("AutomorphismNTT allocates %v times", allocs)
		}
	}
}

// BenchmarkLiftInts lifts one N = 2^13 row of Gaussian integers into a
// 40-bit tower.
func BenchmarkLiftInts(b *testing.B) {
	r, err := NewRingGenerated(1<<13, 1, 40, 1, 41)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]int64, r.N)
	NewSampler(r, 1).GaussianInts(v)
	row := make([]uint64, r.N)
	for b.Loop() {
		r.LiftInts(row, 0, v)
	}
}

// BenchmarkAutomorphismNTT permutes a transformed polynomial of nine
// N = 2^13 towers, the secret a rotation key is generated from.
func BenchmarkAutomorphismNTT(b *testing.B) {
	r, err := NewRingGenerated(1<<13, 6, 40, 3, 41)
	if err != nil {
		b.Fatal(err)
	}
	basis := r.DBasis(r.NumQ - 1)
	p := NewSampler(r, 1).Uniform(basis)
	p.IsNTT = true
	out := r.NewPoly(basis)
	k := r.GaloisElement(-7)
	for b.Loop() {
		r.AutomorphismNTT(p, k, out)
	}
}
