package hks

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/params"
	"ciflow/internal/ring"
)

// testSetup returns a ring plus secrets sampled over the full D basis.
func testSetup(t testing.TB, n, numQ, qBits, numP, pBits int) (*ring.Ring, *ring.Sampler, *ring.Poly, *ring.Poly) {
	t.Helper()
	r, err := ring.NewRingGenerated(n, numQ, qBits, numP, pBits)
	if err != nil {
		t.Fatal(err)
	}
	s := ring.NewSampler(r, 1)
	full := r.DBasis(r.NumQ - 1)
	sOld := s.Ternary(full)
	sNew := s.Ternary(full)
	return r, s, sOld, sNew
}

// keySwitchError returns ‖c0 + c1·sNew − d·sOld‖∞ over B_ℓ.
func keySwitchError(r *ring.Ring, sw *Switcher, d, c0, c1, sOld, sNew *ring.Poly) *big.Int {
	b := sw.QBasis()
	sN := sOld.SubPoly(b).Copy()
	sW := sNew.SubPoly(b).Copy()
	r.NTT(sN)
	r.NTT(sW)

	want := r.NewPoly(b)
	r.MulCoeffwise(d, sN, want) // d·sOld

	got := r.NewPoly(b)
	r.MulCoeffwise(c1, sW, got) // c1·sNew
	r.Add(got, c0, got)

	diff := r.NewPoly(b)
	r.Sub(got, want, diff)
	r.INTT(diff)
	return r.InfNorm(diff)
}

// refKeySwitch is paper Figure 1 on whole polynomials — INTT, Convert,
// NTT and bypass assembly per digit, a multiply-add per digit,
// ConvertExact and the P⁻¹ scaling per output — with no tiles, pooling
// or timing. It was the serial path before every entry point ran the
// one tile set, and stays here as the oracle outside the
// implementation: the want side of the equivalence suites, the way
// refForward/refInverse stand beside the lazy NTT.
func refKeySwitch(sw *Switcher, d *ring.Poly, evk *Evk) (c0, c1 *ring.Poly) {
	r := sw.R
	acc := [2]*ring.Poly{r.NewPoly(sw.dBasis), r.NewPoly(sw.dBasis)}
	acc[0].IsNTT, acc[1].IsNTT = true, true
	for j, dg := range sw.digits {
		dj := d.SubPoly(dg)
		coeff := dj.Copy()
		r.INTT(coeff)
		conv := r.NewPoly(sw.upConv[j].Dst())
		sw.upConv[j].Convert(coeff, conv)
		r.NTT(conv)
		up := r.NewPoly(sw.dBasis)
		up.IsNTT = true
		for i, t := range sw.dBasis {
			src := conv.Tower(t)
			if dg.Contains(t) {
				src = dj.Tower(t)
			}
			copy(up.Coeffs[i], src)
		}
		r.MulAddCoeffwise(up, evk.B[j], acc[0])
		r.MulAddCoeffwise(up, evk.A[j], acc[1])
	}
	var out [2]*ring.Poly
	for p, c := range acc {
		pPart := c.SubPoly(sw.pBasis).Copy()
		r.INTT(pPart)
		conv := r.NewPoly(sw.qBasis)
		sw.downConv.ConvertExact(pPart, conv)
		r.NTT(conv)
		out[p] = r.NewPoly(sw.qBasis)
		out[p].IsNTT = true
		for i, t := range sw.qBasis {
			m := r.Mods[t]
			for k, x := range c.Coeffs[i] {
				out[p].Coeffs[i][k] = m.Mul(m.Sub(x, conv.Coeffs[i][k]), sw.pInvModQ[i])
			}
		}
	}
	return out[0], out[1]
}

// goldenCases is the fixed-seed table behind testdata/keyswitch.golden:
// dnum 1–4, the uneven-digit and α=1 shapes, the 60/61-bit rings of
// TestWideModuliAllPathsAgree, and rows wider than the NTT's L1 block:
// the benchmark's shape (N = 2^13, 6 × 40-bit Q and 3 × 41-bit P towers
// at level 5) for both of its dnums, and an N = 2^16 ring.
var goldenCases = []struct {
	name                        string
	n, numQ, qBits, numP, pBits int
	level, dnum                 int
}{
	{"dnum1", 64, 2, 30, 3, 31, 1, 1},
	{"dnum2", 64, 4, 30, 2, 31, 3, 2},
	{"dnum3", 32, 6, 30, 2, 31, 5, 3},
	{"dnum4_alpha1", 64, 4, 30, 1, 31, 3, 4},
	{"uneven_digits", 64, 5, 30, 3, 31, 4, 2},
	{"wide_dnum2", 64, 4, 60, 2, 61, 3, 2},
	{"wide_dnum4_alpha1", 64, 4, 60, 1, 61, 3, 4},
	{"wide_uneven_digits", 32, 5, 60, 3, 61, 4, 2},
	{"bench_dnum3", 1 << 13, 6, 40, 3, 41, 5, 3},
	{"bench_dnum2", 1 << 13, 6, 40, 3, 41, 5, 2},
	{"n65536_dnum2", 1 << 16, 3, 40, 2, 41, 2, 2},
}

// switchDigest is SHA-256 of WritePoly(c0)‖WritePoly(c1), in hex.
func switchDigest(t *testing.T, r *ring.Ring, c0, c1 *ring.Poly) string {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range []*ring.Poly{c0, c1} {
		if err := r.WritePoly(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestKeySwitchGolden pins every execution path, with the key dense and
// compressed, to output digests recorded with the whole-polynomial
// serial KeySwitch of the commit before the pipelines were unified (the
// bench_* and n65536 rows with the stage-by-stage NTT and the separate
// ŷ and P⁻¹ scale passes, before the transform was blocked). The
// paths share one tile set, so agreeing with each other (or with
// refKeySwitch, which shares their kernels) cannot show that a change
// moved all of them together; a recorded vector can.
func TestKeySwitchGolden(t *testing.T) {
	f, err := os.Open("testdata/keyswitch.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			golden[name] = digest
		}
	}
	e := engine.New(4)
	defer e.Close()
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := golden[tc.name]
			if !ok {
				t.Fatalf("no golden digest for %s", tc.name)
			}
			r, s, sOld, sNew := testSetup(t, tc.n, tc.numQ, tc.qBits, tc.numP, tc.pBits)
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			evk := sw.GenEvk(s, sOld, sNew)
			d := s.Uniform(sw.QBasis())
			d.IsNTT = true
			check := func(path string, c0, c1 *ring.Poly) {
				t.Helper()
				if got := switchDigest(t, r, c0, c1); got != want {
					t.Errorf("%s digest %s, golden %s", path, got, want)
				}
			}
			for _, kf := range keyForms(t, evk) {
				c0, c1 := sw.KeySwitch(d, kf.key)
				check(kf.name+" serial", c0, c1)
				for _, df := range []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC, dataflow.OCF} {
					c0, c1 = switchParallel(sw, e, df, d, kf.key)
					check(kf.name+" "+df.String(), c0, c1)
					c0, c1 = replayParallel(sw, e, df, d, kf.key)
					check(kf.name+" "+df.String()+" hoisted", c0, c1)
				}
				for _, workers := range []int{1, 2, 4} {
					ew := engine.New(workers)
					c0, c1 = replayParallel(sw, ew, dataflow.OC, d, kf.key)
					ew.Close()
					check(fmt.Sprintf("%s hoisted/%d workers", kf.name, workers), c0, c1)
				}
			}
		})
	}
}

func TestNewSwitcherValidation(t *testing.T) {
	r, _, _, _ := testSetup(t, 32, 4, 30, 2, 31)
	if _, err := NewSwitcher(r, -1, 1); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := NewSwitcher(r, 4, 1); err == nil {
		t.Error("level beyond chain accepted")
	}
	if _, err := NewSwitcher(r, 3, 0); err == nil {
		t.Error("dnum 0 accepted")
	}
	if _, err := NewSwitcher(r, 3, 5); err == nil {
		t.Error("dnum > towers accepted")
	}
	// dnum=1 makes the single digit product Q ≈ 2^120 > P ≈ 2^62.
	if _, err := NewSwitcher(r, 3, 1); err == nil {
		t.Error("P < digit product accepted")
	}
	rNoP, err := ring.NewRingGenerated(32, 4, 30, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSwitcher(rNoP, 3, 2); err == nil {
		t.Error("ring without P towers accepted")
	}
}

func TestDigitPartition(t *testing.T) {
	r, _, _, _ := testSetup(t, 32, 5, 30, 3, 31)
	sw, err := NewSwitcher(r, 4, 2) // 5 towers, dnum=2 -> alpha=3: digits {0,1,2},{3,4}
	if err != nil {
		t.Fatal(err)
	}
	if sw.Alpha != 3 {
		t.Fatalf("alpha = %d, want 3", sw.Alpha)
	}
	dg := sw.Digits()
	if len(dg) != 2 || len(dg[0]) != 3 || len(dg[1]) != 2 {
		t.Fatalf("digit partition %v", dg)
	}
	// Digits must tile B_ℓ exactly.
	seen := map[int]bool{}
	for _, d := range dg {
		for _, tw := range d {
			if seen[tw] {
				t.Fatalf("tower %d in two digits", tw)
			}
			seen[tw] = true
		}
	}
	for _, tw := range sw.QBasis() {
		if !seen[tw] {
			t.Fatalf("tower %d not covered by digits", tw)
		}
	}
}

// TestDigitPartitionMatchesModel: the digit partition is stated twice —
// params.Benchmark.DigitWidths, which the dataflow plan walks, and
// digitLo/digitHi, which the tiles index rows by. The engine runs the
// plan's tiles on the tiles' rows, so the two must agree for every
// (ℓ, dnum) NewSwitcher accepts, and the model must refuse what
// NewSwitcher refuses (a digit count that leaves a digit empty).
func TestDigitPartitionMatchesModel(t *testing.T) {
	r, _, _, _ := testSetup(t, 32, 12, 30, 12, 31)
	for ell := 1; ell <= 12; ell++ {
		for dnum := 1; dnum <= ell; dnum++ {
			b := params.Benchmark{Name: "hks", LogN: 5, KL: ell, KP: 12, Dnum: dnum}
			sw, err := NewSwitcher(r, ell-1, dnum)
			if (err == nil) != (b.Validate() == nil) {
				t.Fatalf("ℓ=%d dnum=%d: NewSwitcher says %v, params.Validate says %v", ell, dnum, err, b.Validate())
			}
			if err != nil {
				continue
			}
			if sw.plans[dataflow.MP].Bench != b {
				t.Fatalf("ℓ=%d dnum=%d: the switcher plans shape %+v", ell, dnum, sw.plans[dataflow.MP].Bench)
			}
			for j, w := range b.DigitWidths() {
				if got := sw.digitHi(j) - sw.digitLo(j); got != w || sw.Alpha != b.Alpha() {
					t.Fatalf("ℓ=%d dnum=%d digit %d: %d towers on the engine, %d in the model", ell, dnum, j, got, w)
				}
			}
		}
	}
}

func TestModUpBypass(t *testing.T) {
	r, s, _, _ := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	ups := sw.ModUp(d)
	if len(ups) != 2 {
		t.Fatalf("got %d ModUp outputs, want 2", len(ups))
	}
	for j, up := range ups {
		if !up.Basis.Equal(sw.DBasis()) {
			t.Fatalf("digit %d output basis %v", j, up.Basis)
		}
		if !up.IsNTT {
			t.Fatalf("digit %d output not in NTT domain", j)
		}
		// Bypass: towers inside the digit are copied verbatim.
		for _, tw := range sw.Digits()[j] {
			src := d.Tower(tw)
			dst := up.Tower(tw)
			for k := range src {
				if src[k] != dst[k] {
					t.Fatalf("digit %d tower %d not bypassed", j, tw)
				}
			}
		}
	}
}

func TestKeySwitchCorrectness(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		n, numQ, qBits, numP, pBits int
		level, dnum                 int
	}{
		{"dnum2", 64, 4, 30, 2, 31, 3, 2},
		{"dnum4_alpha1", 64, 4, 30, 1, 31, 3, 4},
		{"dnum1_single_digit", 64, 2, 30, 3, 31, 1, 1}, // BTS1-style: no Reduce stage
		{"lower_level", 64, 6, 30, 2, 31, 3, 2},
		{"uneven_digits", 64, 5, 30, 3, 31, 4, 2}, // alpha=3: digits of 3 and 2 towers
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, s, sOld, sNew := testSetup(t, tc.n, tc.numQ, tc.qBits, tc.numP, tc.pBits)
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			evk := sw.GenEvk(s, sOld, sNew)
			d := s.Uniform(sw.QBasis())
			d.IsNTT = true
			c0, c1 := sw.KeySwitch(d, evk)
			errNorm := keySwitchError(r, sw, d, c0, c1, sOld, sNew)
			if errNorm.Cmp(new(big.Int).Lsh(big.NewInt(1), 20)) > 0 {
				t.Fatalf("key-switch error too large: %v", errNorm)
			}
			if errNorm.Sign() == 0 {
				t.Fatal("key-switch error exactly zero: suspicious (noise missing)")
			}
		})
	}
}

func TestKeySwitchSameKeyIsNearIdentity(t *testing.T) {
	// Switching from s to s itself must approximately preserve d·s.
	r, s, sOld, _ := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sOld)
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	c0, c1 := sw.KeySwitch(d, evk)
	errNorm := keySwitchError(r, sw, d, c0, c1, sOld, sOld)
	if errNorm.Cmp(new(big.Int).Lsh(big.NewInt(1), 20)) > 0 {
		t.Fatalf("identity switch error too large: %v", errNorm)
	}
}

func TestEvkSize(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	// dnum × 2 × N × (ℓ+K) residues × 8 bytes.
	want := 2 * 2 * 64 * (4 + 2) * 8
	if got := evk.SizeBytes(); got != want {
		t.Fatalf("evk size %d, want %d", got, want)
	}
}

func TestApplyEvkLinearity(t *testing.T) {
	// ApplyEvk over the sum of two ModUp digit sets equals the sum of
	// the individual applications (P4/P5 is bilinear).
	r, s, sOld, sNew := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	mkUps := func(seed int64) []*ring.Poly {
		sp := ring.NewSampler(r, seed)
		ups := make([]*ring.Poly, sw.Dnum)
		for j := range ups {
			ups[j] = sp.Uniform(sw.DBasis())
			ups[j].IsNTT = true
		}
		return ups
	}
	u1 := mkUps(10)
	u2 := mkUps(11)
	sum := make([]*ring.Poly, sw.Dnum)
	for j := range sum {
		sum[j] = r.NewPoly(sw.DBasis())
		r.Add(u1[j], u2[j], sum[j])
	}
	a0, a1 := sw.ApplyEvk(u1, evk)
	b0, b1 := sw.ApplyEvk(u2, evk)
	s0, s1 := sw.ApplyEvk(sum, evk)
	w0 := r.NewPoly(sw.DBasis())
	w1 := r.NewPoly(sw.DBasis())
	r.Add(a0, b0, w0)
	r.Add(a1, b1, w1)
	if !s0.Equal(w0) || !s1.Equal(w1) {
		t.Fatal("ApplyEvk is not linear")
	}
}

func TestModDownDomainChecks(t *testing.T) {
	r, s, _, _ := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := s.Uniform(sw.QBasis()) // wrong basis
	bad.IsNTT = true
	defer func() {
		if recover() == nil {
			t.Fatal("ModDown accepted wrong basis")
		}
	}()
	sw.ModDown(bad)
}

func TestKeySwitchErrorScalesWithDnum(t *testing.T) {
	// More digits means smaller digit products and (for fixed P) less
	// ModUp noise per digit but more accumulation terms; in all
	// configurations the error stays far below q_0. This guards the
	// noise model rather than an exact value.
	r, s, sOld, sNew := testSetup(t, 64, 6, 30, 3, 31)
	for _, dnum := range []int{2, 3, 6} {
		sw, err := NewSwitcher(r, 5, dnum)
		if err != nil {
			t.Fatalf("dnum=%d: %v", dnum, err)
		}
		evk := sw.GenEvk(s, sOld, sNew)
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		c0, c1 := sw.KeySwitch(d, evk)
		errNorm := keySwitchError(r, sw, d, c0, c1, sOld, sNew)
		if errNorm.Cmp(new(big.Int).Lsh(big.NewInt(1), 22)) > 0 {
			t.Fatalf("dnum=%d error %v exceeds bound", dnum, errNorm)
		}
	}
}
