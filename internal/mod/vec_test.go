package mod

import (
	"math/big"
	"math/rand"
	"testing"
)

// accModuli are the widths the accumulate bound is tightest at: the
// largest modulus New accepts (AccTerms = 4), a 61- and a 60-bit NTT
// prime, and a 41-bit one where the bound never engages.
var accModuli = []uint64{
	1<<62 - 57,
	2305843009213554689,
	1152921504606830593,
	2199023190017,
}

// accRows fills terms rows of n values drawn by gen.
func accRows(terms, n int, gen func() uint64) [][]uint64 {
	rows := make([][]uint64, terms)
	for j := range rows {
		rows[j] = make([]uint64, n)
		for k := range rows[j] {
			rows[j][k] = gen()
		}
	}
	return rows
}

// wantAcc is (acc + Σ_j a[j][k]·b(j,k)) mod q by math/big.
func wantAcc(q, acc uint64, k int, a [][]uint64, b func(j, k int) uint64) uint64 {
	sum := new(big.Int).SetUint64(acc)
	for j := range a {
		p := new(big.Int).SetUint64(a[j][k])
		sum.Add(sum, p.Mul(p, new(big.Int).SetUint64(b(j, k))))
	}
	return sum.Mod(sum, new(big.Int).SetUint64(q)).Uint64()
}

// TestMulAccMatchesBig checks both accumulate kernels against math/big
// at every term count from one through one past the permitted maximum
// of a 62-bit modulus (4, so 5 terms split 4+1), on random operands
// and with every operand at q−1, the input that drives the 128-bit sum
// to its bound. The 20-term case shows the split engages: twenty
// products of (2^62−58)² overflow 128 bits outright, so it can match
// math/big only if the kernels reduce every maxTerms products.
func TestMulAccMatchesBig(t *testing.T) {
	const n = 67 // odd, so no unrolled loop divides it
	for _, q := range accModuli {
		m := New(q)
		maxTerms := AccTerms(q)
		if q == accModuli[0] && maxTerms != 4 {
			t.Fatalf("AccTerms(%d) = %d, want 4", q, maxTerms)
		}
		rng := rand.New(rand.NewSource(int64(q)))
		gens := map[string]func() uint64{
			"random": func() uint64 { return rng.Uint64() % q },
			"qm1":    func() uint64 { return q - 1 },
		}
		for name, gen := range gens {
			for _, terms := range []int{1, 2, 3, 4, 5, 20} {
				a, b := accRows(terms, n, gen), accRows(terms, n, gen)
				w := b[0][:terms]
				init := accRows(1, n, gen)[0]

				rows := append([]uint64(nil), init...)
				m.MulAccRows(rows, a, b, maxTerms)
				scalars := append([]uint64(nil), init...)
				m.MulAccScalars(scalars, a, w, maxTerms)
				for k := range init {
					if want := wantAcc(q, init[k], k, a, func(j, k int) uint64 { return b[j][k] }); rows[k] != want {
						t.Fatalf("q=%d %s MulAccRows %d terms, coeff %d: got %d want %d", q, name, terms, k, rows[k], want)
					}
					if want := wantAcc(q, init[k], k, a, func(j, _ int) uint64 { return w[j] }); scalars[k] != want {
						t.Fatalf("q=%d %s MulAccScalars %d terms, coeff %d: got %d want %d", q, name, terms, k, scalars[k], want)
					}
				}
			}
		}
	}
}

// TestMulAccWideOperand covers BConv's case: the a rows are residues
// of a *larger* modulus than the one reduced by, bounded by the
// operand AccTerms was given.
func TestMulAccWideOperand(t *testing.T) {
	const n = 33
	big62, small := accModuli[0], accModuli[3]
	m := New(small)
	maxTerms := AccTerms(big62)
	for terms := 1; terms <= maxTerms+2; terms++ {
		a := accRows(terms, n, func() uint64 { return big62 - 1 })
		w := accRows(1, terms, func() uint64 { return small - 1 })[0]
		acc := accRows(1, n, func() uint64 { return small - 1 })[0]
		m.MulAccScalars(acc, a, w, maxTerms)
		for k := range acc {
			if want := wantAcc(small, small-1, k, a, func(j, _ int) uint64 { return w[j] }); acc[k] != want {
				t.Fatalf("%d terms, coeff %d: got %d want %d", terms, k, acc[k], want)
			}
		}
	}
}

func TestShoupRows(t *testing.T) {
	const n = 50
	for _, q := range accModuli {
		m := New(q)
		rng := rand.New(rand.NewSource(int64(q)))
		w := rng.Uint64() % q
		ws := m.ShoupPrecomp(w)
		a := accRows(1, n, func() uint64 { return rng.Uint64() % q })[0]
		b := accRows(1, n, func() uint64 { return rng.Uint64() % q })[0]
		a[0], b[0] = 0, q-1 // the widest difference
		a[1], b[1] = q-1, 0
		anyWord := accRows(1, n, rng.Uint64)[0] // MulShoup is exact for any word
		anyWord[0] = ^uint64(0)

		scaled := make([]uint64, n)
		m.MulShoupRow(scaled, anyWord, w, ws)
		diff := make([]uint64, n)
		m.SubMulShoupRow(diff, a, b, w, ws)
		for k := 0; k < n; k++ {
			if want := m.Mul(m.Reduce(anyWord[k]), w); scaled[k] != want {
				t.Fatalf("q=%d MulShoupRow[%d] = %d, want %d", q, k, scaled[k], want)
			}
			if want := m.Mul(m.Sub(a[k], b[k]), w); diff[k] != want {
				t.Fatalf("q=%d SubMulShoupRow[%d] = %d, want %d", q, k, diff[k], want)
			}
		}
	}
}

// TestRowKernelsZeroAlloc pins the row kernels to zero allocations:
// callers own the row headers, and no kernel builds slices of its own.
func TestRowKernelsZeroAlloc(t *testing.T) {
	const n = 256
	q := accModuli[0]
	m := New(q)
	gen := func() uint64 { return q - 1 }
	a, b := accRows(5, n, gen), accRows(5, n, gen)
	w := b[0][:5]
	ws := m.ShoupPrecomp(w[0])
	acc := make([]uint64, n)
	if allocs := testing.AllocsPerRun(10, func() {
		for terms := 1; terms <= 5; terms++ {
			m.MulAccRows(acc, a[:terms], b[:terms], AccTerms(q))
			m.MulAccScalars(acc, a[:terms], w[:terms], AccTerms(q))
		}
		m.MulShoupRow(acc, a[0], w[0], ws)
		m.SubMulShoupRow(acc, a[0], b[0], w[0], ws)
	}); allocs != 0 {
		t.Fatalf("row kernels allocated %.0f times per run", allocs)
	}
}

// BenchmarkMulAcc3 is one ApplyKey row at the benchmark shape (bench/:
// N = 2^13, dnum 3, 40-bit towers): three products per coefficient,
// one reduction.
func BenchmarkMulAcc3(b *testing.B) {
	const n = 1 << 13
	q := uint64(1099511480321)
	m := New(q)
	rng := rand.New(rand.NewSource(1))
	gen := func() uint64 { return rng.Uint64() % q }
	x, y := accRows(3, n, gen), accRows(3, n, gen)
	acc := make([]uint64, n)
	for b.Loop() {
		m.MulAccRows(acc, x, y, AccTerms(q))
	}
}
