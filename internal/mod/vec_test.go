package mod

import (
	"math/big"
	"math/rand"
	"testing"
)

// accModuli are the widths the accumulate bound is tightest at: the
// largest modulus New accepts (AccTerms = 4), a 61- and a 60-bit NTT
// prime, and a 41-bit one where the bound never engages; then the
// vector lane's edges — a prime just above 2^50, which it must leave
// to the Go loops, the last NTT prime below 2^50, where its 52-bit
// lanes are fullest, and a 30-bit one.
var accModuli = []uint64{
	1<<62 - 57,
	2305843009213554689,
	1152921504606830593,
	2199023190017,
	2251799813554177,
	1125899904679937,
	1073479681,
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

// TestMulAccMatchesBig checks the accumulate kernels against math/big,
// under both bodies, at every term count from one through one past the
// permitted maximum of a 62-bit modulus (4, so 5 terms split 4+1) and
// of the vector lane (8, so 9 split 8+1), on random operands and with
// every operand at q−1, the input that drives the deferred sum to its
// bound. The 20-term case shows the split engages: twenty products of
// (2^62−58)² overflow 128 bits outright, so it can match math/big only
// if the kernels reduce every maxTerms products. The write-first forms
// start from a row of garbage and must not read it.
func TestMulAccMatchesBig(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
		const n = 67 // odd, so no block of eight divides it
		for _, q := range accModuli {
			m := New(q)
			if maxTerms := AccTerms(q); q == accModuli[0] && maxTerms != 4 {
				t.Fatalf("AccTerms(%d) = %d, want 4", q, maxTerms)
			}
			rng := rand.New(rand.NewSource(int64(q)))
			gens := map[string]func() uint64{
				"random": func() uint64 { return rng.Uint64() % q },
				"qm1":    func() uint64 { return q - 1 },
			}
			for name, gen := range gens {
				for _, terms := range []int{1, 2, 3, 4, 5, 8, 9, 20} {
					a, b := accRows(terms, n, gen), accRows(terms, n, gen)
					w := b[0][:terms]
					init := accRows(1, n, gen)[0]

					acc := append([]uint64(nil), init...)
					m.MulAccRows(acc, a, b, q)
					rows := accRows(1, n, rng.Uint64)[0]
					m.MulSumRows(rows, a, b, q)
					scalars := accRows(1, n, rng.Uint64)[0]
					m.MulSumScalars(scalars, a, w, q)
					for k := range init {
						byRow := func(j, k int) uint64 { return b[j][k] }
						if want := wantAcc(q, init[k], k, a, byRow); acc[k] != want {
							t.Fatalf("q=%d %s MulAccRows %d terms, coeff %d: got %d want %d", q, name, terms, k, acc[k], want)
						}
						if want := wantAcc(q, 0, k, a, byRow); rows[k] != want {
							t.Fatalf("q=%d %s MulSumRows %d terms, coeff %d: got %d want %d", q, name, terms, k, rows[k], want)
						}
						if want := wantAcc(q, 0, k, a, func(j, _ int) uint64 { return w[j] }); scalars[k] != want {
							t.Fatalf("q=%d %s MulSumScalars %d terms, coeff %d: got %d want %d", q, name, terms, k, scalars[k], want)
						}
					}
				}
			}
		}
	})
}

// TestMulAccScalarsMatchesGo pins the accumulating scalar MAC, under
// each body, to the Go body and to math/big: one to four terms (key
// generation adds one, BConv's exact conversion sums up to four) over a
// 40-, a 50- and a 60-bit modulus, on a row whose length leaves a
// ragged tail after the last block of eight, onto an accumulator of
// reduced residues that must be read.
func TestMulAccScalarsMatchesGo(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
		const n = 75
		for _, q := range []uint64{1099511480321, accModuli[5], accModuli[2]} {
			m := New(q)
			rng := rand.New(rand.NewSource(int64(q)))
			gen := func() uint64 { return rng.Uint64() % q }
			for terms := 1; terms <= 4; terms++ {
				a := accRows(terms, n, gen)
				w := accRows(1, terms, gen)[0]
				init := accRows(1, n, gen)[0]
				got := append([]uint64(nil), init...)
				m.MulAccScalars(got, a, w, q)
				goBody := append([]uint64(nil), init...)
				m.mulAccScalarsGo(goBody, a, w, keepAcc)
				for k := range got {
					want := wantAcc(q, init[k], k, a, func(j, _ int) uint64 { return w[j] })
					if got[k] != goBody[k] || got[k] != want {
						t.Fatalf("q=%d, %d terms, coeff %d: got %d, Go body %d, math/big %d", q, terms, k, got[k], goBody[k], want)
					}
				}
			}
		}
	})
}

// TestMulAccWideOperand covers BConv's case: the a rows are residues
// of a *larger* modulus than the one reduced by, bounded by the
// maxOperand the caller states. A 62-bit source is beyond the vector
// lane whatever the destination, so the operand bound alone must keep
// it on the Go loops; a source just below 2^50 is the widest the lane
// takes, and where the host has the lane it must take it.
func TestMulAccWideOperand(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
		const n = 33
		for _, tc := range []struct {
			src, dst uint64
			lane     bool
		}{
			{accModuli[0], accModuli[3], false},
			{accModuli[5], accModuli[6], true},
		} {
			m := New(tc.dst)
			vec, maxTerms := m.accBody(tc.src)
			if want := tc.lane && Kernel() == KernelVector; vec != want {
				t.Fatalf("%d→%d under %s: vector body %v, want %v", tc.src, tc.dst, Kernel(), vec, want)
			}
			for terms := 1; terms <= min(maxTerms, vecTerms)+2; terms++ {
				a := accRows(terms, n, func() uint64 { return tc.src - 1 })
				w := accRows(1, terms, func() uint64 { return tc.dst - 1 })[0]
				got := accRows(1, n, func() uint64 { return tc.dst - 1 })[0]
				m.MulSumScalars(got, a, w, tc.src)
				for k := range got {
					if want := wantAcc(tc.dst, 0, k, a, func(j, _ int) uint64 { return w[j] }); got[k] != want {
						t.Fatalf("%d→%d, %d terms, coeff %d: got %d want %d", tc.src, tc.dst, terms, k, got[k], want)
					}
				}
			}
		}
	})
}

// TestMulAccShortRowPanics pins the bounds check of both bodies: a row
// shorter than the accumulator is a panic, not a read past its end.
func TestMulAccShortRowPanics(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
		const n = 16
		q := accModuli[3]
		m := New(q)
		long, short := accRows(2, n, func() uint64 { return 1 }), accRows(2, n-1, func() uint64 { return 1 })
		dst := make([]uint64, n)
		for name, f := range map[string]func(){
			"MulAccRows a":    func() { m.MulAccRows(dst, [][]uint64{long[0], short[0]}, long, q) },
			"MulSumRows b":    func() { m.MulSumRows(dst, long, [][]uint64{long[0], short[0]}, q) },
			"MulSumRows rows": func() { m.MulSumRows(dst, long, long[:1], q) },
			"MulSumScalars a": func() { m.MulSumScalars(dst, [][]uint64{long[0], short[0]}, long[0][:2], q) },
			"MulSumScalars w": func() { m.MulSumScalars(dst, long, long[0][:1], q) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a short operand did not panic", name)
					}
				}()
				f()
			}()
		}
	})
}

// TestShoupRows checks the two constant multiplies against Mul. A
// MulShoupRow input need not be reduced: rows of arbitrary words (the
// all-ones word among them) and of lazy values up to 4q−1 must both
// come out exact under either body. Where the vector lane serves the
// modulus it takes every word below 2^52 — the whole lazy row — and
// hands over to the Go loop at the first block of eight holding a
// wider one.
func TestShoupRows(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
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
			lazy := accRows(1, n, func() uint64 { return rng.Uint64() % (4 * q) })[0]
			lazy[0] = 4*q - 1
			late := append([]uint64(nil), lazy...) // one wide word, in the third block
			late[20] = 1 << 52

			diff := make([]uint64, n)
			m.SubMulShoupRow(diff, a, b, w, ws)
			for k := range diff {
				if want := m.Mul(m.Sub(a[k], b[k]), w); diff[k] != want {
					t.Fatalf("q=%d SubMulShoupRow[%d] = %d, want %d", q, k, diff[k], want)
				}
			}
			for name, in := range map[string][]uint64{"any word": anyWord, "lazy": lazy, "late wide word": late} {
				scaled := make([]uint64, n)
				m.MulShoupRow(scaled, in, w, ws)
				for k := range scaled {
					if want := m.Mul(m.Reduce(in[k]), w); scaled[k] != want {
						t.Fatalf("q=%d MulShoupRow(%s)[%d] = %d, want %d", q, name, k, scaled[k], want)
					}
				}
			}
			if m.vec() {
				for _, tc := range []struct {
					in   []uint64
					want int
				}{{lazy, n}, {late, 16}, {anyWord, 0}} {
					if done := mulShoupRow52(make([]uint64, n), tc.in, w, ws>>12, q); done != tc.want {
						t.Fatalf("q=%d: the vector lane took %d coefficients, want %d", q, done, tc.want)
					}
				}
			}
		}
	})
}

// TestRowKernelsZeroAlloc pins the row kernels to zero allocations:
// callers own the row headers, and no kernel builds slices of its own.
func TestRowKernelsZeroAlloc(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
		const n = 256
		for _, q := range []uint64{accModuli[0], accModuli[3]} {
			m := New(q)
			gen := func() uint64 { return q - 1 }
			a, b := accRows(9, n, gen), accRows(9, n, gen)
			w := b[0][:9]
			ws := m.ShoupPrecomp(w[0])
			acc := make([]uint64, n)
			if allocs := testing.AllocsPerRun(10, func() {
				for terms := 1; terms <= 9; terms++ {
					m.MulAccRows(acc, a[:terms], b[:terms], q)
					m.MulSumRows(acc, a[:terms], b[:terms], q)
					m.MulSumScalars(acc, a[:terms], w[:terms], q)
					m.MulAccScalars(acc, a[:terms], w[:terms], q)
				}
				m.MulShoupRow(acc, a[0], w[0], ws)
				m.SubMulShoupRow(acc, a[0], b[0], w[0], ws)
			}); allocs != 0 {
				t.Fatalf("q=%d: row kernels allocated %.0f times per run", q, allocs)
			}
		}
	})
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
		m.MulSumRows(acc, x, y, q)
	}
}
