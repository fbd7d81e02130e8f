package mod

import (
	"math"
	"math/bits"
)

// Row kernels. A key switch spends its time in three loops over
// length-N residue rows: NTT butterflies (internal/ntt), the
// multiply-accumulate under BConv and ApplyKey, and multiplies by a
// per-tower constant. The latter two live here so that every schedule
// above (serial, MP/DC/OC, hoisted, streamed) runs the same loop.
//
// The multiply-accumulate defers reduction: products are summed as
// 128-bit integers and reduced once per coefficient, instead of one
// Barrett Mul and one reducing Add per term. Reduce128 needs the high
// word of the sum below q. With acc < q, every a_j below some bound B
// and every b_j < q, a sum of T products stays below q·2^64 as long as
// T·B ≤ 2^64, so callers bound T by AccTerms(B) at construction and
// the kernels reduce every maxTerms products. For moduli below 2^62
// that is at least 4 terms; for the 30–41-bit moduli of every shipped
// shape it is millions, so each coefficient is reduced exactly once.

// AccTerms returns ⌊2^64 / maxOperand⌋, the number of products a·b
// with a < maxOperand and b < q that MulAccRows and MulAccScalars may
// sum on top of a reduced accumulator before reducing modulo q.
// maxOperand must be at least 2.
func AccTerms(maxOperand uint64) int {
	n, _ := bits.Div64(1, 0, maxOperand)
	return int(min(n, math.MaxInt32))
}

// mac adds x·y to the 128-bit accumulator hi:lo.
func mac(hi, lo, x, y uint64) (uint64, uint64) {
	ph, pl := bits.Mul64(x, y)
	lo, c := bits.Add64(lo, pl, 0)
	hi, _ = bits.Add64(hi, ph, c)
	return hi, lo
}

// MulAccRows sets acc[k] = (acc[k] + Σ_j a[j][k]·b[j][k]) mod q for
// every k, reducing once per maxTerms products (see AccTerms). acc
// and the b rows must be reduced modulo q; the a rows must be below
// the operand bound maxTerms was derived from. This is the ApplyKey
// primitive: a are the ModUp digits, b the evaluation-key digits.
func (m Modulus) MulAccRows(acc []uint64, a, b [][]uint64, maxTerms int) {
	for len(a) > maxTerms {
		m.mulAccRows(acc, a[:maxTerms], b[:maxTerms])
		a, b = a[maxTerms:], b[maxTerms:]
	}
	m.mulAccRows(acc, a, b)
}

// mulAccRows is MulAccRows for a term count Reduce128 can absorb. The
// one- to three-term bodies keep the row headers in registers; they
// cover every digit count and digit width the shipped shapes use.
func (m Modulus) mulAccRows(acc []uint64, a, b [][]uint64) {
	n := len(acc)
	switch len(a) {
	case 0:
	case 1:
		a0, b0 := a[0][:n], b[0][:n]
		for k := range acc {
			hi, lo := mac(0, acc[k], a0[k], b0[k])
			acc[k] = m.Reduce128(hi, lo)
		}
	case 2:
		a0, b0 := a[0][:n], b[0][:n]
		a1, b1 := a[1][:n], b[1][:n]
		for k := range acc {
			hi, lo := mac(0, acc[k], a0[k], b0[k])
			hi, lo = mac(hi, lo, a1[k], b1[k])
			acc[k] = m.Reduce128(hi, lo)
		}
	case 3:
		a0, b0 := a[0][:n], b[0][:n]
		a1, b1 := a[1][:n], b[1][:n]
		a2, b2 := a[2][:n], b[2][:n]
		for k := range acc {
			hi, lo := mac(0, acc[k], a0[k], b0[k])
			hi, lo = mac(hi, lo, a1[k], b1[k])
			hi, lo = mac(hi, lo, a2[k], b2[k])
			acc[k] = m.Reduce128(hi, lo)
		}
	default:
		for k := range acc {
			hi, lo := uint64(0), acc[k]
			for j := range a {
				hi, lo = mac(hi, lo, a[j][k], b[j][k])
			}
			acc[k] = m.Reduce128(hi, lo)
		}
	}
}

// MulAccScalars is MulAccRows with one constant per term in place of a
// row: acc[k] = (acc[k] + Σ_j a[j][k]·w[j]) mod q, with every w[j]
// reduced modulo q. This is the BConv primitive: a are the ŷ rows of
// the source towers (reduced modulo *their* moduli, which bound the
// operand), w the (B*/b_j) mod q column of the destination tower.
func (m Modulus) MulAccScalars(acc []uint64, a [][]uint64, w []uint64, maxTerms int) {
	for len(a) > maxTerms {
		m.mulAccScalars(acc, a[:maxTerms], w[:maxTerms])
		a, w = a[maxTerms:], w[maxTerms:]
	}
	m.mulAccScalars(acc, a, w)
}

func (m Modulus) mulAccScalars(acc []uint64, a [][]uint64, w []uint64) {
	n := len(acc)
	switch len(a) {
	case 0:
	case 1:
		a0, w0 := a[0][:n], w[0]
		for k := range acc {
			hi, lo := mac(0, acc[k], a0[k], w0)
			acc[k] = m.Reduce128(hi, lo)
		}
	case 2:
		a0, w0 := a[0][:n], w[0]
		a1, w1 := a[1][:n], w[1]
		for k := range acc {
			hi, lo := mac(0, acc[k], a0[k], w0)
			hi, lo = mac(hi, lo, a1[k], w1)
			acc[k] = m.Reduce128(hi, lo)
		}
	case 3:
		a0, w0 := a[0][:n], w[0]
		a1, w1 := a[1][:n], w[1]
		a2, w2 := a[2][:n], w[2]
		for k := range acc {
			hi, lo := mac(0, acc[k], a0[k], w0)
			hi, lo = mac(hi, lo, a1[k], w1)
			hi, lo = mac(hi, lo, a2[k], w2)
			acc[k] = m.Reduce128(hi, lo)
		}
	default:
		w = w[:len(a)]
		for k := range acc {
			hi, lo := uint64(0), acc[k]
			for j := range a {
				hi, lo = mac(hi, lo, a[j][k], w[j])
			}
			acc[k] = m.Reduce128(hi, lo)
		}
	}
}

// MulShoupRow sets out[k] = in[k]·w mod q, where wShoup =
// ShoupPrecomp(w). in need not be reduced; out may alias in.
func (m Modulus) MulShoupRow(out, in []uint64, w, wShoup uint64) {
	in = in[:len(out)]
	for k := range out {
		out[k] = m.MulShoup(in[k], w, wShoup)
	}
}

// SubMulShoupRow sets out[k] = (a[k] − b[k])·w mod q for reduced a
// and b, where wShoup = ShoupPrecomp(w). The difference is formed as
// a + q − b ∈ (0, 2q) and left to MulShoup, which is exact for any
// word. out may alias either input. This is ModDown's subtract-and-
// scale by P⁻¹.
func (m Modulus) SubMulShoupRow(out, a, b []uint64, w, wShoup uint64) {
	a, b = a[:len(out)], b[:len(out)]
	for k := range out {
		out[k] = m.MulShoup(a[k]+m.Q-b[k], w, wShoup)
	}
}
