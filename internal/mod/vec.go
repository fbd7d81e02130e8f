package mod

import (
	"math"
	"math/bits"
)

// Row kernels. A key switch spends its time in three loops over
// length-N residue rows: NTT butterflies (internal/ntt), the
// multiply-accumulate under BConv and ApplyKey, and multiplies by a
// per-tower constant. The latter two live here so that every schedule
// above (serial, MP/DC/OC, hoisted) runs the same loop.
//
// Each kernel is one driver over two bodies: the Go loop in this file
// and, on amd64, an AVX-512 IFMA loop over eight coefficients at a
// time (vec_amd64.s). The driver takes the vector body when the CPU
// has it (Kernel), the modulus is below 2^VectorModulusBits and — for
// the multiply-accumulates — the operand bound the caller states is
// at most that. IFMA multiplies 52-bit halves, so under those bounds
// every value a kernel holds fits a lane. Both bodies return the
// canonical residue, so which one ran is invisible above this package.
//
// The multiply-accumulate defers reduction: products are summed as
// 128-bit integers and reduced once per coefficient, instead of one
// Barrett Mul and one reducing Add per term. Reduce128 needs the high
// word of the sum below q. With acc < q, every a_j below some bound B
// and every b_j < q, a sum of T products stays below q·2^64 as long as
// T·B ≤ 2^64, so callers state B (maxOperand) and the Go body reduces
// every AccTerms(B) products. For moduli below 2^62 that is at least 4
// terms; for the 30–41-bit moduli of every shipped shape it is
// millions, so each coefficient is reduced exactly once. The vector
// body sums the low and the high 52 bits of each product in a lane of
// their own and reduces every vecTerms products.

// Kernel names, as Kernel reports them.
const (
	KernelVector  = "avx512ifma"
	KernelGeneric = "generic"
)

// VectorModulusBits bounds the moduli the vector bodies serve, here
// and in internal/ntt: a lazy value below 4q must fit IFMA's 52-bit
// multiplicand.
const VectorModulusBits = 50

// vector selects the AVX-512 IFMA bodies. Only tests write it, to run
// every oracle against both bodies.
var vector = hasIFMA()

// Kernel reports which body the row kernels, the transforms of
// internal/ntt and the seed expander of internal/ring run for moduli
// below 2^VectorModulusBits: KernelVector or KernelGeneric. Outputs do
// not depend on it; timings do, so two measurements compare only at
// equal kernels.
func Kernel() string {
	if vector {
		return KernelVector
	}
	return KernelGeneric
}

// vecTerms products of two operands below 2^50 keep the sum of their
// high halves, 8·2^48, and the carry out of the low halves inside one
// 52-bit multiplicand.
const vecTerms = 8

// vec reports whether a kernel over this modulus runs the vector body.
func (m Modulus) vec() bool { return vector && m.Q < 1<<VectorModulusBits }

// accBody picks the body of a multiply-accumulate whose a rows are
// below maxOperand, and the number of products that body sums per
// reduction.
func (m Modulus) accBody(maxOperand uint64) (vec bool, maxTerms int) {
	if m.vec() && maxOperand <= 1<<VectorModulusBits {
		return true, vecTerms
	}
	return false, AccTerms(maxOperand)
}

// checkRows panics unless each of rows holds n coefficients, as the Go
// loops do by slicing: the vector bodies read a row through its base
// pointer, unchecked.
func checkRows(rows [][]uint64, n int) {
	for _, row := range rows {
		_ = row[:n]
	}
}

// Reduce52 returns what a vector body reduces a word H·2^52 + L with,
// as H·c + L: c = 2^52 mod q and its 52-bit Shoup companion
// ⌊c·2^52/q⌋, and mu = ⌊2^52/q⌋, the companion of 1. The
// multiply-accumulates here and internal/ring's seed expander use it.
func (m Modulus) Reduce52() (c, c52, mu uint64) {
	mu, c = bits.Div64(0, 1<<52, m.Q)
	c52, _ = bits.Div64(c>>12, c<<52, m.Q)
	return c, c52, mu
}

// AccTerms returns ⌊2^64 / maxOperand⌋, the number of products a·b
// with a < maxOperand and b < q that the Go multiply-accumulate sums
// on top of a reduced accumulator before reducing modulo q. maxOperand
// must be at least 2.
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

// keepAcc and dropAcc are the two values of the bodies' keep mask: the
// sum starts from acc[k]&keep, so dropAcc makes the first product
// initialise it and the row need not be cleared beforehand.
const (
	keepAcc = ^uint64(0)
	dropAcc = uint64(0)
)

// MulAccRows sets acc[k] = (acc[k] + Σ_j a[j][k]·b[j][k]) mod q for
// every k. acc and the b rows must be reduced modulo q; every value of
// the a rows must be below maxOperand (q itself where they are reduced
// too), which decides how many products one reduction may sum (see
// AccTerms) and whether they fit the vector body.
func (m Modulus) MulAccRows(acc []uint64, a, b [][]uint64, maxOperand uint64) {
	m.mulAccRows(acc, a, b, maxOperand, keepAcc)
}

// MulSumRows is MulAccRows onto a zero accumulator without reading
// one: dst[k] = Σ_j a[j][k]·b[j][k] mod q, whatever dst held. This is
// the ApplyKey primitive: a are the ModUp digits, b the
// evaluation-key digits.
func (m Modulus) MulSumRows(dst []uint64, a, b [][]uint64, maxOperand uint64) {
	m.mulAccRows(dst, a, b, maxOperand, dropAcc)
}

func (m Modulus) mulAccRows(acc []uint64, a, b [][]uint64, maxOperand, keep uint64) {
	vec, maxTerms := m.accBody(maxOperand)
	var c, c52, mu uint64
	if vec {
		c, c52, mu = m.Reduce52()
		checkRows(a, len(acc))
		checkRows(b[:len(a)], len(acc))
	}
	for ; ; keep = keepAcc {
		t := min(len(a), maxTerms)
		if vec {
			mulAccRows52(acc, a[:t], b[:t], keep, m.Q, c, c52, mu)
		} else {
			m.mulAccRowsGo(acc, a[:t], b[:t], keep)
		}
		if a, b = a[t:], b[t:]; len(a) == 0 {
			return
		}
	}
}

// mulAccRowsGo is the Go body for a term count Reduce128 can absorb.
// The one- to three-term loops keep the row headers in registers; they
// cover every digit count and digit width the shipped shapes use.
func (m Modulus) mulAccRowsGo(acc []uint64, a, b [][]uint64, keep uint64) {
	n := len(acc)
	switch len(a) {
	case 1:
		a0, b0 := a[0][:n], b[0][:n]
		for k := range acc {
			hi, lo := mac(0, acc[k]&keep, a0[k], b0[k])
			acc[k] = m.Reduce128(hi, lo)
		}
	case 2:
		a0, b0 := a[0][:n], b[0][:n]
		a1, b1 := a[1][:n], b[1][:n]
		for k := range acc {
			hi, lo := mac(0, acc[k]&keep, a0[k], b0[k])
			hi, lo = mac(hi, lo, a1[k], b1[k])
			acc[k] = m.Reduce128(hi, lo)
		}
	case 3:
		a0, b0 := a[0][:n], b[0][:n]
		a1, b1 := a[1][:n], b[1][:n]
		a2, b2 := a[2][:n], b[2][:n]
		for k := range acc {
			hi, lo := mac(0, acc[k]&keep, a0[k], b0[k])
			hi, lo = mac(hi, lo, a1[k], b1[k])
			hi, lo = mac(hi, lo, a2[k], b2[k])
			acc[k] = m.Reduce128(hi, lo)
		}
	default:
		for k := range acc {
			hi, lo := uint64(0), acc[k]&keep
			for j := range a {
				hi, lo = mac(hi, lo, a[j][k], b[j][k])
			}
			acc[k] = m.Reduce128(hi, lo)
		}
	}
}

// MulSumScalars is MulSumRows with one constant per term in place of a
// row: dst[k] = Σ_j a[j][k]·w[j] mod q, with every w[j] reduced modulo
// q. This is the BConv primitive: a are the ŷ rows of the source
// towers (reduced modulo *their* moduli, which bound the operand), w
// the (B*/b_j) mod q column of the destination tower.
func (m Modulus) MulSumScalars(dst []uint64, a [][]uint64, w []uint64, maxOperand uint64) {
	m.mulAccScalars(dst, a, w, maxOperand, dropAcc)
}

// MulAccScalars is MulSumScalars onto acc: acc[k] = (acc[k] +
// Σ_j a[j][k]·w[j]) mod q, with acc reduced modulo q. Key generation
// adds the gadget multiple of the old secret with it.
func (m Modulus) MulAccScalars(acc []uint64, a [][]uint64, w []uint64, maxOperand uint64) {
	m.mulAccScalars(acc, a, w, maxOperand, keepAcc)
}

func (m Modulus) mulAccScalars(acc []uint64, a [][]uint64, w []uint64, maxOperand, keep uint64) {
	vec, maxTerms := m.accBody(maxOperand)
	var c, c52, mu uint64
	if vec {
		c, c52, mu = m.Reduce52()
		checkRows(a, len(acc))
	}
	for ; ; keep = keepAcc {
		t := min(len(a), maxTerms)
		if vec {
			mulAccScalars52(acc, a[:t], w[:t], keep, m.Q, c, c52, mu)
		} else {
			m.mulAccScalarsGo(acc, a[:t], w[:t], keep)
		}
		if a, w = a[t:], w[t:]; len(a) == 0 {
			return
		}
	}
}

// mulAccScalarsGo is the Go body for a term count Reduce128 can absorb.
// Its unrolled loops reach four terms: the exact conversion out of
// three P towers sums their ŷ rows and the overshoot row.
func (m Modulus) mulAccScalarsGo(acc []uint64, a [][]uint64, w []uint64, keep uint64) {
	n := len(acc)
	switch len(a) {
	case 1:
		a0, w0 := a[0][:n], w[0]
		for k := range acc {
			hi, lo := mac(0, acc[k]&keep, a0[k], w0)
			acc[k] = m.Reduce128(hi, lo)
		}
	case 2:
		a0, w0 := a[0][:n], w[0]
		a1, w1 := a[1][:n], w[1]
		for k := range acc {
			hi, lo := mac(0, acc[k]&keep, a0[k], w0)
			hi, lo = mac(hi, lo, a1[k], w1)
			acc[k] = m.Reduce128(hi, lo)
		}
	case 3:
		a0, w0 := a[0][:n], w[0]
		a1, w1 := a[1][:n], w[1]
		a2, w2 := a[2][:n], w[2]
		for k := range acc {
			hi, lo := mac(0, acc[k]&keep, a0[k], w0)
			hi, lo = mac(hi, lo, a1[k], w1)
			hi, lo = mac(hi, lo, a2[k], w2)
			acc[k] = m.Reduce128(hi, lo)
		}
	case 4:
		a0, w0 := a[0][:n], w[0]
		a1, w1 := a[1][:n], w[1]
		a2, w2 := a[2][:n], w[2]
		a3, w3 := a[3][:n], w[3]
		for k := range acc {
			hi, lo := mac(0, acc[k]&keep, a0[k], w0)
			hi, lo = mac(hi, lo, a1[k], w1)
			hi, lo = mac(hi, lo, a2[k], w2)
			hi, lo = mac(hi, lo, a3[k], w3)
			acc[k] = m.Reduce128(hi, lo)
		}
	default:
		w = w[:len(a)]
		for k := range acc {
			hi, lo := uint64(0), acc[k]&keep
			for j := range a {
				hi, lo = mac(hi, lo, a[j][k], w[j])
			}
			acc[k] = m.Reduce128(hi, lo)
		}
	}
}

// MulShoupRow sets out[k] = in[k]·w mod q, where wShoup =
// ShoupPrecomp(w). in need not be reduced: any word is multiplied
// exactly, under either body — the vector lane holds words below 2^52
// (every lazy value below 4q does) and stops at the first block of
// eight with a wider one, which the Go loop takes over from. out may
// alias in.
func (m Modulus) MulShoupRow(out, in []uint64, w, wShoup uint64) {
	in = in[:len(out)]
	if m.vec() {
		done := mulShoupRow52(out, in, w, wShoup>>12, m.Q)
		out, in = out[done:], in[done:]
	}
	for k := range out {
		out[k] = m.MulShoup(in[k], w, wShoup)
	}
}

// SubMulShoupRow sets out[k] = (a[k] − b[k])·w mod q for reduced a
// and b, where wShoup = ShoupPrecomp(w). The difference is formed as
// a + q − b ∈ (0, 2q) and left to the Shoup multiply. out may alias
// either input. This is ModDown's subtract-and-scale by P⁻¹.
func (m Modulus) SubMulShoupRow(out, a, b []uint64, w, wShoup uint64) {
	a, b = a[:len(out)], b[:len(out)]
	if m.vec() {
		subMulShoupRow52(out, a, b, w, wShoup>>12, m.Q)
		return
	}
	for k := range out {
		out[k] = m.MulShoup(a[k]+m.Q-b[k], w, wShoup)
	}
}
