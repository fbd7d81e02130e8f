// Package mod implements 64-bit modular arithmetic for RNS-based
// homomorphic encryption: Barrett reduction, Shoup multiplication,
// modular exponentiation and inversion, primality testing, and the
// row kernels (vec.go) the key-switching hot loops are built from.
//
// All moduli are odd primes below 2^62. The two bits of headroom are
// what the lazy-reduction kernels spend:
//
//   - sums of two residues never overflow a word (Add on unreduced
//     operands), and internal/ntt keeps butterfly values in [0,4q);
//   - MulShoup is exact for *any* 64-bit x, not only x < q: its
//     quotient estimate is off by at most one, so the remainder lies
//     in [0,2q) before the single correction;
//   - the multiply-accumulate rows (MulSumRows, MulSumScalars,
//     MulAccRows) sum products as 128-bit integers and reduce once.
//     Reduce128 wants the high word below q, so given the bound B on
//     one operand (the callers' maxOperand) at most AccTerms(B) =
//     ⌊2^64/B⌋ products with the other operand below q go into one
//     reduction: at least 4 for any supported modulus, millions for
//     the 30–41-bit moduli in use.
//
// This matches the machine-word RNS moduli used by CKKS
// implementations (36–60 bits, paper §II).
//
// The row kernels have a second body: on an amd64 CPU with AVX-512
// IFMA, and for moduli below 2^VectorModulusBits, they run eight
// coefficients at a time on 52-bit multiply-accumulates
// (vec_amd64.s). Kernel names the body in use, here and under
// internal/ntt's transforms; both bodies return canonical residues, so
// nothing above this package can tell them apart except by the clock
// (DESIGN.md "Row kernels").
package mod

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest supported modulus width. Keeping two
// bits of headroom lets Add work on unreduced operands.
const MaxModulusBits = 62

// Modulus bundles a prime q with the precomputed constants needed for
// fast reduction. The zero value is not usable; construct with New.
type Modulus struct {
	Q uint64 // the modulus itself

	// brHi:brLo = floor(2^128 / Q), the 128-bit Barrett constant.
	brHi, brLo uint64
}

// New prepares a Modulus for q. It panics if q < 2 or q >= 2^62,
// because such moduli are never valid in this library and indicate a
// programming error rather than a runtime condition.
func New(q uint64) Modulus {
	if q < 2 || q >= 1<<MaxModulusBits {
		panic(fmt.Sprintf("mod: modulus %d out of range [2, 2^62)", q))
	}
	// floor(2^128 / q) computed as a two-word division.
	hi, r := bits.Div64(1, 0, q) // 2^64 = hi*q + r
	lo, _ := bits.Div64(r, 0, q)
	return Modulus{Q: q, brHi: hi, brLo: lo}
}

// Add returns x + y mod q for x, y < q.
func (m Modulus) Add(x, y uint64) uint64 {
	s := x + y
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// Sub returns x - y mod q for x, y < q.
func (m Modulus) Sub(x, y uint64) uint64 {
	d := x - y
	if d > x { // borrow
		d += m.Q
	}
	return d
}

// Neg returns -x mod q for x < q.
func (m Modulus) Neg(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	return m.Q - x
}

// Reduce returns x mod q for any x.
func (m Modulus) Reduce(x uint64) uint64 {
	if x < m.Q {
		return x
	}
	return x % m.Q
}

// Reduce128 returns (hi·2^64 + lo) mod q using Barrett reduction.
// It requires hi < q (always true for products of reduced operands).
func (m Modulus) Reduce128(hi, lo uint64) uint64 {
	// qhat = floor(x·mu / 2^128) where mu = brHi·2^64 + brLo and
	// x = hi·2^64 + lo. Expanding the 256-bit product and keeping the
	// top 128 bits exactly (only the lowest word of lo·brLo is
	// dropped, costing at most 1 in the estimate):
	hlHi, hlLo := bits.Mul64(hi, m.brLo)
	lhHi, lhLo := bits.Mul64(lo, m.brHi)
	llHi, _ := bits.Mul64(lo, m.brLo)

	s, c1 := bits.Add64(hlLo, lhLo, 0)
	_, c2 := bits.Add64(s, llHi, 0)
	// hi < q and brHi = floor(2^64/q) imply hi·brHi < 2^64.
	qhat := hi*m.brHi + hlHi + lhHi + c1 + c2

	// qhat undershoots the true quotient by at most 2, so the
	// remainder fits in a word and needs at most two corrections.
	r := lo - qhat*m.Q
	for r >= m.Q {
		r -= m.Q
	}
	return r
}

// Mul returns x·y mod q via Barrett reduction, for x, y < q.
func (m Modulus) Mul(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return m.Reduce128(hi, lo)
}

// ShoupPrecomp returns w' = floor(w·2^64 / q), the Shoup constant that
// accelerates repeated multiplication by the fixed operand w < q.
func (m Modulus) ShoupPrecomp(w uint64) uint64 {
	lo, _ := bits.Div64(w, 0, m.Q)
	return lo
}

// MulShoup returns x·w mod q where wShoup = ShoupPrecomp(w) and
// w < q. The result is exact for any 64-bit x. Every multiply by a
// per-tower constant (BConv's ŷ scaling, ModDown's P⁻¹) goes through
// it; internal/ntt inlines the same product without the correction.
func (m Modulus) MulShoup(x, w, wShoup uint64) uint64 {
	qhat, _ := bits.Mul64(x, wShoup)
	r := x*w - qhat*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// Pow returns x^e mod q by square-and-multiply.
func (m Modulus) Pow(x, e uint64) uint64 {
	x = m.Reduce(x)
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = m.Mul(r, x)
		}
		x = m.Mul(x, x)
		e >>= 1
	}
	return r
}

// Inv returns x^-1 mod q. It panics if x and q are not coprime, which
// for prime q means x ≡ 0 — a programming error in this library.
func (m Modulus) Inv(x uint64) uint64 {
	x = m.Reduce(x)
	if x == 0 {
		panic("mod: inverse of zero")
	}
	// Extended binary GCD is unnecessary: all moduli are prime, so
	// Fermat's little theorem applies.
	inv := m.Pow(x, m.Q-2)
	if m.Mul(inv, x) != 1 {
		panic(fmt.Sprintf("mod: %d has no inverse modulo %d (modulus not prime?)", x, m.Q))
	}
	return inv
}

// deterministic Miller-Rabin witnesses covering all n < 3.3·10^24,
// far beyond the 62-bit range used here.
var mrWitnesses = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime, deterministically for n < 2^62.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	if n >= 1<<MaxModulusBits {
		panic(fmt.Sprintf("mod: IsPrime argument %d out of range", n))
	}
	m := New(n)
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
	for _, a := range mrWitnesses {
		x := m.Pow(a, d)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = m.Mul(x, x)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}
