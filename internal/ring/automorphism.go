package ring

import (
	"fmt"
	"math/bits"
)

// Automorphism applies the Galois automorphism σ_k: X → X^k to p
// (coefficient domain), writing the result to out. k must be odd so
// that σ_k is an automorphism of Z[X]/(X^N+1). Rotating a CKKS vector
// message by r slots corresponds to k = 5^r mod 2N (paper §II:
// ciphertext rotations are the primary way of computing linear
// layers).
func (r *Ring) Automorphism(p *Poly, k int, out *Poly) {
	if p.IsNTT {
		panic("ring: Automorphism requires coefficient domain")
	}
	k = r.galoisExponent(p, k, out)
	twoN := 2 * r.N
	for i, t := range p.Basis {
		m := r.Mods[t]
		src, dst := p.Coeffs[i], out.Coeffs[i]
		// X^j → X^(jk mod 2N), with X^(N+e) = -X^e; e advances by k
		// per coefficient instead of being recomputed.
		for j, e := 0, 0; j < r.N; j++ {
			if v := src[j]; e < r.N {
				dst[e] = v
			} else {
				dst[e-r.N] = m.Neg(v)
			}
			if e += k; e >= twoN {
				e -= twoN
			}
		}
	}
	out.IsNTT = false
}

// AutomorphismNTT applies σ_k to p in the NTT domain, writing the
// result to out, which must not alias p: the same polynomial as
// Automorphism's, transformed. A transformed row holds the evaluations
// of its tower at ψ^(2·brv(i)+1) (ntt.Table's bit-reversed order), and
// σ_k(a) evaluated at ψ^e is a at ψ^(e·k), so σ_k permutes the slots of
// every row alike and negates none. It allocates nothing.
func (r *Ring) AutomorphismNTT(p *Poly, k int, out *Poly) {
	if !p.IsNTT {
		panic("ring: AutomorphismNTT requires the NTT domain")
	}
	if p == out {
		panic("ring: AutomorphismNTT output aliases its input")
	}
	k = r.galoisExponent(p, k, out)
	// Slot i, the exponent e = 2·brv(i)+1, takes the slot of e·k mod
	// 2N: the same source slot in every row. The sources of a block of
	// slots are found once, on the stack, and every row gathers the
	// block, writing in order and reading within one row. A product
	// that wraps in 32 bits keeps its residue mod 2N, which divides 2^32.
	var idx [automorphismBlock]uint32
	mask := uint32(2*r.N - 1)
	shift := 32 - bits.TrailingZeros(uint(r.N))
	for lo := 0; lo < r.N; lo += automorphismBlock {
		blk := idx[:min(automorphismBlock, r.N-lo)]
		for b := range blk {
			e := bits.Reverse32(uint32(lo+b))>>shift<<1 | 1
			blk[b] = bits.Reverse32(e*uint32(k)&mask>>1) >> shift
		}
		for t, src := range p.Coeffs {
			dst := out.Coeffs[t][lo : lo+len(blk)]
			for b, j := range blk {
				dst[b] = src[j]
			}
		}
	}
	out.IsNTT = true
}

// automorphismBlock is the slots AutomorphismNTT finds the sources of
// at once: 2 KiB of indices.
const automorphismBlock = 512

// galoisExponent checks that out can take σ_k(p) and returns k reduced
// into [0, 2N), panicking unless it is odd.
func (r *Ring) galoisExponent(p *Poly, k int, out *Poly) int {
	if !p.Basis.Equal(out.Basis) {
		panic("ring: Automorphism basis mismatch")
	}
	twoN := 2 * r.N
	k = ((k % twoN) + twoN) % twoN
	if k%2 == 0 {
		panic(fmt.Sprintf("ring: automorphism exponent %d must be odd", k))
	}
	return k
}

// GaloisElement returns the automorphism exponent 5^r mod 2N that
// rotates the CKKS message vector left by r slots (negative r rotates
// right).
func (r *Ring) GaloisElement(rot int) int {
	mask := 2*r.N - 1 // 2N is a power of two
	n2 := r.N / 2
	rot = ((rot % n2) + n2) % n2
	g := 1
	for b := 5; rot > 0; rot, b = rot>>1, b*b&mask {
		if rot&1 != 0 {
			g = g * b & mask
		}
	}
	return g
}
