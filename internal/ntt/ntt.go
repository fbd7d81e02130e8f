// Package ntt implements the negacyclic number-theoretic transform
// used throughout CKKS: multiplication in Z_q[X]/(X^N+1) becomes
// point-wise multiplication in the evaluation domain.
//
// The forward transform is a Cooley–Tukey decimation-in-time network
// that merges the ψ^i pre-twist into the butterflies; the inverse is
// the matching Gentleman–Sande network (Longa–Naehrig formulation).
// Twiddle factors are stored with Shoup precomputation, and the
// butterflies are Harvey's lazy ones: a twiddle product is
// y·w − ⌊y·w′/2^64⌋·q, which lies in [0,2q) for any word y, and is
// left there. Forward values live in [0,4q) between stages and inverse
// values in [0,2q), so a butterfly costs one high and two low word
// multiplies and a single conditional subtraction — the operation the
// RPU's HPLE lanes execute natively (paper §V-A) — and each transform
// has exactly one correction pass: the forward's last stage reduces
// [0,4q) → [0,q), and the inverse folds it into the N⁻¹ multiply of
// its last stage. That needs 4q < 2^64, which mod.MaxModulusBits = 62
// guarantees. Inputs and outputs are canonical residues, so callers
// see the same function as a fully reduced transform (kept in
// ntt_test.go as the oracle).
//
// A transform is one depth-first traversal of its stages, written once
// for both stage bodies. Stages whose butterfly blocks are wider than
// blockWords (4096 words, 32 KiB) run across the whole row; every
// later stage runs one block at a time, the block staying in L1 while
// it does, on its sub-slice of the same twiddle tables. A 64 KiB row
// (N = 2^13) so crosses L2 twice per transform instead of thirteen
// times. The inverse mirrors it: blocks first, then the whole-row
// stages, then the last. Two fused entry points ride the traversal so
// that the passes callers ran around a transform cost none of their
// own: InverseScaled copies its source in block by block and folds a
// constant into the last stage's twiddles (Scaled), and ForwardSubMul
// applies ModDown's (acc − x)·w to each block as its last stage ends.
//
// A stage has two bodies, each given a slice of the row and its
// twiddles. The Go one runs four butterflies per iteration on
// four-element sub-slices, so the butterflies themselves index without
// bounds checks; the stages with one twiddle per two or four elements
// (step 1 and 2) have loops of their own instead of length-1 and
// length-2 inner loops. The vector one (stage_amd64.s) runs eight
// butterflies per iteration on AVX-512 IFMA's 52-bit
// multiply-accumulates, with the twiddle broadcast per block and,
// below stride 8, both halves of each butterfly brought into lanes by
// permutes. It keeps the same lazy ranges, which must then fit 52
// bits, so NewTable gives it to a table only when the CPU has it
// (mod.Kernel), q < 2^50 and N ≥ 16; its 52-bit Shoup companions
// ⌊w·2^52/q⌋ are the 64-bit ones shifted right by 12. Both bodies end
// in the same correction pass, so the outputs are the same words.
package ntt

import (
	"fmt"
	"math/bits"

	"ciflow/internal/mod"
	"ciflow/internal/primes"
)

// Table holds the per-modulus precomputed state for transforms of a
// fixed power-of-two length N.
type Table struct {
	N int
	M mod.Modulus

	psi       []uint64 // ψ^brv(i), bit-reversed powers of the 2N-th root
	psiShoup  []uint64
	ipsi      []uint64 // ψ^-brv(i)
	ipsiShoup []uint64
	// last is the inverse's last-stage pair with s = 1: N⁻¹ and
	// ψ^-brv(1)·N⁻¹, the 1/N scaling folded into its twiddle.
	last Scale

	// vec selects the vector stage bodies: the CPU has them
	// (mod.Kernel), q is below 2^mod.VectorModulusBits so that every
	// lazy value fits a 52-bit lane, and N fills a 16-value window.
	vec bool
}

// NewTable builds NTT tables for ring degree n and prime modulus q
// with q ≡ 1 (mod 2n).
func NewTable(n int, q uint64) (*Table, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: ring degree %d is not a power of two >= 2", n)
	}
	psi, err := primes.RootOfUnity(q, n)
	if err != nil {
		return nil, fmt.Errorf("ntt: %w", err)
	}
	m := mod.New(q)
	t := &Table{
		N: n, M: m,
		psi:       make([]uint64, n),
		psiShoup:  make([]uint64, n),
		ipsi:      make([]uint64, n),
		ipsiShoup: make([]uint64, n),
		vec:       mod.Kernel() == mod.KernelVector && q < 1<<mod.VectorModulusBits && n >= 16,
	}
	ipsi := m.Inv(psi)
	logN := bits.Len(uint(n)) - 1
	fw, inv := uint64(1), uint64(1)
	powsF := make([]uint64, n)
	powsI := make([]uint64, n)
	for i := 0; i < n; i++ {
		powsF[i], powsI[i] = fw, inv
		fw, inv = m.Mul(fw, psi), m.Mul(inv, ipsi)
	}
	for i := 0; i < n; i++ {
		r := int(bitrev(uint64(i), logN))
		t.psi[i] = powsF[r]
		t.ipsi[i] = powsI[r]
		t.psiShoup[i] = m.ShoupPrecomp(t.psi[i])
		t.ipsiShoup[i] = m.ShoupPrecomp(t.ipsi[i])
	}
	nInv := m.Inv(uint64(n))
	t.last = Scale{lo: nInv, hi: m.Mul(t.ipsi[1], nInv)}
	t.last.loShoup, t.last.hiShoup = m.ShoupPrecomp(t.last.lo), m.ShoupPrecomp(t.last.hi)
	return t, nil
}

func bitrev(x uint64, bits int) uint64 {
	var r uint64
	for i := 0; i < bits; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// blockWords is the depth-first traversal's block: 4096 words, 32 KiB,
// which a stage's butterflies can revisit while it sits in a 48 KiB
// L1d. A row wider than one block (N > 4096) runs the stages whose
// butterfly blocks span more than it across the whole row, and every
// other stage block by block, so the row crosses L2 once per
// whole-row stage plus once for the block pass, not once per stage.
const blockWords = 4096

// Forward transforms a (natural coefficient order, reduced mod q) into
// the evaluation domain, in place. Output is reduced mod q, in the
// transform's internal (bit-reversed) order, which all point-wise
// consumers treat opaquely.
func (t *Table) Forward(a []uint64) {
	t.checkLen("Forward", a)
	t.forward(a, nil, 0, 0)
}

// ForwardSubMul transforms a as Forward does and then sets it to
// (acc − a)·w mod q, where wShoup = mod.ShoupPrecomp(w) and acc is
// reduced: ModDown's subtract-and-scale by P⁻¹ applied to each block
// as its last stage ends, so the row is not read again for it. The
// words are those of Forward followed by mod.SubMulShoupRow.
func (t *Table) ForwardSubMul(a, acc []uint64, w, wShoup uint64) {
	t.checkLen("ForwardSubMul", a)
	t.checkLen("ForwardSubMul", acc)
	t.forward(a, acc, w, wShoup)
}

// forward is the depth-first traversal behind Forward and
// ForwardSubMul, written once for both stage bodies: the whole-row
// stages, then every remaining stage of one block before the next
// block starts. Block c's butterfly blocks at stage (mm, step) are
// those from c/(2·step) on, so it takes the twiddles from
// psi[mm + c/(2·step)]. With acc non-nil each block ends in
// (acc − a)·w.
func (t *Table) forward(a, acc []uint64, w, wShoup uint64) {
	stage := (*Table).fwdStage
	if t.vec {
		stage = (*Table).fwdStageVec
	}
	n, b := t.N, min(t.N, blockWords)
	step, mm := n>>1, 1
	for ; 2*step > b; step, mm = step>>1, mm<<1 {
		stage(t, a, t.psi[mm:2*mm], t.psiShoup[mm:2*mm], step)
	}
	for c := 0; c < n; c += b {
		blk := a[c : c+b]
		for s, m := step, mm; s >= 1; s, m = s>>1, m<<1 {
			lo, hi := m+c/(2*s), m+(c+b)/(2*s)
			stage(t, blk, t.psi[lo:hi], t.psiShoup[lo:hi], s)
		}
		if acc != nil {
			t.M.SubMulShoupRow(blk, acc[c:c+b], blk, w, wShoup)
		}
	}
}

func (t *Table) checkLen(op string, a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: %s on slice of length %d, table N=%d", op, len(a), t.N))
	}
}

// fwdStage is the Go body of one forward stage over a: len(w) blocks
// of 2·step values, one twiddle each. The step-1 stage is the
// transform's last and carries its one correction pass, [0,4q) → [0,q).
func (t *Table) fwdStage(a, w, ws []uint64, step int) {
	q, twoQ := t.M.Q, 2*t.M.Q
	ws = ws[:len(w)]
	switch step {
	case 1: // one twiddle per pair
		for i := range w {
			b := a[2*i : 2*i+2 : 2*i+2]
			x, y := fwdButterfly(b[0], b[1], w[i], ws[i], q, twoQ)
			b[0], b[1] = reduce4(x, q, twoQ), reduce4(y, q, twoQ)
		}
	case 2: // one twiddle per block of four
		for i := range w {
			b := a[4*i : 4*i+4 : 4*i+4]
			b[0], b[2] = fwdButterfly(b[0], b[2], w[i], ws[i], q, twoQ)
			b[1], b[3] = fwdButterfly(b[1], b[3], w[i], ws[i], q, twoQ)
		}
	default:
		for i := range w {
			w, ws := w[i], ws[i]
			j := 2 * i * step
			x, y := a[j:j+step], a[j+step:j+2*step]
			y = y[:len(x)]
			for k := 0; k+4 <= len(x); k += 4 {
				u, v := x[k:k+4:k+4], y[k:k+4:k+4]
				u[0], v[0] = fwdButterfly(u[0], v[0], w, ws, q, twoQ)
				u[1], v[1] = fwdButterfly(u[1], v[1], w, ws, q, twoQ)
				u[2], v[2] = fwdButterfly(u[2], v[2], w, ws, q, twoQ)
				u[3], v[3] = fwdButterfly(u[3], v[3], w, ws, q, twoQ)
			}
		}
	}
}

// fwdButterfly is the lazy Cooley–Tukey butterfly: for x, y in [0,4q)
// it returns x + y·w and x − y·w modulo q, both in [0,4q).
func fwdButterfly(x, y, w, ws, q, twoQ uint64) (uint64, uint64) {
	if x >= twoQ {
		x -= twoQ
	}
	hi, _ := bits.Mul64(y, ws)
	v := y*w - hi*q // y·w mod q in [0,2q), for any word y
	return x + v, x - v + twoQ
}

// reduce4 maps x in [0,4q) to its residue in [0,q).
func reduce4(x, q, twoQ uint64) uint64 {
	if x >= twoQ {
		x -= twoQ
	}
	if x >= q {
		x -= q
	}
	return x
}

// Scale is the inverse's last-stage twiddle pair with a constant s
// folded in — N⁻¹·s for the low half of the row, ψ⁻¹·N⁻¹·s for the
// high half — and their Shoup companions. An inverse that ends in it
// multiplies every output by s at no cost: the multiply is the last
// stage's own.
type Scale struct{ lo, loShoup, hi, hiShoup uint64 }

// Scaled returns the Scale of s, a residue mod q.
func (t *Table) Scaled(s uint64) Scale {
	lo, hi := t.M.Mul(t.last.lo, s), t.M.Mul(t.last.hi, s)
	return Scale{lo, t.M.ShoupPrecomp(lo), hi, t.M.ShoupPrecomp(hi)}
}

// Inverse transforms a (evaluation domain, reduced mod q) back to
// natural coefficient order, in place, including the 1/N scaling.
// Output is reduced mod q.
func (t *Table) Inverse(a []uint64) {
	t.checkLen("Inverse", a)
	t.inverse(a, a, t.last)
}

// InverseScaled sets dst to the inverse transform of src times the
// constant s of Scaled(s): the words of a copy, Inverse and
// mod.MulShoupRow by s, in one traversal. src is read block by block
// just before the block's stages run; dst may alias src exactly.
func (t *Table) InverseScaled(dst, src []uint64, s Scale) {
	t.checkLen("InverseScaled", dst)
	t.checkLen("InverseScaled", src)
	t.inverse(dst, src, s)
}

// inverse mirrors forward: each block is read from src into dst and
// runs the stages whose butterfly blocks fit it, then the remaining
// stages before the last run across the whole row, and the last stage
// multiplies by s's twiddles.
func (t *Table) inverse(dst, src []uint64, s Scale) {
	stage, last := (*Table).invStage, (*Table).invLast
	if t.vec {
		stage, last = (*Table).invStageVec, (*Table).invLastVec
	}
	n, b := t.N, min(t.N, blockWords)
	copyIn := &dst[0] != &src[0]
	// The block pass leaves step and mm at the first stage it did not run.
	step, mm := 1, n>>1
	for c := 0; c < n; c += b {
		blk := dst[c : c+b]
		if copyIn {
			copy(blk, src[c:c+b])
		}
		for step, mm = 1, n>>1; mm >= 2 && 2*step <= b; step, mm = step<<1, mm>>1 {
			lo, hi := mm+c/(2*step), mm+(c+b)/(2*step)
			stage(t, blk, t.ipsi[lo:hi], t.ipsiShoup[lo:hi], step)
		}
	}
	for ; mm >= 2; step, mm = step<<1, mm>>1 {
		stage(t, dst, t.ipsi[mm:2*mm], t.ipsiShoup[mm:2*mm], step)
	}
	last(t, dst, s)
}

// invStage is the Go body of one inverse stage before the last over a:
// len(w) blocks of 2·step values, one twiddle each.
func (t *Table) invStage(a, w, ws []uint64, step int) {
	q, twoQ := t.M.Q, 2*t.M.Q
	ws = ws[:len(w)]
	switch step {
	case 1: // one twiddle per pair
		for i := range w {
			b := a[2*i : 2*i+2 : 2*i+2]
			b[0], b[1] = invButterfly(b[0], b[1], w[i], ws[i], q, twoQ)
		}
	case 2: // one twiddle per block of four
		for i := range w {
			b := a[4*i : 4*i+4 : 4*i+4]
			b[0], b[2] = invButterfly(b[0], b[2], w[i], ws[i], q, twoQ)
			b[1], b[3] = invButterfly(b[1], b[3], w[i], ws[i], q, twoQ)
		}
	default:
		for i := range w {
			w, ws := w[i], ws[i]
			j := 2 * i * step
			x, y := a[j:j+step], a[j+step:j+2*step]
			y = y[:len(x)]
			for k := 0; k+4 <= len(x); k += 4 {
				u, v := x[k:k+4:k+4], y[k:k+4:k+4]
				u[0], v[0] = invButterfly(u[0], v[0], w, ws, q, twoQ)
				u[1], v[1] = invButterfly(u[1], v[1], w, ws, q, twoQ)
				u[2], v[2] = invButterfly(u[2], v[2], w, ws, q, twoQ)
				u[3], v[3] = invButterfly(u[3], v[3], w, ws, q, twoQ)
			}
		}
	}
}

// invLast is the Go body of the inverse's last stage (one twiddle,
// step N/2) with the 1/N scaling, and s's constant, folded into both
// outputs: x' = (x+y)·N⁻¹·s, y' = (x−y)·ψ⁻¹·N⁻¹·s. The full MulShoup is
// the transform's one correction pass, [0,4q) → [0,q).
func (t *Table) invLast(a []uint64, s Scale) {
	m, twoQ := t.M, 2*t.M.Q
	x, y := a[:t.N>>1], a[t.N>>1:]
	y = y[:len(x)]
	for j := range x {
		u, v := x[j], y[j]
		x[j] = m.MulShoup(u+v, s.lo, s.loShoup)
		y[j] = m.MulShoup(u-v+twoQ, s.hi, s.hiShoup)
	}
}

// invButterfly is the lazy Gentleman–Sande butterfly: for x, y in
// [0,2q) it returns x + y and (x − y)·w modulo q, both in [0,2q).
func invButterfly(x, y, w, ws, q, twoQ uint64) (uint64, uint64) {
	s := x + y
	if s >= twoQ {
		s -= twoQ
	}
	d := x - y + twoQ
	hi, _ := bits.Mul64(d, ws)
	return s, d*w - hi*q
}

// perm52 holds, for each stride below the vector width, the lane
// permutations that bring both halves of every butterfly in a window
// of 16 consecutive values (lanes 0–7 the first eight, 8–15 the rest)
// into two registers and back: the lanes of the window that form x and
// y (those with the step bit clear, and their partners), the lanes of
// x‖y that form the window's two halves again, and the twiddle of each
// lane's block among the window's 8/step. Strides of 8 and up permute
// nothing and are handed entry 0.
var perm52 = [5][5][8]uint64{
	4: {
		{0, 1, 2, 3, 8, 9, 10, 11}, {4, 5, 6, 7, 12, 13, 14, 15},
		{0, 1, 2, 3, 8, 9, 10, 11}, {4, 5, 6, 7, 12, 13, 14, 15},
		{0, 0, 0, 0, 1, 1, 1, 1},
	},
	2: {
		{0, 1, 4, 5, 8, 9, 12, 13}, {2, 3, 6, 7, 10, 11, 14, 15},
		{0, 1, 8, 9, 2, 3, 10, 11}, {4, 5, 12, 13, 6, 7, 14, 15},
		{0, 0, 1, 1, 2, 2, 3, 3},
	},
	1: {
		{0, 2, 4, 6, 8, 10, 12, 14}, {1, 3, 5, 7, 9, 11, 13, 15},
		{0, 8, 1, 9, 2, 10, 3, 11}, {4, 12, 5, 13, 6, 14, 7, 15},
		{0, 1, 2, 3, 4, 5, 6, 7},
	},
}

// fwdStageVec, invStageVec and invLastVec are the vector bodies of the
// three stage shapes, over the same twiddles as the Go bodies.
func (t *Table) fwdStageVec(a, w, ws []uint64, step int) {
	fwdStage52(a, w, ws, step, t.M.Q, &perm52[step&7])
}

func (t *Table) invStageVec(a, w, ws []uint64, step int) {
	invStage52(a, w, ws, step, t.M.Q, &perm52[step&7])
}

func (t *Table) invLastVec(a []uint64, s Scale) {
	invLast52(a, s.lo, s.loShoup, s.hi, s.hiShoup, t.M.Q)
}

// ButterflyOps returns the number of butterfly evaluations in one
// transform of length N: (N/2)·log2(N). The RPU cost model charges
// each butterfly as one modular multiplication plus additions
// (paper §III: O(N log N) per (I)NTT).
func ButterflyOps(n int) int {
	return (n / 2) * (bits.Len(uint(n)) - 1)
}
