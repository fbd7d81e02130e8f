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
// A transform is a loop over stages, and a stage has two bodies. The
// Go one runs four butterflies per iteration on four-element
// sub-slices, so the butterflies themselves index without bounds
// checks; the stages with one twiddle per two or four elements (step 1
// and 2) have loops of their own instead of length-1 and length-2
// inner loops. The vector one (stage_amd64.s) runs eight butterflies
// per iteration on AVX-512 IFMA's 52-bit multiply-accumulates, with
// the twiddle broadcast per block and, below stride 8, both halves of
// each butterfly brought into lanes by permutes. It keeps the same
// lazy ranges, which must then fit 52 bits, so NewTable gives it to a
// table only when the CPU has it (mod.Kernel), q < 2^50 and N ≥ 16;
// its 52-bit Shoup companions ⌊w·2^52/q⌋ are the 64-bit ones shifted
// right by 12. Both bodies end in the same correction pass, so the
// outputs are the same words.
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
	nInv      uint64 // N^-1 mod q
	nInvShoup uint64
	// lastInv = ψ^-brv(1) · N^-1, the twiddle of the inverse's last
	// stage with the 1/N scaling folded in.
	lastInv      uint64
	lastInvShoup uint64

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
	t.nInv = m.Inv(uint64(n))
	t.nInvShoup = m.ShoupPrecomp(t.nInv)
	t.lastInv = m.Mul(t.ipsi[1], t.nInv)
	t.lastInvShoup = m.ShoupPrecomp(t.lastInv)
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

// Forward transforms a (natural coefficient order, reduced mod q) into
// the evaluation domain, in place. Output is reduced mod q, in the
// transform's internal (bit-reversed) order, which all point-wise
// consumers treat opaquely.
func (t *Table) Forward(a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: Forward on slice of length %d, table N=%d", len(a), t.N))
	}
	stage := (*Table).fwdStage
	if t.vec {
		stage = (*Table).fwdStageVec
	}
	for step, mm := t.N>>1, 1; step >= 1; step, mm = step>>1, mm<<1 {
		stage(t, a, mm, step)
	}
}

// fwdStage is the Go body of one forward stage: mm blocks of 2·step
// values, one twiddle each. The step-1 stage is the transform's last
// and carries its one correction pass, [0,4q) → [0,q).
func (t *Table) fwdStage(a []uint64, mm, step int) {
	q, twoQ := t.M.Q, 2*t.M.Q
	w, ws := t.psi[mm:2*mm], t.psiShoup[mm:2*mm]
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

// Inverse transforms a (evaluation domain, reduced mod q) back to
// natural coefficient order, in place, including the 1/N scaling.
// Output is reduced mod q.
func (t *Table) Inverse(a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: Inverse on slice of length %d, table N=%d", len(a), t.N))
	}
	stage, last := (*Table).invStage, (*Table).invLast
	if t.vec {
		stage, last = (*Table).invStageVec, (*Table).invLastVec
	}
	for step, mm := 1, t.N>>1; mm >= 2; step, mm = step<<1, mm>>1 {
		stage(t, a, mm, step)
	}
	last(t, a)
}

// invStage is the Go body of one inverse stage before the last: mm
// blocks of 2·step values, one twiddle each.
func (t *Table) invStage(a []uint64, mm, step int) {
	q, twoQ := t.M.Q, 2*t.M.Q
	w, ws := t.ipsi[mm:2*mm], t.ipsiShoup[mm:2*mm]
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
// step N/2) with the 1/N scaling folded into both outputs:
// x' = (x+y)·N⁻¹, y' = (x−y)·ψ⁻¹·N⁻¹. The full MulShoup is the
// transform's one correction pass, [0,4q) → [0,q).
func (t *Table) invLast(a []uint64) {
	m, twoQ := t.M, 2*t.M.Q
	x, y := a[:t.N>>1], a[t.N>>1:]
	y = y[:len(x)]
	for j := range x {
		u, v := x[j], y[j]
		x[j] = m.MulShoup(u+v, t.nInv, t.nInvShoup)
		y[j] = m.MulShoup(u-v+twoQ, t.lastInv, t.lastInvShoup)
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
func (t *Table) fwdStageVec(a []uint64, mm, step int) {
	fwdStage52(a, t.psi[mm:2*mm], t.psiShoup[mm:2*mm], step, t.M.Q, &perm52[step&7])
}

func (t *Table) invStageVec(a []uint64, mm, step int) {
	invStage52(a, t.ipsi[mm:2*mm], t.ipsiShoup[mm:2*mm], step, t.M.Q, &perm52[step&7])
}

func (t *Table) invLastVec(a []uint64) {
	invLast52(a, t.nInv, t.nInvShoup, t.lastInv, t.lastInvShoup, t.M.Q)
}

// ButterflyOps returns the number of butterfly evaluations in one
// transform of length N: (N/2)·log2(N). The RPU cost model charges
// each butterfly as one modular multiplication plus additions
// (paper §III: O(N log N) per (I)NTT).
func ButterflyOps(n int) int {
	return (n / 2) * (bits.Len(uint(n)) - 1)
}
