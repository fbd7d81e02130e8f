// Package bconv implements fast RNS basis conversion (the BConv
// kernel, paper ModUp P2 / ModDown P2), following the approximate
// conversion of Halevi–Polyakov–Shoup used by full-RNS CKKS.
//
// For a source basis B = {b_0..b_{k-1}} with product B* and a target
// basis C, the conversion of x given by residues x_i is
//
//	Conv(x) ≡ Σ_i [x_i · (B*/b_i)^{-1} mod b_i] · (B*/b_i)   (mod c_j)
//
// which equals x̂ + u·B* for the representative x̂ ∈ [0, B*) and some
// integer overshoot 0 ≤ u < k. The overshoot adds a small multiple of
// B* that hybrid key switching absorbs into its noise budget.
//
// The kernel costs N·|B|·|C| modular multiply-accumulates plus N·|B|
// multiplications — exactly the count the paper charges BConv with
// (§III-B: "roughly N×α×β modular multiplications"). The count is the
// model's; the cost per operation is lower than a Barrett multiply:
// each destination coefficient is one deferred-reduction inner product
// over the source towers (mod.MulSumScalars, a single reduction; the
// exact conversion's overshoot removal is one more term of it), and
// every multiply by a per-tower constant is a Shoup multiply against a
// constant precomputed in New.
//
// The conversion decomposes into per-tower tiles — the ŷ
// pre-multiplication of each source tower, then ConvertTowerFromY for
// one destination tower — so that internal/hks can schedule them as
// independent tasks on the internal/engine worker pool under any of
// the paper's dataflows. hks does not run the ŷ multiply as a pass of
// its own: it takes the constant (YScale) and folds it into the last
// stage of each source tower's inverse NTT. Convert and ConvertExact
// run the same tiles serially over pooled scratch, so repeated
// conversions allocate nothing.
package bconv

import (
	"fmt"
	"math/big"
	"sync"

	"ciflow/internal/ring"
)

// Converter performs basis conversion from a fixed source basis to a
// fixed destination basis over one ring. Immutable after construction
// (the scratch pool is internally synchronized); safe for concurrent
// use.
type Converter struct {
	r   *ring.Ring
	src ring.Basis
	dst ring.Basis

	// bHatInv[i] = (B*/b_i)^(-1) mod b_i, with its Shoup constant.
	bHatInv, bHatInvShoup []uint64
	// bHatMod[j][i] = (B*/b_i) mod c_j: one column of constants per
	// destination tower, aligned with the ŷ rows. Its last entry,
	// bHatMod[j][|B|] = −B* mod c_j, is aligned with the overshoot row
	// that follows them in an exact conversion.
	bHatMod [][]uint64
	// maxSrc, the largest source modulus, bounds the operands of the
	// deferred sum (the ŷ rows are reduced modulo the source moduli,
	// which may exceed the destination's; an overshoot is below |B|)
	// and so the products one reduction may take: mod.AccTerms.
	maxSrc uint64
	// srcInv[i] = 1/b_i as a float, for the overshoot estimate.
	srcInv []float64

	scratch sync.Pool // *convScratch
}

// convScratch is |src|+1 rows of N: the ŷ_i vectors, then the
// overshoot per coefficient.
type convScratch struct{ y [][]uint64 }

// New builds a Converter from basis src to basis dst. The bases must
// be disjoint (a tower cannot be converted onto itself).
func New(r *ring.Ring, src, dst ring.Basis) (*Converter, error) {
	if len(src) == 0 || len(dst) == 0 {
		return nil, fmt.Errorf("bconv: empty basis (src=%v dst=%v)", src, dst)
	}
	for _, t := range dst {
		if src.Contains(t) {
			return nil, fmt.Errorf("bconv: tower %d in both source and destination", t)
		}
	}
	c := &Converter{
		r:            r,
		src:          append(ring.Basis(nil), src...),
		dst:          append(ring.Basis(nil), dst...),
		bHatInv:      make([]uint64, len(src)),
		bHatInvShoup: make([]uint64, len(src)),
		bHatMod:      make([][]uint64, len(dst)),
		srcInv:       make([]float64, len(src)),
	}
	for j := range c.bHatMod {
		c.bHatMod[j] = make([]uint64, len(src)+1)
	}
	B := r.BasisProduct(src)
	for i, ti := range src {
		c.maxSrc = max(c.maxSrc, r.Moduli[ti])
		bi := new(big.Int).SetUint64(r.Moduli[ti])
		bHat := new(big.Int).Div(B, bi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(bHat, bi), bi)
		if inv == nil {
			return nil, fmt.Errorf("bconv: moduli not coprime at tower %d", ti)
		}
		c.bHatInv[i] = inv.Uint64()
		c.bHatInvShoup[i] = r.Mods[ti].ShoupPrecomp(c.bHatInv[i])
		c.srcInv[i] = 1 / float64(r.Moduli[ti])
		for j, tj := range dst {
			c.bHatMod[j][i] = bigModUint64(bHat, r.Moduli[tj])
		}
	}
	for j, tj := range dst {
		c.bHatMod[j][len(src)] = r.Mods[tj].Neg(bigModUint64(B, r.Moduli[tj]))
	}
	c.scratch.New = func() any {
		s := &convScratch{y: make([][]uint64, len(c.src)+1)}
		for i := range s.y {
			s.y[i] = make([]uint64, r.N)
		}
		return s
	}
	return c, nil
}

// Src returns the converter's source basis.
func (c *Converter) Src() ring.Basis { return c.src }

// Dst returns the converter's destination basis.
func (c *Converter) Dst() ring.Basis { return c.dst }

func (c *Converter) checkConvert(in, out *ring.Poly) {
	if !in.Basis.Equal(c.src) {
		panic(fmt.Sprintf("bconv: input basis %v, converter source %v", in.Basis, c.src))
	}
	if !out.Basis.Equal(c.dst) {
		panic(fmt.Sprintf("bconv: output basis %v, converter destination %v", out.Basis, c.dst))
	}
	if in.IsNTT {
		panic("bconv: conversion requires coefficient domain")
	}
}

// ---- Per-tower tiles ----
//
// These are the building blocks the dataflow schedules tile over
// towers; each is safe to run concurrently with tiles touching other
// rows.

// yScaleRow computes ŷ_i = x_i · (B*/b_i)^{-1} mod b_i for source
// tower index i. in is the tower's coefficient-domain row; out
// receives the scaled row and may alias in.
func (c *Converter) yScaleRow(i int, in, out []uint64) {
	c.r.Mods[c.src[i]].MulShoupRow(out[:len(in)], in, c.bHatInv[i], c.bHatInvShoup[i])
}

// YScale returns the ŷ constant (B*/b_i)^{-1} mod b_i of source tower
// index i: the multiply that turns a source row into its ŷ row, for a
// caller that folds it into a kernel of its own (internal/hks folds it
// into the tower's inverse NTT).
func (c *Converter) YScale(i int) uint64 { return c.bHatInv[i] }

// ConvertTowerFromY sums destination tower dstIdx (an index into Dst)
// from the pre-scaled ŷ rows, overwriting dst without reading it.
// Combined with the ŷ scale it is bit-exact with Convert's per-tower
// result.
func (c *Converter) ConvertTowerFromY(y [][]uint64, dstIdx int, dst []uint64) {
	n := len(c.src)
	c.r.Mods[c.dst[dstIdx]].MulSumScalars(dst, y[:n], c.bHatMod[dstIdx][:n], c.maxSrc)
}

// Overshoot estimates u_k = round(Σ_i ŷ_i[k] / b_i) for coefficients
// k in [from, to) from the |src| ŷ rows at the head of y, writing into
// the row that follows them, y[|src|][from:to]. The float sum runs in
// ascending source order so chunked and serial evaluation agree
// bit-exactly.
//
// Every ŷ is below its modulus, under 2^62, and the estimate is below
// |src|, so converting through int64 gives the values the unsigned
// conversions would, each in one instruction where Go's uint64↔float64
// conversions branch. Three sources — ModDown out of the three P towers
// of every shipped shape — run unrolled over row sub-slices of one
// length, with no per-element bounds checks.
func (c *Converter) Overshoot(y [][]uint64, from, to int) {
	u := y[len(c.src)][from:to]
	inv := c.srcInv
	if len(inv) == 3 {
		y0, y1, y2 := y[0][from:to][:len(u)], y[1][from:to][:len(u)], y[2][from:to][:len(u)]
		i0, i1, i2 := inv[0], inv[1], inv[2]
		for k := range u {
			v := float64(int64(y0[k])) * i0
			v += float64(int64(y1[k])) * i1
			v += float64(int64(y2[k])) * i2
			u[k] = uint64(int64(v + 0.5))
		}
		return
	}
	for k := range u {
		var v float64
		for i, row := range y[:len(inv)] {
			v += float64(int64(row[from+k])) * inv[i]
		}
		u[k] = uint64(int64(v + 0.5))
	}
}

// ConvertExactTowerFromY is ConvertTowerFromY with the overshoot
// removed: dst_k = Σ_i ŷ_i[k]·(B*/b_i) − u_k·B* (mod c_j), where u is
// the row Overshoot left after the ŷ rows and −B* mod c_j the constant
// aligned with it, so the removal is one more term of the same sum.
// Combined with the ŷ scale and Overshoot it is bit-exact with
// ConvertExact's per-tower result.
func (c *Converter) ConvertExactTowerFromY(y [][]uint64, dstIdx int, dst []uint64) {
	n := len(c.src) + 1
	c.r.Mods[c.dst[dstIdx]].MulSumScalars(dst, y[:n], c.bHatMod[dstIdx], c.maxSrc)
}

// ---- Full conversions ----

// Convert converts in (coefficient domain, basis = Src) into out
// (basis = Dst), overwriting out. in is not modified. Scratch comes
// from an internal pool, so steady-state conversion does not allocate.
func (c *Converter) Convert(in, out *ring.Poly) {
	c.checkConvert(in, out)
	s := c.scratch.Get().(*convScratch)
	for i := range c.src {
		c.yScaleRow(i, in.Coeffs[i], s.y[i])
	}
	for j := range c.dst {
		c.ConvertTowerFromY(s.y, j, out.Coeffs[j])
	}
	c.scratch.Put(s)
	out.IsNTT = false
}

// ConvertExact converts in into out like Convert, but removes the
// overshoot with the Halevi–Polyakov–Shoup floating-point correction:
// u = round(Σ_i y_i / b_i) is subtracted, so the result is the
// *centered* representative x̃ ∈ [-B*/2, B*/2) reduced into each
// destination tower. Used by ModDown, where the overshoot would
// otherwise add P-scaled noise.
func (c *Converter) ConvertExact(in, out *ring.Poly) {
	c.checkConvert(in, out)
	s := c.scratch.Get().(*convScratch)
	for i := range c.src {
		c.yScaleRow(i, in.Coeffs[i], s.y[i])
	}
	c.Overshoot(s.y, 0, c.r.N)
	for j := range c.dst {
		c.ConvertExactTowerFromY(s.y, j, out.Coeffs[j])
	}
	c.scratch.Put(s)
	out.IsNTT = false
}

func bigModUint64(x *big.Int, q uint64) uint64 {
	return new(big.Int).Mod(x, new(big.Int).SetUint64(q)).Uint64()
}

// Ops returns the modular-multiplication count of one full conversion:
// N·|src| for the ŷ scaling plus N·|src|·|dst| for the accumulation.
func (c *Converter) Ops() int {
	return c.r.N*len(c.src) + c.r.N*len(c.src)*len(c.dst)
}
