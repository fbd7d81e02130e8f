// Package ring implements RNS polynomial arithmetic in
// Z_Q[X]/(X^N+1), the substrate of CKKS and of the hybrid
// key-switching algorithm analyzed by CiFlow.
//
// A Ring owns the full moduli chain — the L+1 "Q towers" q_0..q_L plus
// the K auxiliary "P towers" p_0..p_{K-1} (paper Table I) — with one
// NTT table per modulus. A Poly stores one residue row ("tower",
// paper §II) per modulus of its Basis, mirroring the N×ℓ matrix view
// the paper uses for dataflow analysis.
package ring

import (
	"fmt"
	"sync"

	"ciflow/internal/mod"
	"ciflow/internal/ntt"
	"ciflow/internal/primes"
)

// Ring is the arithmetic context for Z[X]/(X^N+1) under an RNS moduli
// chain. Immutable after construction; safe for concurrent use.
type Ring struct {
	N      int
	Moduli []uint64 // q_0..q_L, p_0..p_{K-1}
	NumQ   int      // L+1
	NumP   int      // K

	Mods   []mod.Modulus
	Tables []*ntt.Table

	// recycled holds polynomials handed back with PutPoly, one pool
	// per basis length. Internally synchronized.
	recycled []sync.Pool
	// scratch recycles the serializer's row buffer (serialize.go).
	scratch sync.Pool
	// The seed expander's jumps (seed.go), built on first use: one
	// places the vector lanes of a row, the other starts a tower.
	jumpOnce  sync.Once
	laneJump  *jumpTable
	towerJump *jumpTable
}

// NewRing constructs a ring of degree n with the given Q and P chains.
// All moduli must be distinct NTT-friendly primes for degree n.
func NewRing(n int, qs, ps []uint64) (*Ring, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("ring: empty Q chain")
	}
	all := make([]uint64, 0, len(qs)+len(ps))
	all = append(all, qs...)
	all = append(all, ps...)
	seen := make(map[uint64]bool, len(all))
	r := &Ring{
		N:      n,
		Moduli: all,
		NumQ:   len(qs),
		NumP:   len(ps),
		Mods:   make([]mod.Modulus, len(all)),
		Tables: make([]*ntt.Table, len(all)),

		recycled: make([]sync.Pool, len(all)+1),
	}
	for i, q := range all {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		if !mod.IsPrime(q) {
			return nil, fmt.Errorf("ring: modulus %d is not prime", q)
		}
		tab, err := ntt.NewTable(n, q)
		if err != nil {
			return nil, fmt.Errorf("ring: modulus %d: %w", q, err)
		}
		r.Mods[i] = mod.New(q)
		r.Tables[i] = tab
	}
	return r, nil
}

// NewRingGenerated constructs a ring of degree n with numQ Q-moduli of
// qBits bits and numP P-moduli of pBits bits, generated automatically.
// Q and P chains draw from disjoint prime sequences (P scans from a
// different bit size or continues past Q's primes).
func NewRingGenerated(n, numQ, qBits, numP, pBits int) (*Ring, error) {
	if qBits == pBits {
		// One scan, split between the chains, keeps all primes distinct.
		all, err := primes.Generate(qBits, n, numQ+numP)
		if err != nil {
			return nil, err
		}
		return NewRing(n, all[:numQ], all[numQ:])
	}
	qs, err := primes.Generate(qBits, n, numQ)
	if err != nil {
		return nil, err
	}
	var ps []uint64
	if numP > 0 {
		ps, err = primes.Generate(pBits, n, numP)
		if err != nil {
			return nil, err
		}
	}
	return NewRing(n, qs, ps)
}

// QBasis returns the basis of the first level+1 Q towers
// (B_ℓ in paper Table I).
func (r *Ring) QBasis(level int) Basis {
	if level < 0 || level >= r.NumQ {
		panic(fmt.Sprintf("ring: level %d out of range [0,%d)", level, r.NumQ))
	}
	b := make(Basis, level+1)
	for i := range b {
		b[i] = i
	}
	return b
}

// PBasis returns the basis of all K P towers (C in paper Table I).
func (r *Ring) PBasis() Basis {
	b := make(Basis, r.NumP)
	for i := range b {
		b[i] = r.NumQ + i
	}
	return b
}

// DBasis returns the union basis D_ℓ = B_ℓ ∪ C (paper Table I).
func (r *Ring) DBasis(level int) Basis {
	return append(r.QBasis(level), r.PBasis()...)
}

// Basis is an ordered set of tower indices into Ring.Moduli.
type Basis []int

// Equal reports whether two bases contain the same towers in the same
// order.
func (b Basis) Equal(o Basis) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Sub returns the sub-basis b[from:to].
func (b Basis) Sub(from, to int) Basis {
	return b[from:to]
}

// Contains reports whether tower t is in the basis.
func (b Basis) Contains(t int) bool {
	for _, x := range b {
		if x == t {
			return true
		}
	}
	return false
}

// Poly is an RNS polynomial: one length-N residue row per tower of its
// basis. IsNTT records whether rows are in the evaluation domain.
type Poly struct {
	Basis  Basis
	Coeffs [][]uint64
	IsNTT  bool
}

// NewPoly allocates a zero polynomial over basis b.
func (r *Ring) NewPoly(b Basis) *Poly {
	c := make([][]uint64, len(b))
	backing := make([]uint64, len(b)*r.N)
	for i := range c {
		c[i], backing = backing[:r.N:r.N], backing[r.N:]
	}
	return &Poly{Basis: append(Basis(nil), b...), Coeffs: c}
}

// GetPoly returns a polynomial over basis b for short-lived use,
// recycling one handed back with PutPoly when the ring holds one of b's
// length and allocating otherwise. Its residues and domain flag are
// whatever the last user left: the caller overwrites every row.
func (r *Ring) GetPoly(b Basis) *Poly {
	if p, _ := r.recycled[len(b)].Get().(*Poly); p != nil {
		copy(p.Basis, b)
		return p
	}
	return r.NewPoly(b)
}

// PutPoly hands a polynomial obtained from GetPoly (or DecodePoly) back
// to the ring. It must not be used afterwards, and it goes back once.
// Hand back only what the pool produced: a pool's contents count as
// live heap until the next GC but one, so polynomials allocated
// elsewhere and put here raise every GC goal. In bench/'s bootstrap
// replays, handing back the sampled root inputs as well raised
// replay_bootstrap's peak RSS from about 250 to 370 MB, and handing
// back results the router had decoded into fresh polynomials raised
// cluster_bootstrap's from about 560 MB to 3.8–4.4 GB.
func (r *Ring) PutPoly(p *Poly) { r.recycled[len(p.Basis)].Put(p) }

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	q := &Poly{
		Basis:  append(Basis(nil), p.Basis...),
		Coeffs: make([][]uint64, len(p.Coeffs)),
		IsNTT:  p.IsNTT,
	}
	for i := range p.Coeffs {
		q.Coeffs[i] = append([]uint64(nil), p.Coeffs[i]...)
	}
	return q
}

// Tower returns the residue row for ring-tower index t, or nil if t is
// not in p's basis.
func (p *Poly) Tower(t int) []uint64 {
	for i, x := range p.Basis {
		if x == t {
			return p.Coeffs[i]
		}
	}
	return nil
}

// SubPoly returns a view (shared storage) of p restricted to basis b,
// which must be a subset of p's basis.
func (p *Poly) SubPoly(b Basis) *Poly {
	q := &Poly{Basis: append(Basis(nil), b...), Coeffs: make([][]uint64, len(b)), IsNTT: p.IsNTT}
	for i, t := range b {
		row := p.Tower(t)
		if row == nil {
			panic(fmt.Sprintf("ring: tower %d not present in poly basis %v", t, p.Basis))
		}
		q.Coeffs[i] = row
	}
	return q
}

func (r *Ring) checkMatch(op string, a, b, out *Poly) {
	if !a.Basis.Equal(b.Basis) || !a.Basis.Equal(out.Basis) {
		panic(fmt.Sprintf("ring: %s basis mismatch: %v vs %v vs %v", op, a.Basis, b.Basis, out.Basis))
	}
	if a.IsNTT != b.IsNTT {
		panic(fmt.Sprintf("ring: %s domain mismatch", op))
	}
}

// Add sets out = a + b tower-wise. Bases and domains must match.
func (r *Ring) Add(a, b, out *Poly) {
	r.checkMatch("Add", a, b, out)
	for i, t := range a.Basis {
		m := r.Mods[t]
		ar, br, or := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ar {
			or[j] = m.Add(ar[j], br[j])
		}
	}
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b tower-wise.
func (r *Ring) Sub(a, b, out *Poly) {
	r.checkMatch("Sub", a, b, out)
	for i, t := range a.Basis {
		m := r.Mods[t]
		ar, br, or := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ar {
			or[j] = m.Sub(ar[j], br[j])
		}
	}
	out.IsNTT = a.IsNTT
}

// Neg sets out = -a tower-wise.
func (r *Ring) Neg(a, out *Poly) {
	if !a.Basis.Equal(out.Basis) {
		panic("ring: Neg basis mismatch")
	}
	for i, t := range a.Basis {
		m := r.Mods[t]
		ar, or := a.Coeffs[i], out.Coeffs[i]
		for j := range ar {
			or[j] = m.Neg(ar[j])
		}
	}
	out.IsNTT = a.IsNTT
}

// MulCoeffwise sets out = a ⊙ b (point-wise product). Both operands
// must be in the NTT domain for this to implement ring multiplication.
func (r *Ring) MulCoeffwise(a, b, out *Poly) {
	r.checkMatch("MulCoeffwise", a, b, out)
	for i, t := range a.Basis {
		m := r.Mods[t]
		ar, br, or := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ar {
			or[j] = m.Mul(ar[j], br[j])
		}
	}
	out.IsNTT = a.IsNTT
}

// MulAddCoeffwise sets out += a ⊙ b point-wise: the one-term,
// accumulating case of the ApplyKey primitive mod.MulSumRows (paper
// ModUp P4/P5 fused accumulate; internal/hks sums all digits of a
// tower in one call).
func (r *Ring) MulAddCoeffwise(a, b, out *Poly) {
	r.checkMatch("MulAddCoeffwise", a, b, out)
	for i, t := range a.Basis {
		m := r.Mods[t]
		m.MulAccRows(out.Coeffs[i], a.Coeffs[i:i+1], b.Coeffs[i:i+1], m.Q)
	}
}

// MulScalar sets out = a · s, with the scalar reduced per tower.
func (r *Ring) MulScalar(a *Poly, s uint64, out *Poly) {
	if !a.Basis.Equal(out.Basis) {
		panic("ring: MulScalar basis mismatch")
	}
	for i, t := range a.Basis {
		m := r.Mods[t]
		sv := m.Reduce(s)
		m.MulShoupRow(out.Coeffs[i], a.Coeffs[i], sv, m.ShoupPrecomp(sv))
	}
	out.IsNTT = a.IsNTT
}

// MulTowerScalars sets out = a scaled per tower: tower i is multiplied
// by scalars[i] (already reduced modulo that tower's modulus). This is
// the gadget-factor application of key-switching key generation.
func (r *Ring) MulTowerScalars(a *Poly, scalars []uint64, out *Poly) {
	if !a.Basis.Equal(out.Basis) {
		panic("ring: MulTowerScalars basis mismatch")
	}
	if len(scalars) != len(a.Basis) {
		panic(fmt.Sprintf("ring: MulTowerScalars got %d scalars for %d towers", len(scalars), len(a.Basis)))
	}
	for i, t := range a.Basis {
		m := r.Mods[t]
		s := m.Reduce(scalars[i])
		m.MulShoupRow(out.Coeffs[i], a.Coeffs[i], s, m.ShoupPrecomp(s))
	}
	out.IsNTT = a.IsNTT
}

// NTT transforms every tower of p to the evaluation domain.
func (r *Ring) NTT(p *Poly) {
	if p.IsNTT {
		panic("ring: NTT on poly already in evaluation domain")
	}
	for i, t := range p.Basis {
		r.Tables[t].Forward(p.Coeffs[i])
	}
	p.IsNTT = true
}

// INTT transforms every tower of p back to the coefficient domain.
func (r *Ring) INTT(p *Poly) {
	if !p.IsNTT {
		panic("ring: INTT on poly already in coefficient domain")
	}
	for i, t := range p.Basis {
		r.Tables[t].Inverse(p.Coeffs[i])
	}
	p.IsNTT = false
}

// NTTTower transforms a single tower row in place for ring-tower t.
func (r *Ring) NTTTower(t int, row []uint64) { r.Tables[t].Forward(row) }

// INTTTower inverse-transforms a single tower row in place.
func (r *Ring) INTTTower(t int, row []uint64) { r.Tables[t].Inverse(row) }

// Equal reports whether two polynomials agree exactly (basis, domain
// and every coefficient).
func (p *Poly) Equal(q *Poly) bool {
	if !p.Basis.Equal(q.Basis) || p.IsNTT != q.IsNTT {
		return false
	}
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != q.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}
