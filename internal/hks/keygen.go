package hks

import (
	"fmt"
	"sync"

	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

// GenEvk generates the evaluation key that re-encrypts from sOld to
// sNew. Both secrets must carry every tower of D_ℓ, each in the domain
// its IsNTT says: a secret in the NTT domain is read as it stands, one
// in the coefficient domain is transformed once per tower. Digit j is
// B_j = e_j − A_j·sNew + w_j·sOld over D_ℓ in the NTT domain, with A_j
// uniform, e_j Gaussian and w_j the digit's gadget factor.
//
// The key runs as one graph on engine.Default(). The sampler's stream
// is drawn in the order the key has always drawn it, one node per
// digit in a chain: the 32-byte seed that A_j expands from (recorded on
// the key for Compress), then e_j's N Gaussian integers. That fixes
// every bit of the key, and each (digit, tower) task starts as soon as
// its digit's draw is done and its tower's secrets are prepared: it
// draws A_j's row from its seed, lifts e_j into B_j's row, transforms
// it, and accumulates −A_j·sNew and, where the gadget factor is
// non-zero (digit j's own towers; never a P tower), w_j·sOld. The key
// remains a pure function of the sampler's seed and the secrets,
// whichever worker builds which row.
func (sw *Switcher) GenEvk(sampler *ring.Sampler, sOld, sNew *ring.Poly) *Evk {
	evk := &Evk{B: make([]*ring.Poly, sw.Dnum), A: make([]*ring.Poly, sw.Dnum), Seeds: make([]ring.Seed, sw.Dnum), r: sw.R}
	for j := range sw.Dnum {
		evk.A[j] = sw.R.NewPoly(sw.dBasis)
		evk.B[j] = sw.R.NewPoly(sw.dBasis)
		evk.A[j].IsNTT, evk.B[j].IsNTT = true, true
	}
	sw.genEvk(sampler, sOld, sNew, evk)
	return evk
}

// GenCompressedEvk generates GenEvk's key — the same sampler draws the
// same bits — in the seed-compressed form, without a dense half: each
// task builds its A- and B-row in scratch and packs the B-row into the
// key, so GenCompressedEvk(…).Expand(r) equals GenEvk(…).
func (sw *Switcher) GenCompressedEvk(sampler *ring.Sampler, sOld, sNew *ring.Poly) *CompressedEvk {
	c := newCompressedEvk(sw.R, sw.dBasis, sw.Dnum)
	sw.genEvk(sampler, sOld, sNew, c)
	return c
}

// keygen is one key generation's run state: a graph over the
// switcher's shape, built once and reused (Switcher.keygens), whose
// closures read the run's inputs from the fields below.
type keygen struct {
	sw *Switcher
	g  *engine.Graph

	sampler    *ring.Sampler
	sOld, sNew *ring.Poly
	seeds      []ring.Seed
	dense      *Evk
	packed     *CompressedEvk

	ints []int64 // e_j's integers, N per digit
	// negS holds −sNew per tower of D_ℓ in the NTT domain; oldNTT holds
	// sOld's transformed towers when sOld is in the coefficient domain.
	// Both come from the ring's pool for the run. old[t] is the row of
	// sOld's tower t the tasks read: sOld's own or oldNTT's.
	negS, oldNTT *ring.Poly
	old          [][]uint64
}

// newKeygen builds sw's key generation graph: a chain of draw nodes,
// one per digit; a prep node per tower of D_ℓ; and a node per (digit,
// tower) after its digit's draw and its tower's prep. The draws come
// first, so each one's successor draw is queued ahead of its tasks.
func newKeygen(sw *Switcher) *keygen {
	k := &keygen{sw: sw, g: engine.NewGraph(), ints: make([]int64, sw.Dnum*sw.R.N), old: make([][]uint64, len(sw.dBasis))}
	draws := make([]int, sw.Dnum)
	for j := range draws {
		draws[j] = k.g.Node(func() { k.draw(j) }, draws[max(j-1, 0):j]...)
	}
	preps := make([]int, len(sw.dBasis))
	for t := range preps {
		preps[t] = k.g.Node(func() { k.prep(t) })
	}
	for j := range draws {
		for t := range preps {
			k.g.Node(func() { k.row(j, t) }, draws[j], preps[t])
		}
	}
	return k
}

// draw draws digit j's part of the sampler's stream: its seed, then
// e_j's N Gaussian integers.
func (k *keygen) draw(j int) {
	n := k.sw.R.N
	k.seeds[j] = k.sampler.NewSeed()
	k.sampler.GaussianInts(k.ints[j*n : (j+1)*n])
}

// prep readies tower t of both secrets in the NTT domain: −sNew into
// negS, and sOld's row, transformed into oldNTT when it is in the
// coefficient domain and some digit's gadget factor is non-zero there.
func (k *keygen) prep(t int) {
	sw := k.sw
	tw := sw.dBasis[t]
	m, tab := sw.R.Mods[tw], sw.R.Tables[tw]
	neg := k.negS.Coeffs[t]
	copy(neg, k.sNew.Tower(tw))
	if !k.sNew.IsNTT {
		tab.Forward(neg)
	}
	for i, x := range neg {
		neg[i] = m.Neg(x)
	}
	k.old[t] = k.sOld.Tower(tw)
	if k.oldNTT == nil {
		return
	}
	for j := range sw.Dnum {
		if sw.gadget[j][t] != 0 {
			row := k.oldNTT.Coeffs[t]
			copy(row, k.old[t])
			tab.Forward(row)
			k.old[t] = row
			return
		}
	}
}

// row builds tower t of digit j: A_j's row from its seed, e_j lifted
// into B_j's row and transformed, then −A_j·sNew and w_j·sOld added.
// A packed key's rows are built in pooled scratch and its B-row packed
// into the key.
func (k *keygen) row(j, t int) {
	sw, n := k.sw, k.sw.R.N
	tw := sw.dBasis[t]
	m := sw.R.Mods[tw]
	var a, b []uint64
	if k.packed != nil {
		rows := getRows(&sw.genRows, 2*n)
		defer sw.genRows.Put(rows)
		a, b = (*rows)[:n], (*rows)[n:]
	} else {
		a, b = k.dense.A[j].Coeffs[t], k.dense.B[j].Coeffs[t]
	}
	sw.R.UniformRowFromSeed(a, sw.dBasis, t, k.seeds[j])
	sw.R.LiftInts(b, tw, k.ints[j*n:(j+1)*n])
	sw.R.Tables[tw].Forward(b)
	m.MulAccRows(b, [][]uint64{a}, [][]uint64{k.negS.Coeffs[t]}, m.Q)
	if w := sw.gadget[j][t]; w != 0 {
		m.MulAccScalars(b, [][]uint64{k.old[t]}, []uint64{w}, m.Q)
	}
	if k.packed != nil {
		m.PackRow(k.packed.B[j][t], b)
	}
}

// genEvk is the one key generator. It records every digit's seed on
// key and builds the key's rows: a dense *Evk's in place, a
// *CompressedEvk's in the tasks' scratch, whose B-rows it packs into
// the key.
func (sw *Switcher) genEvk(sampler *ring.Sampler, sOld, sNew *ring.Poly, key KeyMaterial) {
	for _, tw := range sw.dBasis {
		if sOld.Tower(tw) == nil || sNew.Tower(tw) == nil {
			panic(fmt.Sprintf("hks: GenEvk secrets must carry every tower of %v", sw.dBasis))
		}
	}
	k, _ := sw.keygens.Get().(*keygen)
	if k == nil {
		k = newKeygen(sw)
	}
	switch key := key.(type) {
	case *Evk:
		k.dense, k.seeds = key, key.Seeds
	case *CompressedEvk:
		k.packed, k.seeds = key, key.Seeds
	}
	r := sw.R
	k.sampler, k.sOld, k.sNew = sampler, sOld, sNew
	k.negS = r.GetPoly(sw.dBasis)
	if !sOld.IsNTT {
		k.oldNTT = r.GetPoly(sw.dBasis)
	}
	engine.Default().RunGraph(k.g)
	r.PutPoly(k.negS)
	if k.oldNTT != nil {
		r.PutPoly(k.oldNTT)
	}
	*k = keygen{sw: sw, g: k.g, ints: k.ints, old: k.old}
	clear(k.old)
	sw.keygens.Put(k)
}

// getRows returns a pooled slice of n words, allocating one when the
// pool holds none with room for n. Put it back on the same pool.
func getRows(p *sync.Pool, n int) *[]uint64 {
	if s, _ := p.Get().(*[]uint64); s != nil && cap(*s) >= n {
		*s = (*s)[:n]
		return s
	}
	s := make([]uint64, n)
	return &s
}
