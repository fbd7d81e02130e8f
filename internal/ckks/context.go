// Package ckks implements a compact CKKS scheme (Cheon–Kim–Kim–Song)
// on top of the hybrid key-switching core in internal/hks: encoding of
// real/complex vectors via the canonical embedding, public-key
// encryption, addition, multiplication with relinearization and
// rescaling, and slot rotation via Galois automorphisms.
//
// This is the workload layer of the CiFlow reproduction: rotations and
// multiplications are exactly the operations that trigger key
// switching (paper §II), and examples/private_inference uses this
// package to measure the HKS share of a linear-layer workload. The
// evaluator switches on the caller; the engine-scheduled dataflows are
// hks's, and internal/serve runs them for the rotations it serves.
//
// A rotation has one key form and one path. The key is the hoisting
// form s → σ_g⁻¹(s) (KeyChain.HoistKey): the un-rotated c1 is switched
// first and σ_g is applied to the switched pair afterwards. Switching
// first is what lets a fan-out share its Decompose+ModUp —
// RotateHoisted, and Apply's diagonal method on top of it, run it once
// for all rotation amounts — and it makes the pair internal/serve
// returns for (c1, rot, level) the very pair Rotate computes, so the
// evaluator can check the serving stack bit for bit. Rotate is
// RotateHoisted's fan-out of one.
//
// KeyChain is the key authority for the layers above: it lazily
// generates switchers and evaluation keys per level, each key once
// through one memo, is safe for concurrent use, and backs the bounded
// rotation-key LRU of the internal/serve service — memoization is what
// keeps served results bit-exact across cache evictions and reloads.
//
// The implementation favours clarity and exact testability over
// performance and side-channel hygiene; it must not be used to protect
// real data.
package ckks

import (
	"fmt"
	"sync"

	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// Context carries the public parameters of a CKKS instance.
type Context struct {
	R        *ring.Ring
	Scale    float64 // Δ, the encoding scale
	Dnum     int     // key-switching digit count
	MaxLevel int     // top level L (towers q_0..q_L)

	// poolOnce/pool back Switchers: one shared per-level switcher pool
	// for every key chain over this context (switchers are public
	// precomputation — see hks.SwitcherPool — so tenants share them).
	poolOnce sync.Once
	pool     *hks.SwitcherPool
}

// NewContext builds a CKKS context over a generated ring with numQ
// Q-moduli of qBits bits and numP P-moduli of pBits bits. The scale is
// set to 2^qBits so that rescaling after multiplication approximately
// preserves it.
func NewContext(n, numQ, qBits, numP, pBits, dnum int) (*Context, error) {
	r, err := ring.NewRingGenerated(n, numQ, qBits, numP, pBits)
	if err != nil {
		return nil, err
	}
	if dnum < 1 || dnum > numQ {
		return nil, fmt.Errorf("ckks: dnum %d out of range [1,%d]", dnum, numQ)
	}
	return &Context{
		R:        r,
		Scale:    float64(uint64(1) << uint(qBits)),
		Dnum:     dnum,
		MaxLevel: numQ - 1,
	}, nil
}

// Slots returns the number of message slots, N/2.
func (c *Context) Slots() int { return c.R.N / 2 }

// Switchers returns the context's shared per-level switcher pool
// (lazily created): one hks.Switcher per level, with the digit count
// shrinking automatically when fewer towers than dnum remain active.
// Every KeyChain over this context draws from the same pool, so a
// multi-tenant deployment (one chain per tenant) builds each level's
// switcher once.
func (c *Context) Switchers() *hks.SwitcherPool {
	c.poolOnce.Do(func() { c.pool = hks.NewSwitcherPool(c.R, c.Dnum) })
	return c.pool
}
