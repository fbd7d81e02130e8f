package hks

// SwitcherPool is the level-parameterized construction helper behind
// level-aware serving: one Switcher per active ciphertext level, built
// lazily over a shared ring and memoized, so a layer routing a
// multi-level request stream (internal/serve, ckks.KeyChain) pays the
// NewSwitcher precomputation once per level instead of owning one
// instance per (caller, level).
//
// A Switcher holds no secret material — digit partitions, converters,
// and gadget factors derive from the public ring parameters alone — so
// one pool (and each switcher in it) is safely shared by any number of
// tenants/keyspaces; only evaluation keys are per-tenant.

import (
	"ciflow/internal/memo"
	"ciflow/internal/ring"
)

// SwitcherPool lazily builds and memoizes one Switcher per level over
// a shared ring. Safe for concurrent use; the zero value is not usable,
// construct with NewSwitcherPool.
type SwitcherPool struct {
	r    *ring.Ring
	dnum int

	// Construction runs once per level, outside the map lock, so a cold
	// level's (expensive) NewSwitcher never stalls concurrent lookups of
	// warm levels — the pool sits on the submit path of every tenant of
	// a serving layer.
	byLevel memo.Map[int, *Switcher]
}

// NewSwitcherPool prepares a pool over r with the given digit count.
// Parameter validation happens per level inside Switcher (a dnum too
// large for a low level is clamped, an invalid level errors there).
func NewSwitcherPool(r *ring.Ring, dnum int) *SwitcherPool {
	return &SwitcherPool{r: r, dnum: dnum}
}

// Switcher returns (building and memoizing on first use) the switcher
// for a level. The digit count is clamped to level+1 — fewer active
// towers than digits would leave empty digits — so rescale-heavy
// workloads can descend to any level without re-tuning dnum. Every
// level sizes its slabs' drawn rows for the unclamped count, so one
// slab fits a run at any level.
// Construction errors are memoized too: level and dnum are the only
// inputs, so a level that failed once fails always.
func (p *SwitcherPool) Switcher(level int) (*Switcher, error) {
	return p.byLevel.Do(level, func() (*Switcher, error) {
		return newSwitcher(p.r, level, min(p.dnum, level+1), min(p.dnum, p.r.NumQ))
	})
}
