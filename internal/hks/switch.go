package hks

// Entry points onto the one pipeline: each checks its arguments, draws
// a pooled state, binds input, key and outputs, and runs a schedule of
// schedule.go over the tiles of tiles.go.
//
// Hoisting is the entry point for fan-out: when one input polynomial
// feeds k evaluation keys (the rotation fan-out of the diagonal method,
// paper §I's private-inference workload), Decompose+ModUp — the left
// half of paper Figure 1 and the bulk of its INTT/BConv/NTT work — does
// not depend on the key. A hoist runs it once and each replay runs only
// ApplyKey+Reduce+ModDown, saving (k−1)·ModUpOps weighted modular
// operations (HoistedOpsSaved). States come from and return to the
// switcher's pool, and a warm graph run allocates nothing, so
// steady-state switching allocates nothing but what the caller asks for.

import (
	"fmt"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

// sameStorage reports whether two polynomials over the same basis
// share their first residue row (the cheap aliasing check for polys
// whose bases were already validated equal).
func sameStorage(a, b *ring.Poly) bool {
	return len(a.Coeffs) > 0 && len(a.Coeffs[0]) > 0 &&
		len(b.Coeffs) > 0 && len(b.Coeffs[0]) > 0 &&
		&a.Coeffs[0][0] == &b.Coeffs[0][0]
}

// must panics with err's message: how the entry points, for which a bad
// argument is a programming error, use the error-returning Check
// functions that request-accepting layers call directly.
func must(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// checkReplay is the precondition of every ApplyKey+ModDown, alone or
// inside a per-rotation switch: key, of either form, passes
// CheckMaterial, and (c0, c1) are distinct polynomials over B_ℓ that
// share no storage with the input d, whose rows the apply tiles read
// as the digits' own towers. It panics with the reason otherwise.
func (sw *Switcher) checkReplay(key KeyMaterial, d, c0, c1 *ring.Poly) {
	must(sw.CheckMaterial(key))
	if !c0.Basis.Equal(sw.qBasis) || !c1.Basis.Equal(sw.qBasis) {
		panic("hks: switch output basis mismatch")
	}
	// The two outputs' tiles run concurrently with no cross dependency,
	// so aliased storage would race silently.
	if c0 == c1 || sameStorage(c0, c1) {
		panic("hks: switch outputs must not alias each other")
	}
	if sameStorage(c0, d) || sameStorage(c1, d) {
		panic("hks: switch outputs must not alias the input")
	}
}

// bind aims the replay tiles at key and the outputs.
func (h *Hoisted) bind(key KeyMaterial, c0, c1 *ring.Poly) {
	h.key, h.out = key, [2]*ring.Poly{c0, c1}
}

func (h *Hoisted) unbind() {
	h.out[0].IsNTT, h.out[1].IsNTT = true, true
	h.key, h.out = nil, [2]*ring.Poly{}
}

// run runs the state's graph over hf on e, inside one borrow of run
// scratch; a nil engine is engine.Default(). The serial entry points
// pass engine.Inline(). RunGraph returns once every node has finished,
// a panicking one included, so the slab goes back unused by any tile.
func (h *Hoisted) run(e *engine.Engine, hf half) {
	if e == nil {
		e = engine.Default()
	}
	defer h.giveBack(h.borrow())
	e.RunGraph(h.schedule(hf))
}

// ---- Per-rotation switching ----

// KeySwitch runs the complete HKS pipeline on d (NTT domain over B_ℓ)
// on the calling goroutine, returning freshly allocated (c0, c1) over
// B_ℓ such that c0 + c1·s ≈ d·s′: MP's fused graph on engine.Inline().
// Like every entry point it takes the key in either form.
func (sw *Switcher) KeySwitch(d *ring.Poly, key KeyMaterial) (c0, c1 *ring.Poly) {
	c0, c1 = sw.R.NewPoly(sw.qBasis), sw.R.NewPoly(sw.qBasis)
	sw.SwitchParallelInto(engine.Inline(), dataflow.MP, d, key, c0, c1)
	return c0, c1
}

// SwitchParallelInto runs the complete HKS pipeline on d (NTT domain
// over B_ℓ) as one fused task graph on e, shaped by the given dataflow,
// writing (c0, c1) into caller-provided output polynomials over B_ℓ, so
// a steady-state caller reusing its outputs performs zero per-op
// allocations. The result is bit-exact with KeySwitch for every
// dataflow. c0/c1 must not alias d. A nil engine uses
// engine.Default(). Safe for concurrent use on one Switcher.
func (sw *Switcher) SwitchParallelInto(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, key KeyMaterial, c0, c1 *ring.Poly) {
	must(sw.CheckInput(d))
	sw.checkReplay(key, d, c0, c1)
	h := sw.state(df)
	h.d = d
	h.bind(key, c0, c1)
	h.run(e, whole)
	h.unbind()
	h.Release()
}

// ---- Hoisted switching ----

// HoistParallel runs Decompose+ModUp once over d (NTT domain over B_ℓ)
// as a task graph on e, shaped by the given dataflow — its plan's
// ModUp half — and returns the reusable hoisted state, whose replays
// run the same plan's other half. The state keeps only the rows the
// converters wrote; its replays read each digit's own towers from d,
// which must stay unchanged until the last replay returns. Call
// Release when done with it; Release reads nothing. A nil engine uses engine.Default(); engine.Inline() runs every
// tile on the caller.
func (sw *Switcher) HoistParallel(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly) *Hoisted {
	must(sw.CheckInput(d))
	h := sw.state(df)
	h.d = d
	h.run(e, modUp)
	return h
}

// SwitchParallelInto replays the hoisted ModUp against one evaluation
// key, running ApplyKey+Reduce+ModDown into caller-provided outputs
// (c0, c1) over B_ℓ as a task graph on e, shaped by the dataflow the
// state was hoisted under; nil uses engine.Default(). Bit-exact with
// KeySwitch(d, key). c0/c1 must not alias the hoisted input d. A warm
// replay performs zero allocations.
func (h *Hoisted) SwitchParallelInto(e *engine.Engine, key KeyMaterial, c0, c1 *ring.Poly) {
	h.sw.checkReplay(key, h.d, c0, c1)
	h.bind(key, c0, c1)
	h.run(e, replay)
	h.unbind()
}

// SwitchHoisted switches d (NTT domain over B_ℓ) with every key in
// evks while running Decompose+ModUp only once, on the calling
// goroutine — SwitchHoistedParallelInto on engine.Inline() under MP —
// returning one freshly allocated (c0, c1) pair per key in input
// order. Each pair is bit-exact with KeySwitch(d, evks[i]).
func (sw *Switcher) SwitchHoisted(d *ring.Poly, evks []*Evk) (c0s, c1s []*ring.Poly) {
	c0s = make([]*ring.Poly, len(evks))
	c1s = make([]*ring.Poly, len(evks))
	for i := range evks {
		c0s[i], c1s[i] = sw.R.NewPoly(sw.qBasis), sw.R.NewPoly(sw.qBasis)
	}
	sw.SwitchHoistedParallelInto(engine.Inline(), dataflow.MP, d, evks, c0s, c1s)
	return c0s, c1s
}

// SwitchHoistedParallelInto is SwitchHoisted on the engine: the shared
// ModUp runs as df's plan's ModUp half, then each key's replay, the
// plan's other half, writes into the caller-provided c0s[i], c1s[i].
// With reused outputs a steady-state caller performs no per-op limb
// allocations. Outputs must be pairwise non-aliased. Bit-exact with per-key KeySwitch for
// every dataflow.
func (sw *Switcher) SwitchHoistedParallelInto(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, evks []*Evk, c0s, c1s []*ring.Poly) {
	if len(c0s) != len(evks) || len(c1s) != len(evks) {
		panic(fmt.Sprintf("hks: SwitchHoistedParallelInto got %d keys but %d/%d outputs",
			len(evks), len(c0s), len(c1s)))
	}
	h := sw.HoistParallel(e, df, d)
	defer h.Release()
	for i, evk := range evks {
		h.SwitchParallelInto(e, evk, c0s[i], c1s[i])
	}
}
