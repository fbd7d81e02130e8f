package hks

// Hoisted hybrid key switching: when one input polynomial feeds k
// different evaluation keys (the rotation fan-out of the diagonal
// method, paper §I's private-inference workload), Decompose+ModUp —
// the left half of paper Figure 1 and the bulk of its INTT/BConv/NTT
// work — does not depend on the key. Hoisting runs it once and
// replays only ApplyKey+Reduce+ModDown per key, saving
// (k−1)·ModUpOps weighted modular operations (HoistedOpsSaved).
//
// The Hoisted state materializes the ModUp output (dnum polynomials
// over D_ℓ, bypass towers copied out of the input so the state
// outlives it) together with all replay scratch and two prebuilt
// task graphs:
//
//	hoist graph   — ModUp P1–P3 shaped by the chosen dataflow
//	                (MP/OC: per-tower tiles, DC: per-digit pipelines)
//	replay graph  — per-extended-tower ApplyKey accumulation followed
//	                by the shared ModDown stages, identical for every
//	                dataflow (the key-dependent half has no digit
//	                pipeline left to reshape)
//
// Both the serial and engine-backed paths run the tiles of KeySwitch
// on the same operands, and every tile's output is canonical, so every
// hoisted output is bit-exact with the corresponding per-rotation
// switch — the property the equivalence tests assert.
//
// States are pooled on the Switcher (one pool per dataflow shape):
// Hoist/HoistParallel draw from the pool and Release returns the
// state, so steady-state hoisted switching allocates nothing beyond
// the engine's per-run completion channel.

import (
	"fmt"
	"time"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// Hoisted is the shared-ModUp state of one input polynomial, ready to
// be replayed against any number of evaluation keys. Obtain it with
// Hoist or HoistParallel, replay with Switch/SwitchInto/
// SwitchParallelInto, and return it to the switcher's pool with
// Release. A Hoisted must not be used concurrently or after Release;
// concurrent hoisting of different inputs on one Switcher is safe.
type Hoisted struct {
	downState
	df dataflow.Dataflow

	ups []*ring.Poly // dnum ModUp outputs over D_ℓ (NTT domain)
	y   [][]uint64   // ℓ rows: INTT'd + ŷ-scaled digit towers

	hoistG  *engine.Graph
	replayG *engine.Graph

	d *ring.Poly // bound during the hoist phase only
}

func newHoisted(sw *Switcher, df dataflow.Dataflow) *Hoisted {
	ell, n := sw.ell(), sw.R.N
	h := &Hoisted{df: df}
	h.initDown(sw)

	h.ups = make([]*ring.Poly, sw.Dnum)
	for j := range h.ups {
		h.ups[j] = sw.R.NewPoly(sw.dBasis)
		h.ups[j].IsNTT = true
	}
	h.y = make([][]uint64, ell)
	for i := range h.y {
		h.y[i] = make([]uint64, n)
	}
	// The ModUp rows live in the state, so the accumulate's row headers
	// are bound once.
	for t, up := range h.upRows {
		for j := range up {
			up[j] = h.ups[j].Coeffs[t]
		}
	}

	// Hoist graph: ModUp P1–P3 shaped by the dataflow.
	h.hoistG = engine.NewGraph()
	if dfKey(df) == 1 { // DC: one node per digit pipeline
		for j := 0; j < sw.Dnum; j++ {
			h.hoistG.NodeNamed("hoist.digit", func() { h.hoistDigit(j) })
		}
	} else { // MP and OC: per-tower prep, per-tile convert
		prep := make([]int, ell)
		for i := 0; i < ell; i++ {
			prep[i] = h.hoistG.NodeNamed("hoist.prep", func() { h.hoistPrep(i) })
		}
		for j := 0; j < sw.Dnum; j++ {
			deps := prep[sw.digitLo(j):sw.digitHi(j)]
			for di := range sw.convDstIdx[j] {
				h.hoistG.NodeNamed("hoist.conv", func() { h.hoistConvert(j, di) }, deps...)
			}
		}
	}

	// Replay graph: per-tower ApplyKey, then the shared ModDown.
	h.replayG = engine.NewGraph()
	acc := make([]int, len(sw.dBasis))
	for t := range acc {
		acc[t] = h.replayG.NodeNamed("apply", func() { h.accumulateTower(t) })
	}
	h.buildModDown(h.replayG, acc)
	return h
}

// ---- Hoist-phase tiles ----

// hoistPrep is ModUp P1 for Q tower i plus the digit's ŷ scaling, and
// copies the bypass row into the owning digit's ModUp output (paper
// Figure 1, red towers) so the state outlives the input.
func (h *Hoisted) hoistPrep(i int) {
	sw, rec := h.sw, h.rec
	var t0, t1 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	j := i / sw.Alpha
	copy(h.ups[j].Coeffs[i], h.d.Coeffs[i])
	row := h.y[i]
	copy(row, h.d.Coeffs[i])
	sw.R.INTTTower(sw.qBasis[i], row)
	if rec != nil {
		t1 = time.Now()
		rec.Kernel(obs.KernelNTT, h.dfIdx, t1.Sub(t0))
	}
	sw.upConv[j].YScaleRow(i-sw.digitLo(j), row, row)
	if rec != nil {
		now := time.Now()
		rec.Kernel(obs.KernelBConv, h.dfIdx, now.Sub(t1))
		rec.Stage(obs.StageModUp, h.dfIdx, h.level, now.Sub(t0))
	}
}

// hoistConvert is ModUp P2+P3 for one (digit, destination tower)
// tile, writing straight into the digit's ModUp output.
func (h *Hoisted) hoistConvert(j, di int) {
	sw, rec := h.sw, h.rec
	var t0, t1 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	t := sw.convDstIdx[j][di]
	row := h.ups[j].Coeffs[t]
	sw.upConv[j].ConvertTowerFromY(h.y[sw.digitLo(j):sw.digitHi(j)], di, row)
	if rec != nil {
		t1 = time.Now()
		rec.Kernel(obs.KernelBConv, h.dfIdx, t1.Sub(t0))
	}
	sw.R.NTTTower(sw.dBasis[t], row)
	if rec != nil {
		now := time.Now()
		rec.Kernel(obs.KernelNTT, h.dfIdx, now.Sub(t1))
		rec.Stage(obs.StageModUp, h.dfIdx, h.level, now.Sub(t0))
	}
}

// hoistDigit is the DC tile: one digit's entire ModUp run serially.
func (h *Hoisted) hoistDigit(j int) {
	for i := h.sw.digitLo(j); i < h.sw.digitHi(j); i++ {
		h.hoistPrep(i)
	}
	for di := range h.sw.convDstIdx[j] {
		h.hoistConvert(j, di)
	}
}

// ---- Public API ----

// Hoist runs Decompose+ModUp once over d (NTT domain over B_ℓ) on the
// calling goroutine and returns the reusable hoisted state. Call
// Release when done with it.
func (sw *Switcher) Hoist(d *ring.Poly) *Hoisted {
	return sw.hoist(nil, dataflow.MP, d)
}

// HoistParallel is Hoist with the ModUp tiles executed as a task
// graph on e, shaped by the given dataflow (a nil engine uses
// engine.Default()). Bit-exact with Hoist.
func (sw *Switcher) HoistParallel(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly) *Hoisted {
	if e == nil {
		e = engine.Default()
	}
	return sw.hoist(e, df, d)
}

func (sw *Switcher) hoist(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly) *Hoisted {
	if !d.Basis.Equal(sw.qBasis) || !d.IsNTT {
		panic(fmt.Sprintf("hks: Hoist input must be NTT-domain over %v, got %v (ntt=%v)",
			sw.qBasis, d.Basis, d.IsNTT))
	}
	k := dfKey(df)
	var h *Hoisted
	if v := sw.hoistedPools[k].Get(); v != nil {
		h = v.(*Hoisted)
	} else {
		h = newHoisted(sw, df)
	}
	h.rec = obs.Active()
	h.dfIdx = obs.DataflowSerial
	if e != nil {
		h.dfIdx = obs.Dataflow(dfKey(df))
	}
	h.d = d
	if e == nil {
		for i := 0; i < sw.ell(); i++ {
			h.hoistPrep(i)
		}
		for j := 0; j < sw.Dnum; j++ {
			for di := range sw.convDstIdx[j] {
				h.hoistConvert(j, di)
			}
		}
	} else {
		e.RunGraph(h.hoistG)
	}
	h.d = nil
	return h
}

// Release returns the state to its switcher's pool. The Hoisted must
// not be used afterwards.
func (h *Hoisted) Release() {
	h.rec = nil
	h.sw.hoistedPools[dfKey(h.df)].Put(h)
}

func (h *Hoisted) checkReplay(evk *Evk, c0, c1 *ring.Poly) {
	sw := h.sw
	if len(evk.B) != sw.Dnum || len(evk.A) != sw.Dnum {
		panic(fmt.Sprintf("hks: evk has %d digits, switcher expects %d", len(evk.B), sw.Dnum))
	}
	if !c0.Basis.Equal(sw.qBasis) || !c1.Basis.Equal(sw.qBasis) {
		panic("hks: hoisted switch output basis mismatch")
	}
	// The two outputs' tiles run concurrently with no cross dependency,
	// so aliased storage would race silently.
	if c0 == c1 || sameStorage(c0, c1) {
		panic("hks: hoisted switch outputs must not alias each other")
	}
}

func (h *Hoisted) bind(evk *Evk, c0, c1 *ring.Poly) {
	h.evk, h.out0, h.out1 = evk, c0, c1
}

func (h *Hoisted) unbind(c0, c1 *ring.Poly) {
	h.evk, h.out0, h.out1 = nil, nil, nil
	c0.IsNTT, c1.IsNTT = true, true
}

// Switch replays the hoisted ModUp against one evaluation key,
// running ApplyKey+Reduce+ModDown serially into freshly allocated
// (c0, c1) over B_ℓ. Bit-exact with KeySwitch(d, evk).
func (h *Hoisted) Switch(evk *Evk) (c0, c1 *ring.Poly) {
	c0 = h.sw.R.NewPoly(h.sw.qBasis)
	c1 = h.sw.R.NewPoly(h.sw.qBasis)
	h.SwitchInto(evk, c0, c1)
	return c0, c1
}

// SwitchInto is Switch writing into caller-provided outputs; the
// serial replay performs zero allocations.
func (h *Hoisted) SwitchInto(evk *Evk, c0, c1 *ring.Poly) {
	h.checkReplay(evk, c0, c1)
	h.bind(evk, c0, c1)
	for t := range h.sw.dBasis {
		h.accumulateTower(t)
	}
	h.runModDownSerial()
	h.unbind(c0, c1)
}

// SwitchParallelInto is SwitchInto with the replay executed as a task
// graph on e (nil uses engine.Default()). Bit-exact with SwitchInto.
func (h *Hoisted) SwitchParallelInto(e *engine.Engine, evk *Evk, c0, c1 *ring.Poly) {
	h.checkReplay(evk, c0, c1)
	if e == nil {
		e = engine.Default()
	}
	h.bind(evk, c0, c1)
	e.RunGraph(h.replayG)
	h.unbind(c0, c1)
}

// checkStreamed is checkReplay for the streamed path, where the evk
// arrives digit by digit instead of as one dense value.
func (h *Hoisted) checkStreamed(st *ExpandStream, c0, c1 *ring.Poly) {
	sw := h.sw
	if st.Digits() != sw.Dnum {
		panic(fmt.Sprintf("hks: streamed evk has %d digits, switcher expects %d", st.Digits(), sw.Dnum))
	}
	if !c0.Basis.Equal(sw.qBasis) || !c1.Basis.Equal(sw.qBasis) {
		panic("hks: hoisted switch output basis mismatch")
	}
	if c0 == c1 || sameStorage(c0, c1) {
		panic("hks: hoisted switch outputs must not alias each other")
	}
}

// accumulateDigit folds one streamed evk digit into the replay
// accumulators: the one-term case of accumulateTower's kernel. The
// digit-ascending calls reduce after every digit where the dense
// replay reduces once, but both leave the canonical residue of the
// same sum, so the streamed replay is bit-identical to the dense one.
func (h *Hoisted) accumulateDigit(j int, eb, ea *ring.Poly) {
	sw, rec := h.sw, h.rec
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	for t, tw := range sw.dBasis {
		m := sw.R.Mods[tw]
		up := h.upRows[t][j : j+1]
		m.MulAccRows(h.acc0.Coeffs[t], up, eb.Coeffs[t:t+1], 1)
		m.MulAccRows(h.acc1.Coeffs[t], up, ea.Coeffs[t:t+1], 1)
	}
	if rec != nil {
		rec.Stage(obs.StageApply, h.dfIdx, h.level, time.Since(t0))
	}
}

// SwitchStreamedInto replays the hoisted ModUp against a compressed
// key's expansion stream, consuming digits in ascending order as they
// become ready, then runs ModDown into (c0, c1). Because the stream's
// producer goroutine runs ahead of the consumer, per-digit seed
// expansion overlaps both the preceding hoist phase (when the stream
// was started before Hoist/HoistParallel) and this apply loop itself.
// Bit-exact with SwitchInto of the expanded dense key.
func (h *Hoisted) SwitchStreamedInto(st *ExpandStream, c0, c1 *ring.Poly) {
	h.checkStreamed(st, c0, c1)
	h.bind(nil, c0, c1)
	for t := range h.sw.dBasis {
		clear(h.acc0.Coeffs[t])
		clear(h.acc1.Coeffs[t])
	}
	rec := h.rec
	var t0 time.Time
	for j := 0; j < h.sw.Dnum; j++ {
		if rec != nil {
			t0 = time.Now()
		}
		eb, ea := st.Digit(j)
		if rec != nil {
			// Time blocked on the expander: when the stream runs ahead
			// this is ~0; when the consumer outpaces it, this is the
			// expansion stall the overlap is meant to hide.
			rec.Stage(obs.StageExpand, h.dfIdx, h.level, time.Since(t0))
		}
		h.accumulateDigit(j, eb, ea)
	}
	h.runModDownSerial()
	h.unbind(c0, c1)
}

// SwitchStreamed is the full overlapped miss path for one compressed
// key: start the expansion stream, hoist d on the engine under df
// (expansion running concurrently with Decompose+ModUp), then apply
// the key digit by digit. Returns freshly allocated (c0, c1) over
// B_ℓ, bit-exact with KeySwitch(d, cevk.Expand(sw.R)).
func (sw *Switcher) SwitchStreamed(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, cevk *CompressedEvk) (c0, c1 *ring.Poly) {
	st := cevk.StartExpand(sw.R)
	h := sw.HoistParallel(e, df, d)
	defer h.Release()
	c0 = sw.R.NewPoly(sw.qBasis)
	c1 = sw.R.NewPoly(sw.qBasis)
	h.SwitchStreamedInto(st, c0, c1)
	return c0, c1
}

// SwitchHoisted switches d (NTT domain over B_ℓ) with every key in
// evks while running Decompose+ModUp only once, serially, returning
// one freshly allocated (c0, c1) pair per key in input order. Each
// pair is bit-exact with KeySwitch(d, evks[i]).
func (sw *Switcher) SwitchHoisted(d *ring.Poly, evks []*Evk) (c0s, c1s []*ring.Poly) {
	h := sw.Hoist(d)
	defer h.Release()
	c0s = make([]*ring.Poly, len(evks))
	c1s = make([]*ring.Poly, len(evks))
	for i, evk := range evks {
		c0s[i], c1s[i] = h.Switch(evk)
	}
	return c0s, c1s
}

// SwitchHoistedParallelInto is SwitchHoisted on the engine: the shared
// ModUp runs as a df-shaped task graph, then each key's replay graph
// writes into the caller-provided c0s[i], c1s[i]. With reused outputs
// a steady-state caller performs no per-op limb allocations. Outputs
// must be pairwise non-aliased. Bit-exact with per-key KeySwitch for
// every dataflow.
func (sw *Switcher) SwitchHoistedParallelInto(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, evks []*Evk, c0s, c1s []*ring.Poly) {
	if len(c0s) != len(evks) || len(c1s) != len(evks) {
		panic(fmt.Sprintf("hks: SwitchHoistedParallelInto got %d keys but %d/%d outputs",
			len(evks), len(c0s), len(c1s)))
	}
	if e == nil {
		e = engine.Default()
	}
	h := sw.hoist(e, df, d)
	defer h.Release()
	for i, evk := range evks {
		h.SwitchParallelInto(e, evk, c0s[i], c1s[i])
	}
}
