package hks

// Engine-backed hybrid key switching: the same P1–P5 + ModDown
// pipeline as KeySwitch, decomposed into per-tower / per-digit tiles
// and executed as a dependency graph on the internal/engine worker
// pool. The graph shape follows the dataflow the caller selects —
// the execution-time counterpart of the schedules internal/dataflow
// generates for the RPU model:
//
//   - MP (Max-Parallel): every stage fans out over all ℓ·dnum
//     extended towers; stages meet at per-tower dependency edges.
//   - DC (Digit-Centric): one task per digit runs the digit's whole
//     ModUp pipeline (INTT → BConv → NTT); parallelism is across the
//     dnum digits.
//   - OC (Output-Centric): after the shared per-tower INTT pass, one
//     task per extended tower produces that tower's finished ApplyKey
//     accumulation, converting each digit's contribution on the fly.
//     OCF schedules identically (its ModDown fusion is a memory-
//     traffic concept; the engine's ModDown is already fused in).
//
// All three graphs run the tiles of the serial path on the same
// operands. Every tile's output is the canonical residue, so the
// graphs are bit-exact with KeySwitch however the lazy kernels beneath
// (internal/ntt, mod.MulAccRows) group their reductions — the property
// the equivalence tests assert.
//
// Per-switch scratch (limb rows, accumulators, the graph itself) lives
// in a pooled switchState, so steady-state switching does no per-op
// allocation on the hot path. ApplyKey sums all dnum digits of a tower
// in one deferred-reduction pass, so each non-bypass digit's converted
// row must stay alive until that tower's accumulate: every dataflow,
// OC included, keeps at most dnum converted rows per extended tower
// (none for the bypass digit). That is a CPU-side scratch choice, not
// the paper's on-chip working set: the OC schedule internal/dataflow
// generates (dataflow.dram_mb_oc in the benchmark) still holds one
// output tower at a time and is unchanged.

import (
	"fmt"
	"time"

	"ciflow/internal/bconv"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
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

// dfKey maps a dataflow to its state-pool slot. OCF executes as OC.
func dfKey(df dataflow.Dataflow) int {
	switch df {
	case dataflow.MP:
		return 0
	case dataflow.DC:
		return 1
	case dataflow.OC, dataflow.OCF:
		return 2
	}
	panic(fmt.Sprintf("hks: unknown dataflow %v", df))
}

// downState holds the ApplyKey accumulators, ModDown scratch, and the
// bound output polynomials shared by every engine-execution state
// (the per-rotation switchState and the hoisted replay of hoisted.go).
type downState struct {
	sw *Switcher

	// Rebound per run (evk: per replay on a hoisted state).
	evk        *Evk
	out0, out1 *ring.Poly

	// Observability binding: rec is obs.Active() captured at the entry
	// point (nil when profiling is off — the tiles then skip all clock
	// reads), dfIdx the dataflow label, level the switcher's level.
	rec   *obs.Recorder
	dfIdx obs.Dataflow
	level int

	// Scratch, allocated once per state.
	acc0 *ring.Poly // ApplyKey accumulators over D
	acc1 *ring.Poly
	yP   [2][][]uint64 // per output poly: K scaled ModDown rows
	u    [2][]uint64   // per output poly: overshoot estimates

	// Row headers handed to the ApplyKey accumulate, [|D|][dnum]: the
	// ModUp rows of each extended tower and the matching rows of the
	// two evk halves. One slot per tower, so concurrent apply tiles
	// share nothing and no tile allocates.
	upRows, kbRows, kaRows [][][]uint64
}

// initDown allocates the accumulator and ModDown scratch.
func (ds *downState) initDown(sw *Switcher) {
	ds.sw = sw
	ds.level = sw.Level
	n, kp := sw.R.N, len(sw.pBasis)
	ds.acc0 = sw.R.NewPoly(sw.dBasis)
	ds.acc1 = sw.R.NewPoly(sw.dBasis)
	ds.acc0.IsNTT, ds.acc1.IsNTT = true, true
	for p := 0; p < 2; p++ {
		ds.yP[p] = make([][]uint64, kp)
		for i := range ds.yP[p] {
			ds.yP[p][i] = make([]uint64, n)
		}
		ds.u[p] = make([]uint64, n)
	}
	rows := func() [][][]uint64 {
		rs := make([][][]uint64, len(sw.dBasis))
		for t := range rs {
			rs[t] = make([][]uint64, sw.Dnum)
		}
		return rs
	}
	ds.upRows, ds.kbRows, ds.kaRows = rows(), rows(), rows()
}

// switchState is one in-flight parallel key switch: the task graph
// for one dataflow plus all scratch it touches. States are pooled on
// the Switcher; the graph is built once and rebound to fresh inputs
// each run.
type switchState struct {
	downState
	g *engine.Graph

	d *ring.Poly // rebound per run

	// Scratch, allocated once per state.
	y        [][]uint64   // ℓ rows: INTT'd + ŷ-scaled digit towers
	convRows [][][]uint64 // [dnum][|D|] converted-tower rows (nil at bypass)
}

// overshootChunk tiles the ModDown overshoot estimate with the same
// granularity as the bconv-internal parallel path.
const overshootChunk = bconv.OvershootChunk

func (sw *Switcher) ell() int { return len(sw.qBasis) }

// digitLo returns the first Q-tower index of digit j; digits are
// contiguous alpha-sized blocks (the last may be shorter).
func (sw *Switcher) digitLo(j int) int { return j * sw.Alpha }

func (sw *Switcher) digitHi(j int) int {
	hi := (j + 1) * sw.Alpha
	if hi > sw.ell() {
		hi = sw.ell()
	}
	return hi
}

// bypass reports whether extended tower t (a dBasis index) is digit
// j's own tower, which skips INTT→BConv→NTT and reuses the input row
// (paper Figure 1, red towers).
func (sw *Switcher) bypass(j, t int) bool {
	return t < sw.ell() && t/sw.Alpha == j
}

func newSwitchState(sw *Switcher, df dataflow.Dataflow) *switchState {
	ell, dB := sw.ell(), len(sw.dBasis)
	n := sw.R.N
	st := &switchState{g: engine.NewGraph()}
	st.initDown(sw)

	st.y = make([][]uint64, ell)
	for i := range st.y {
		st.y[i] = make([]uint64, n)
	}

	st.convRows = make([][][]uint64, sw.Dnum)
	for j := range st.convRows {
		st.convRows[j] = make([][]uint64, dB)
		for _, t := range sw.convDstIdx[j] {
			st.convRows[j][t] = make([]uint64, n)
		}
	}

	switch dfKey(df) {
	case 0:
		st.buildMP()
	case 1:
		st.buildDC()
	case 2:
		st.buildOC()
	}
	return st
}

// ---- Tile bodies (run inside graph nodes) ----

// digitY returns the ŷ rows of digit j, aligned with the converter's
// source indices.
func (st *switchState) digitY(j int) [][]uint64 {
	return st.y[st.sw.digitLo(j):st.sw.digitHi(j)]
}

// upRow returns digit j's ModUp row for extended tower t: the input
// row itself on the bypass path, the converted row otherwise.
func (st *switchState) upRow(j, t int) []uint64 {
	if st.sw.bypass(j, t) {
		return st.d.Coeffs[t]
	}
	return st.convRows[j][t]
}

// prepTower is ModUp P1 for Q tower i plus the digit's ŷ scaling
// (folded here so it runs exactly once per tower, as the dataflow
// model's inttWithPreOps charges it).
func (st *switchState) prepTower(i int) {
	sw, rec := st.sw, st.rec
	var t0, t1 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	row := st.y[i]
	copy(row, st.d.Coeffs[i])
	sw.R.INTTTower(sw.qBasis[i], row)
	if rec != nil {
		t1 = time.Now()
		rec.Kernel(obs.KernelNTT, st.dfIdx, t1.Sub(t0))
	}
	j := i / sw.Alpha
	sw.upConv[j].YScaleRow(i-sw.digitLo(j), row, row)
	if rec != nil {
		now := time.Now()
		rec.Kernel(obs.KernelBConv, st.dfIdx, now.Sub(t1))
		rec.Stage(obs.StageModUp, st.dfIdx, st.level, now.Sub(t0))
	}
}

// convertTower is ModUp P2+P3 for one (digit, destination tower) tile.
func (st *switchState) convertTower(j, di int) {
	sw, rec := st.sw, st.rec
	var t0, t1 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	t := sw.convDstIdx[j][di]
	row := st.convRows[j][t]
	sw.upConv[j].ConvertTowerFromY(st.digitY(j), di, row)
	if rec != nil {
		t1 = time.Now()
		rec.Kernel(obs.KernelBConv, st.dfIdx, t1.Sub(t0))
	}
	sw.R.NTTTower(sw.dBasis[t], row)
	if rec != nil {
		now := time.Now()
		rec.Kernel(obs.KernelNTT, st.dfIdx, now.Sub(t1))
		rec.Stage(obs.StageModUp, st.dfIdx, st.level, now.Sub(t0))
	}
}

// applyTower is ModUp P4+P5 for one extended tower: gather every
// digit's ModUp row and run the shared accumulate.
func (st *switchState) applyTower(t int) {
	up := st.upRows[t]
	for j := range up {
		up[j] = st.upRow(j, t)
	}
	st.accumulateTower(t)
}

// digitPipeline is the DC tile: one digit's entire ModUp (P1–P3) run
// serially, so parallelism is across digits only. Its prep and
// convert tiles self-record, so the pipeline itself adds no timing.
func (st *switchState) digitPipeline(j int) {
	for i := st.sw.digitLo(j); i < st.sw.digitHi(j); i++ {
		st.prepTower(i)
	}
	for di := range st.sw.convDstIdx[j] {
		st.convertTower(j, di)
	}
}

// ocTower is the OC tile: produce extended tower t's finished ApplyKey
// accumulation, converting each digit's contribution on the fly. The
// tile interleaves two logical stages; its convert and apply tiles
// self-record, so the conversions count as ModUp and the accumulation
// as Apply.
func (st *switchState) ocTower(t int) {
	sw := st.sw
	for j := 0; j < sw.Dnum; j++ {
		if !sw.bypass(j, t) {
			st.convertTower(j, sw.dstIdxOf[j][t])
		}
	}
	st.applyTower(t)
}

// accumulateTower is ApplyKey for extended tower t, shared by every
// execution state: acc ← Σ_j upRows[t][j] ⊙ evk_j[t] for both evk
// halves, each as one deferred-reduction pass over all dnum digits
// (mod.MulAccRows). The caller has filled upRows[t].
func (ds *downState) accumulateTower(t int) {
	sw, rec := ds.sw, ds.rec
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	up, kb, ka := ds.upRows[t], ds.kbRows[t], ds.kaRows[t]
	for j := range kb {
		kb[j], ka[j] = ds.evk.B[j].Coeffs[t], ds.evk.A[j].Coeffs[t]
	}
	m := sw.R.Mods[sw.dBasis[t]]
	b0, b1 := ds.acc0.Coeffs[t], ds.acc1.Coeffs[t]
	clear(b0)
	clear(b1)
	m.MulAccRows(b0, up, kb, sw.accTerms)
	m.MulAccRows(b1, up, ka, sw.accTerms)
	if rec != nil {
		rec.Stage(obs.StageApply, ds.dfIdx, ds.level, time.Since(t0))
	}
}

func (ds *downState) accPoly(p int) *ring.Poly {
	if p == 0 {
		return ds.acc0
	}
	return ds.acc1
}

func (ds *downState) outPoly(p int) *ring.Poly {
	if p == 0 {
		return ds.out0
	}
	return ds.out1
}

// downPrepTower is ModDown P1 for P tower i of output poly p, plus the
// ŷ scaling of the P→Q conversion.
func (ds *downState) downPrepTower(p, i int) {
	sw, rec := ds.sw, ds.rec
	var t0, t1 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	row := ds.yP[p][i]
	copy(row, ds.accPoly(p).Coeffs[sw.ell()+i])
	sw.R.INTTTower(sw.pBasis[i], row)
	if rec != nil {
		t1 = time.Now()
		rec.Kernel(obs.KernelNTT, ds.dfIdx, t1.Sub(t0))
	}
	sw.downConv.YScaleRow(i, row, row)
	if rec != nil {
		now := time.Now()
		rec.Kernel(obs.KernelBConv, ds.dfIdx, now.Sub(t1))
		rec.Stage(obs.StageModDown, ds.dfIdx, ds.level, now.Sub(t0))
	}
}

// downOvershoot estimates the exact-conversion overshoot for one
// coefficient chunk of output poly p.
func (ds *downState) downOvershoot(p, from, to int) {
	rec := ds.rec
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	ds.sw.downConv.Overshoot(ds.yP[p], ds.u[p], from, to)
	if rec != nil {
		d := time.Since(t0)
		rec.Kernel(obs.KernelBConv, ds.dfIdx, d)
		rec.Stage(obs.StageModDown, ds.dfIdx, ds.level, d)
	}
}

// downOutTower is ModDown P2–P4 for Q tower i of output poly p:
// exact-convert the P part into tower i, NTT it, and fold the
// subtract-and-scale by P⁻¹ in place.
func (ds *downState) downOutTower(p, i int) {
	sw, rec := ds.sw, ds.rec
	var t0, t1 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	dst := ds.outPoly(p).Coeffs[i]
	sw.downConv.ConvertExactTowerFromY(ds.yP[p], ds.u[p], i, dst)
	if rec != nil {
		t1 = time.Now()
		rec.Kernel(obs.KernelBConv, ds.dfIdx, t1.Sub(t0))
	}
	sw.R.NTTTower(sw.qBasis[i], dst)
	if rec != nil {
		rec.Kernel(obs.KernelNTT, ds.dfIdx, time.Since(t1))
	}
	sw.R.Mods[sw.qBasis[i]].SubMulShoupRow(dst, ds.accPoly(p).Coeffs[i], dst, sw.pInvModQ[i], sw.pInvShoup[i])
	if rec != nil {
		rec.Stage(obs.StageModDown, ds.dfIdx, ds.level, time.Since(t0))
	}
}

// runModDownSerial executes the same ModDown tiles as buildModDown on
// the calling goroutine, in ascending tile order — bit-exact with the
// graph execution (the chunked overshoot estimate runs in the same
// ascending order either way).
func (ds *downState) runModDownSerial() {
	sw := ds.sw
	ell, kp, n := sw.ell(), len(sw.pBasis), sw.R.N
	for p := 0; p < 2; p++ {
		for i := 0; i < kp; i++ {
			ds.downPrepTower(p, i)
		}
		for from := 0; from < n; from += overshootChunk {
			to := from + overshootChunk
			if to > n {
				to = n
			}
			ds.downOvershoot(p, from, to)
		}
		for i := 0; i < ell; i++ {
			ds.downOutTower(p, i)
		}
	}
}

// ---- Graph builders ----

// buildModDown appends the ModDown stages for both output polys to g.
// accNode[t] is the graph node that finished extended tower t of the
// accumulators.
func (ds *downState) buildModDown(g *engine.Graph, accNode []int) {
	sw := ds.sw
	ell, kp, n := sw.ell(), len(sw.pBasis), sw.R.N
	chunks := (n + overshootChunk - 1) / overshootChunk
	for p := 0; p < 2; p++ {
		prep := make([]int, kp)
		for i := 0; i < kp; i++ {
			prep[i] = g.NodeNamed("down.prep", func() { ds.downPrepTower(p, i) }, accNode[ell+i])
		}
		over := make([]int, chunks)
		for ci := 0; ci < chunks; ci++ {
			from := ci * overshootChunk
			to := from + overshootChunk
			if to > n {
				to = n
			}
			over[ci] = g.NodeNamed("down.over", func() { ds.downOvershoot(p, from, to) }, prep...)
		}
		for i := 0; i < ell; i++ {
			g.NodeNamed("down.out", func() { ds.downOutTower(p, i) }, append([]int{accNode[i]}, over...)...)
		}
	}
}

// buildMP wires the Max-Parallel graph: per-tower tiles at every
// stage, synchronized only by true data dependencies.
func (st *switchState) buildMP() {
	sw := st.sw
	ell, dB := sw.ell(), len(sw.dBasis)

	prep := make([]int, ell)
	for i := 0; i < ell; i++ {
		prep[i] = st.g.NodeNamed("modup.prep", func() { st.prepTower(i) })
	}
	conv := make([][]int, sw.Dnum) // [digit][dBasis idx] -> node or -1
	for j := 0; j < sw.Dnum; j++ {
		conv[j] = make([]int, dB)
		for t := range conv[j] {
			conv[j][t] = -1
		}
		deps := prep[sw.digitLo(j):sw.digitHi(j)]
		for di, t := range sw.convDstIdx[j] {
			conv[j][t] = st.g.NodeNamed("modup.conv", func() { st.convertTower(j, di) }, deps...)
		}
	}
	acc := make([]int, dB)
	var deps []int
	for t := 0; t < dB; t++ {
		deps = deps[:0]
		for j := 0; j < sw.Dnum; j++ {
			if conv[j][t] >= 0 {
				deps = append(deps, conv[j][t])
			}
		}
		acc[t] = st.g.NodeNamed("apply", func() { st.applyTower(t) }, deps...)
	}
	st.buildModDown(st.g, acc)
}

// buildDC wires the Digit-Centric graph: one node per digit runs that
// digit's whole ModUp pipeline.
func (st *switchState) buildDC() {
	sw := st.sw
	dB := len(sw.dBasis)
	dig := make([]int, sw.Dnum)
	for j := 0; j < sw.Dnum; j++ {
		dig[j] = st.g.NodeNamed("modup.digit", func() { st.digitPipeline(j) })
	}
	acc := make([]int, dB)
	var deps []int
	for t := 0; t < dB; t++ {
		deps = deps[:0]
		for j := 0; j < sw.Dnum; j++ {
			if !sw.bypass(j, t) {
				deps = append(deps, dig[j])
			}
		}
		acc[t] = st.g.NodeNamed("apply", func() { st.applyTower(t) }, deps...)
	}
	st.buildModDown(st.g, acc)
}

// buildOC wires the Output-Centric graph: after the shared INTT pass,
// one node per extended tower finishes that output tower end to end.
func (st *switchState) buildOC() {
	sw := st.sw
	ell, dB := sw.ell(), len(sw.dBasis)
	prep := make([]int, ell)
	for i := 0; i < ell; i++ {
		prep[i] = st.g.NodeNamed("modup.prep", func() { st.prepTower(i) })
	}
	acc := make([]int, dB)
	var deps []int
	for t := 0; t < dB; t++ {
		deps = deps[:0]
		for i := 0; i < ell; i++ {
			// Tower t consumes every digit's ŷ rows except its own
			// digit's (bypass); P towers consume them all.
			if t >= ell || i/sw.Alpha != t/sw.Alpha {
				deps = append(deps, prep[i])
			}
		}
		acc[t] = st.g.NodeNamed("oc", func() { st.ocTower(t) }, deps...)
	}
	st.buildModDown(st.g, acc)
}

// ---- Public API ----

func (sw *Switcher) stateFor(df dataflow.Dataflow) *switchState {
	k := dfKey(df)
	if v := sw.states[k].Get(); v != nil {
		return v.(*switchState)
	}
	return newSwitchState(sw, df)
}

// SwitchParallel runs the complete HKS pipeline on d (NTT domain over
// B_ℓ) as a task graph on e, shaped by the given dataflow, returning
// freshly allocated (c0, c1) over B_ℓ. The result is bit-exact with
// KeySwitch for every dataflow. A nil engine uses engine.Default().
// Safe for concurrent use on one Switcher.
func (sw *Switcher) SwitchParallel(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, evk *Evk) (c0, c1 *ring.Poly) {
	c0 = sw.R.NewPoly(sw.qBasis)
	c1 = sw.R.NewPoly(sw.qBasis)
	sw.SwitchParallelInto(e, df, d, evk, c0, c1)
	return c0, c1
}

// SwitchParallelInto is SwitchParallel writing into caller-provided
// output polynomials over B_ℓ, so a steady-state caller reusing its
// outputs performs zero per-op allocations. c0/c1 must not alias d.
func (sw *Switcher) SwitchParallelInto(e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, evk *Evk, c0, c1 *ring.Poly) {
	if !d.Basis.Equal(sw.qBasis) || !d.IsNTT {
		panic(fmt.Sprintf("hks: SwitchParallel input must be NTT-domain over %v, got %v (ntt=%v)",
			sw.qBasis, d.Basis, d.IsNTT))
	}
	if !c0.Basis.Equal(sw.qBasis) || !c1.Basis.Equal(sw.qBasis) {
		panic("hks: SwitchParallel output basis mismatch")
	}
	// The two outputs' graph nodes run concurrently with no cross
	// dependency, so aliased storage would race silently.
	if c0 == c1 || sameStorage(c0, c1) || sameStorage(c0, d) || sameStorage(c1, d) {
		panic("hks: SwitchParallel outputs must not alias each other or the input")
	}
	if len(evk.B) != sw.Dnum || len(evk.A) != sw.Dnum {
		panic(fmt.Sprintf("hks: evk has %d digits, switcher expects %d", len(evk.B), sw.Dnum))
	}
	if e == nil {
		e = engine.Default()
	}
	st := sw.stateFor(df)
	st.rec, st.dfIdx = obs.Active(), obs.Dataflow(dfKey(df))
	st.d, st.evk, st.out0, st.out1 = d, evk, c0, c1
	e.RunGraph(st.g)
	st.d, st.evk, st.out0, st.out1 = nil, nil, nil, nil
	st.rec = nil
	sw.states[dfKey(df)].Put(st)
	c0.IsNTT, c1.IsNTT = true, true
}
