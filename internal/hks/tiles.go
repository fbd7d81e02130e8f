package hks

// The one HKS tile set. Paper Figure 1 is cut into per-tower tiles and
// every entry point of the package runs these tiles on one pooled state
// type; what differs between entry points is only the order, the
// grouping and the goroutine the tiles run on — a visit of a dataflow's
// plan (schedule.go), whose tile kinds they implement:
//
//	prepTower      INTT      ModUp P1: INTT of one Q tower, the digit's ŷ scaling in its last stage
//	convertTower   Conv+NTT  ModUp P2+P3: one (digit, destination tower) BConv + NTT
//	applyTower     Apply×dnum+Reduce  P4+P5: one extended tower of ApplyKey, all digits summed;
//	                                  a compressed key's A-rows are drawn from their seeds first
//	downPrepTower  DownINTT  ModDown P1: INTT of one P tower, the ŷ scaling in its last stage
//	downOvershoot  DownOver  ModDown P2: the exact conversion's overshoot, one chunk
//	downOutTower   DownOut   ModDown P2–P4: convert one Q tower, then NTT it with the
//	                         subtract and P⁻¹ scale applied block by block
//
// Every tile writes the canonical residue, so any order that respects
// the data dependencies gives the same bits however the lazy kernels
// beneath (internal/ntt, mod.MulSumRows) group their reductions — the
// property the equivalence tests and testdata/keyswitch.golden assert.
//
// ApplyKey sums all dnum digits of a tower in one deferred-reduction
// pass, so each non-bypass digit's converted row stays alive until that
// tower's apply tile: every schedule, OC included, keeps at most dnum
// converted rows per extended tower. That is a CPU-side scratch choice,
// not the paper's on-chip working set: the OC schedule internal/dataflow
// generates (dataflow.dram_mb_oc in the benchmark) still holds one
// output tower at a time.

import (
	"fmt"
	"time"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// Hoisted is the pooled execution state of key switching: all scratch
// one switch touches, and the task graphs that schedule its tiles on
// an engine. Every entry point draws one from the switcher's pool.
//
// To callers it is the shared-ModUp state of one input polynomial:
// obtain it with Hoist or HoistParallel, replay it against any number
// of evaluation keys, dense or compressed, with Switch/SwitchInto/
// SwitchParallelInto, and return it with Release. It is independent of
// its input once the hoist returns. A Hoisted must not be used
// concurrently or after Release; hoisting and switching different
// inputs concurrently on one Switcher is safe.
type Hoisted struct {
	sw *Switcher
	df dataflow.Dataflow // the graph shape of this draw

	// Bound per run.
	d   *ring.Poly    // input, while its ModUp tiles run
	key KeyMaterial   // the key, either form
	out [2]*ring.Poly // outputs over B_ℓ

	// ownsBypass is set while the state is hoisted: the prep tile then
	// copies each bypass row (paper Figure 1, red towers) into the row
	// table so the state outlives its input. A per-rotation switch
	// leaves it clear and reads those rows from the input itself.
	ownsBypass bool

	// Observability binding: rec is obs.Active() captured at the entry
	// point (nil when profiling is off — the tiles then read no clock),
	// label the dataflow the samples are recorded under.
	rec   *obs.Recorder
	label obs.Dataflow

	// Scratch, allocated once per state.
	up  [][][]uint64  // ModUp row table [dnum][|D|]; bypass rows nil until the first hoist
	y   [][]uint64    // ℓ rows: INTT'd + ŷ-scaled digit towers
	acc [2]*ring.Poly // ApplyKey accumulators over D_ℓ
	yP  [2][][]uint64 // per output poly: K scaled ModDown rows, then their overshoot row

	// Row headers handed to the ApplyKey kernels, [|D|][dnum]: a
	// tower's ModUp rows and the matching rows of the two evk halves,
	// a compressed key's B-rows packed. One slot per tower, so
	// concurrent apply tiles share nothing and allocate nothing.
	upRows, kbRows, kaRows [][][]uint64
	packedRows             [][][]byte
	// drawn holds a compressed key's A-rows, [|D|][dnum] rows, drawn by
	// each apply tile into its own tower's slot. Allocated at the
	// state's first compressed bind; a dense-only state has none.
	drawn [][][]uint64

	// Schedules over the tiles, each built on first use (schedule.go):
	// per dataflow, its plan's graph over each half of a switch.
	graphs [dataflow.OCF + 1][len(halves)]*engine.Graph
}

// rows allocates k rows of n words.
func rows(k, n int) [][]uint64 {
	rs := make([][]uint64, k)
	for i := range rs {
		rs[i] = make([]uint64, n)
	}
	return rs
}

func newState(sw *Switcher) *Hoisted {
	n, kp := sw.R.N, len(sw.pBasis)
	h := &Hoisted{sw: sw, y: rows(sw.ell(), n)}
	h.up = make([][][]uint64, sw.Dnum)
	for j := range h.up {
		h.up[j] = make([][]uint64, len(sw.dBasis))
		for _, t := range sw.convDstIdx[j] {
			h.up[j][t] = make([]uint64, n)
		}
	}
	for p := range h.acc {
		h.acc[p] = sw.R.NewPoly(sw.dBasis)
		h.acc[p].IsNTT = true
		h.yP[p] = rows(kp+1, n)
	}
	headers := func() [][][]uint64 {
		hs := make([][][]uint64, len(sw.dBasis))
		for t := range hs {
			hs[t] = make([][]uint64, sw.Dnum)
		}
		return hs
	}
	h.upRows, h.kbRows, h.kaRows = headers(), headers(), headers()
	h.packedRows = make([][][]byte, len(sw.dBasis))
	for t := range h.packedRows {
		h.packedRows[t] = make([][]byte, sw.Dnum)
	}
	return h
}

// state draws an execution state from the pool, building one on a
// miss, to run df's graphs, and captures the active recorder; samples
// go under label.
func (sw *Switcher) state(df dataflow.Dataflow, label obs.Dataflow) *Hoisted {
	if !df.Valid() {
		panic(fmt.Sprintf("hks: unknown dataflow %v", df))
	}
	h, _ := sw.states.Get().(*Hoisted)
	if h == nil {
		h = newState(sw)
	}
	h.df, h.rec, h.label = df, obs.Active(), label
	return h
}

// Release returns the state to its switcher's pool. The Hoisted must
// not be used afterwards.
func (h *Hoisted) Release() {
	h.rec, h.ownsBypass = nil, false
	h.sw.states.Put(h)
}

// ownBypass marks the state hoisted, allocating the bypass rows of the
// table the first time a state is.
func (h *Hoisted) ownBypass() {
	h.ownsBypass = true
	if h.up[0][0] != nil { // tower 0 is digit 0's own
		return
	}
	for i := range h.y {
		h.up[i/h.sw.Alpha][i] = make([]uint64, h.sw.R.N)
	}
}

// rowTable is the ModUp row table over caller polynomials, one per
// digit over D_ℓ: how ModUp and ApplyEvk aim the tiles at them.
func rowTable(ups []*ring.Poly) [][][]uint64 {
	tab := make([][][]uint64, len(ups))
	for j, up := range ups {
		tab[j] = up.Coeffs
	}
	return tab
}

func (sw *Switcher) ell() int { return len(sw.qBasis) }

// digitLo returns the first Q-tower index of digit j; digits are
// contiguous alpha-sized blocks (the last may be shorter).
func (sw *Switcher) digitLo(j int) int { return j * sw.Alpha }

func (sw *Switcher) digitHi(j int) int { return min((j+1)*sw.Alpha, sw.ell()) }

// ---- Timing ----
//
// A tile marks t0 := h.now(), passes the mark through h.kernel after
// each kernel, and closes with h.stage. With no recorder captured all
// three return at once and read no clock.

func (h *Hoisted) now() time.Time {
	if h.rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// kernel records the time since mark t under k and returns the new mark.
func (h *Hoisted) kernel(k obs.Kernel, t time.Time) time.Time {
	if h.rec == nil {
		return t
	}
	now := time.Now()
	h.rec.Kernel(k, h.label, now.Sub(t))
	return now
}

// stage records [t0, t) under st; t is the tile's last kernel mark, or
// h.now() when the tile ends in work no kernel covers.
func (h *Hoisted) stage(st obs.Stage, t0, t time.Time) {
	if h.rec != nil {
		h.rec.Stage(st, h.label, h.sw.Level, t.Sub(t0))
	}
}

// ---- Tiles ----

// upRow returns digit j's ModUp row for extended tower t: a row of the
// table, except that a per-rotation switch reads the rows no converter
// writes — digit j's own towers, which bypass ModUp (paper Figure 1,
// red towers) — straight from its input.
func (h *Hoisted) upRow(j, t int) []uint64 {
	if !h.ownsBypass && h.sw.dstIdxOf[j][t] < 0 {
		return h.d.Coeffs[t]
	}
	return h.up[j][t]
}

// prepTower is ModUp P1 for Q tower i plus the digit's ŷ scaling
// (folded here so it runs exactly once per tower, as the dataflow
// model's inttWithPreOps charges it). The INTT copies the input row in
// one block at a time, just before that block's stages run, and the ŷ
// multiply is its last stage's own, so neither streams the row again;
// both are timed inside the INTT's ntt kernel sample.
func (h *Hoisted) prepTower(i int) {
	sw := h.sw
	t0 := h.now()
	if h.ownsBypass {
		copy(h.up[i/sw.Alpha][i], h.d.Coeffs[i])
	}
	sw.R.Tables[sw.qBasis[i]].InverseScaled(h.y[i], h.d.Coeffs[i], sw.upScale[i])
	h.stage(obs.StageModUp, t0, h.kernel(obs.KernelNTT, t0))
}

// convertTower is ModUp P2+P3 for one (digit, destination tower) tile.
func (h *Hoisted) convertTower(j, di int) {
	sw := h.sw
	t0 := h.now()
	dt := sw.convDstIdx[j][di]
	row := h.up[j][dt]
	yj := h.y[sw.digitLo(j):sw.digitHi(j)] // aligned with the converter's source indices
	sw.upConv[j].ConvertTowerFromY(yj, di, row)
	t := h.kernel(obs.KernelBConv, t0)
	sw.R.NTTTower(sw.dBasis[dt], row)
	t = h.kernel(obs.KernelNTT, t)
	h.stage(obs.StageModUp, t0, t)
}

// applyTower is ApplyKey (P4+P5) for extended tower t:
// acc ← Σ_j up_j[t] ⊙ evk_j[t] for both evk halves, each as one
// deferred-reduction pass over all dnum digits. A compressed key's
// A-rows of tower t are drawn from the digits' seeds first, into the
// tower's scratch, and timed as the expand stage; its B-rows are
// multiplied in packed.
func (h *Hoisted) applyTower(t int) {
	sw := h.sw
	t0 := h.now()
	m := sw.R.Mods[sw.dBasis[t]]
	up, ka := h.upRows[t], h.kaRows[t]
	for j := range up {
		up[j] = h.upRow(j, t)
	}
	switch k := h.key.(type) {
	case *Evk:
		kb := h.kbRows[t]
		for j := range kb {
			kb[j], ka[j] = k.B[j].Coeffs[t], k.A[j].Coeffs[t]
		}
		m.MulSumRows(h.acc[0].Coeffs[t], up, kb, m.Q)
	case *CompressedEvk:
		ka = h.drawn[t]
		kb := h.packedRows[t]
		for j := range kb {
			kb[j] = k.B[j][t]
			sw.R.UniformRowFromSeed(ka[j], sw.dBasis, t, k.Seeds[j])
		}
		drawn := h.now()
		h.stage(obs.StageExpand, t0, drawn)
		t0 = drawn
		m.MulSumRowsPacked(h.acc[0].Coeffs[t], up, kb, m.Q)
	}
	m.MulSumRows(h.acc[1].Coeffs[t], up, ka, m.Q)
	h.stage(obs.StageApply, t0, h.now())
}

// downPrepTower is ModDown P1 for P tower i of output poly p, plus the
// ŷ scaling of the P→Q conversion, folded into the INTT as in
// prepTower and timed inside its ntt kernel sample.
func (h *Hoisted) downPrepTower(p, i int) {
	sw := h.sw
	t0 := h.now()
	sw.R.Tables[sw.pBasis[i]].InverseScaled(h.yP[p][i], h.acc[p].Coeffs[sw.ell()+i], sw.downScale[i])
	h.stage(obs.StageModDown, t0, h.kernel(obs.KernelNTT, t0))
}

// downOvershoot estimates the exact-conversion overshoot for one
// coefficient chunk of output poly p.
func (h *Hoisted) downOvershoot(p, from, to int) {
	t0 := h.now()
	h.sw.downConv.Overshoot(h.yP[p], from, to)
	h.stage(obs.StageModDown, t0, h.kernel(obs.KernelBConv, t0))
}

// downOutTower is ModDown P2–P4 for Q tower i of output poly p:
// exact-convert the P part into tower i, then NTT it with the
// subtract-and-scale by P⁻¹ applied to each block as its last stage
// ends, in place. The P⁻¹ scale is timed inside the NTT's ntt kernel
// sample.
func (h *Hoisted) downOutTower(p, i int) {
	sw := h.sw
	t0 := h.now()
	dst := h.out[p].Coeffs[i]
	sw.downConv.ConvertExactTowerFromY(h.yP[p], i, dst)
	t := h.kernel(obs.KernelBConv, t0)
	sw.R.Tables[sw.qBasis[i]].ForwardSubMul(dst, h.acc[p].Coeffs[i], sw.pInvModQ[i], sw.pInvShoup[i])
	h.stage(obs.StageModDown, t0, h.kernel(obs.KernelNTT, t))
}
