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
// Between runs the state keeps only the ModUp row table: the rows the
// converters write. A digit's own towers bypass ModUp (paper Figure 1,
// red towers), as dataflow.Plan says, so no tile copies them: ApplyKey
// reads them as the input's rows, under every entry point. Every other
// row a tile writes — y, the accumulators, the ModDown rows, a
// compressed key's drawn A-rows — is run scratch, carved from a slab
// the run borrows from the one pool every switcher shares and handed
// back when its graph has finished.
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
	"sync"
	"time"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// Hoisted is the pooled execution state of key switching: the ModUp
// row table a hoist leaves for its replays, the row headers its tiles
// hand the kernels, and the task graphs that schedule those tiles on
// an engine. Every entry point draws one from the switcher's pool.
// Everything else a switch touches is run scratch, borrowed for one
// graph run from the package's one pool of slabs (borrow), so an idle
// state holds no intermediate but its ModUp rows, and resident scratch
// scales with the runs in flight, not with the states and levels.
//
// To callers it is the shared-ModUp state of one input polynomial:
// obtain it with HoistParallel, replay it against any number of
// evaluation keys, dense or compressed, with SwitchParallelInto, and
// return it with Release. It holds its input from the hoist until
// Release: its replays read the input's rows as the digits' own
// towers, so the input must stay unchanged until then. A Hoisted must
// not be used concurrently or after Release; hoisting and switching
// different inputs concurrently on one Switcher is safe.
type Hoisted struct {
	sw *Switcher
	df dataflow.Dataflow // the graph shape of this draw

	// Bound per run: the input until Release, the key and the outputs
	// for one replay or switch.
	d   *ring.Poly    // input, whose rows are the digits' own towers
	key KeyMaterial   // the key, either form
	out [2]*ring.Poly // outputs over B_ℓ

	// Observability binding, captured at the entry point: rec is
	// obs.Active() (nil when profiling is off — the tiles then read no
	// clock), tr obs.ActiveTracer() (nil when tracing is off — the
	// tasks then record no span).
	rec *obs.Recorder
	tr  *obs.Tracer

	// The ModUp row table [dnum][|D|], the one thing a hoist computes
	// for its replays: dnum·|D| − ℓ rows, allocated once per state, nil
	// at each digit's own towers.
	up [][][]uint64

	// Run scratch: rows borrow carves from the run's slab, nil between
	// runs, so a tile run outside a borrow panics instead of writing
	// into another run's slab.
	y     [][]uint64    // ℓ rows: INTT'd + ŷ-scaled digit towers
	accs  [2]ring.Poly  // the state's ApplyKey accumulators over D_ℓ
	yP    [2][][]uint64 // per output poly: K scaled ModDown rows, then their overshoot row
	drawn [][][]uint64  // a compressed key's A-rows, [|D|][dnum], each apply tile drawing its own tower's

	// acc is what the apply tiles sum into and ModDown reads: &accs[p],
	// or a stage binder's polynomial.
	acc [2]*ring.Poly

	// Row headers handed to the ApplyKey kernels, [|D|][dnum]: a
	// tower's ModUp rows and the matching rows of the two evk halves,
	// a compressed key's B-rows packed. One slot per tower, so
	// concurrent apply tiles share nothing and allocate nothing. Set by
	// the apply tiles and cleared with the run scratch, so an idle
	// state refers to no key.
	upRows, kbRows, kaRows [][][]uint64
	packedRows             [][][]byte

	// Schedules over the tiles, each built on first use (schedule.go):
	// per dataflow, its plan's graph over each half of a switch.
	graphs [dataflow.OCF + 1][len(halves)]*engine.Graph
}

func newState(sw *Switcher) *Hoisted {
	n, nd := sw.R.N, len(sw.dBasis)
	h := &Hoisted{sw: sw, y: make([][]uint64, sw.ell())}
	h.up = make([][][]uint64, sw.Dnum)
	for j := range h.up {
		h.up[j] = make([][]uint64, nd)
		for _, t := range sw.convDstIdx[j] {
			h.up[j][t] = make([]uint64, n)
		}
	}
	for p := range h.acc {
		h.accs[p] = ring.Poly{Basis: sw.dBasis, Coeffs: make([][]uint64, nd), IsNTT: true}
		h.acc[p] = &h.accs[p]
		h.yP[p] = make([][]uint64, len(sw.pBasis)+1)
	}
	headers := func() [][][]uint64 {
		hs := make([][][]uint64, nd)
		for t := range hs {
			hs[t] = make([][]uint64, sw.Dnum)
		}
		return hs
	}
	h.upRows, h.kbRows, h.kaRows, h.drawn = headers(), headers(), headers(), headers()
	h.packedRows = make([][][]byte, nd)
	for t := range h.packedRows {
		h.packedRows[t] = make([][]byte, sw.Dnum)
	}
	return h
}

// state draws an execution state from the pool, building one on a
// miss, to run df's graphs, and captures the active recorder and
// tracer.
func (sw *Switcher) state(df dataflow.Dataflow) *Hoisted {
	if !df.Valid() {
		panic(fmt.Sprintf("hks: unknown dataflow %v", df))
	}
	h, _ := sw.states.Get().(*Hoisted)
	if h == nil {
		h = newState(sw)
	}
	h.df, h.rec, h.tr = df, obs.Active(), obs.ActiveTracer()
	return h
}

// Release lets go of the input and returns the state to its
// switcher's pool. It reads neither the input nor any row, so the
// input may change once the last replay has returned. The Hoisted must
// not be used afterwards.
func (h *Hoisted) Release() {
	h.d, h.rec, h.tr = nil, nil, nil
	h.sw.states.Put(h)
}

// ---- Run scratch ----

// slab is one graph run's scratch: rows for every run (y, the
// accumulators, the ModDown rows), and the drawn rows of a compressed
// key's A-half, made the first time a run that draws one borrows the
// slab, so a process that only switches dense keys never makes them.
type slab struct {
	rows, drawn []uint64
}

// slabs is the one pool of run slabs, shared by every switcher and so
// by every level. Both parts are sized for the ring's top level
// (slabLen, Switcher.drawnSlab), so a warm slab fits a run at any
// level of a SwitcherPool and no part is remade for being too short.
var slabs sync.Pool

// slabLen returns the words of a run's rows at r's top level, the most
// any level carves: ℓ rows of y, |D| rows of each accumulator and K+1
// ModDown rows per output.
func slabLen(r *ring.Ring) int {
	return r.N * (r.NumQ + 2*(r.NumQ+r.NumP) + 2*(r.NumP+1))
}

// borrow takes a slab from the pool and carves the state's run scratch
// from it: y, its own accumulators, the ModDown rows and, when the
// bound key is compressed, the drawn A-rows. Hand it back with
// giveBack once the run is over.
func (h *Hoisted) borrow() *slab {
	n := h.sw.R.N
	s, _ := slabs.Get().(*slab)
	if s == nil {
		s = new(slab)
	}
	if want := slabLen(h.sw.R); len(s.rows) < want {
		s.rows = make([]uint64, want)
	}
	free := carve(h.y, s.rows, n)
	for p := range h.accs {
		free = carve(h.accs[p].Coeffs, free, n)
		free = carve(h.yP[p], free, n)
	}
	if _, ok := h.key.(*CompressedEvk); ok {
		if len(s.drawn) < h.sw.drawnSlab {
			s.drawn = make([]uint64, h.sw.drawnSlab)
		}
		free = s.drawn
		for _, tower := range h.drawn {
			free = carve(tower, free, n)
		}
	}
	return s
}

// carve points each of rows at the next n words of free and returns
// the words left.
func carve(rows [][]uint64, free []uint64, n int) []uint64 {
	for i := range rows {
		rows[i], free = free[:n:n], free[n:]
	}
	return free
}

// giveBack clears every row header of the state but its row table and
// returns s to the pool.
func (h *Hoisted) giveBack(s *slab) {
	clear(h.y)
	for p := range h.accs {
		clear(h.accs[p].Coeffs)
		clear(h.yP[p])
	}
	for t := range h.drawn {
		clear(h.drawn[t])
		clear(h.upRows[t])
		clear(h.kbRows[t])
		clear(h.kaRows[t])
		clear(h.packedRows[t])
	}
	slabs.Put(s)
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
	h.rec.Kernel(k, now.Sub(t))
	return now
}

// stage records [t0, t) under st; t is the tile's last kernel mark, or
// h.now() when the tile ends in work no kernel covers.
func (h *Hoisted) stage(st obs.Stage, t0, t time.Time) {
	if h.rec != nil {
		h.rec.Stage(st, t.Sub(t0))
	}
}

// ---- Tiles ----

// upRow returns digit j's ModUp row for extended tower t: a row of the
// table, except for the rows no converter writes — digit j's own
// towers, which bypass ModUp (paper Figure 1, red towers) — which are
// the input's.
func (h *Hoisted) upRow(j, t int) []uint64 {
	if h.sw.dstIdxOf[j][t] < 0 {
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
