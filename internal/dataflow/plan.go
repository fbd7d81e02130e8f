package dataflow

import (
	"fmt"
	"math"

	"ciflow/internal/params"
)

// A Plan is a dataflow written down once: the ordered walk over the
// tiles of paper Figure 1, each declaring the rows it reads and writes,
// cut into the groups the dataflow fuses, with the passes its on-chip
// budget forces marked. Every back-end is a visitor of it. The RPU model
// (emit.go) walks the tiles with a residency machine and emits the
// loads, stores and kernels Schedule.Run prices; internal/hks turns
// every group into one engine task and every "who last wrote a row I
// read" into an edge. The tile set is the same under every dataflow —
// only the order, the grouping and the pass structure differ, which is
// the paper's thesis (§IV).

// Kind is the stage of Figure 1 a tile belongs to.
type Kind uint8

const (
	INTT     Kind = iota // ModUp P1: Q tower T to the coefficient domain, with its share of the digit's ŷ scaling
	Conv                 // ModUp P2: digit J converted to extended tower T
	NTT                  // ModUp P3: that row back to the evaluation domain
	Apply                // P4: digit J's row of tower T times both halves of the key
	Reduce               // P5: tower T's dnum partial products summed, for both output polynomials
	DownINTT             // ModDown P1: P tower T of output polynomial J, with the ŷ scaling
	DownOver             // ModDown P2: the exact conversion's overshoot estimate on coefficient chunk T of polynomial J
	DownOut              // ModDown P2–P4: Q tower T of polynomial J converted, transformed, subtracted and scaled
)

// OverChunk is the number of coefficients one DownOver tile covers.
const OverChunk = 2048

// RowKind classifies a Row.
type RowKind uint8

const (
	RowIn   RowKind = iota // in.t: input tower t, evaluation domain
	RowINTT                // intt.t: its coefficient-domain, ŷ-scaled form
	RowMu                  // mu.j.t: digit j extended to tower t
	RowPP                  // pp.j.p.t: digit j's partial product for polynomial p (MP only)
	RowAcc                 // acc.p.t: the ApplyKey sum for polynomial p over D
	RowCv                  // cv.p.t: ModDown's converted tower, scratch of one DownOut
	RowOut                 // out.p.t: the result
	RowOv                  // ov.p.c: one chunk of polynomial p's overshoot estimate
)

var rowNames = [...]struct {
	name  string
	arity int
}{{"in", 1}, {"intt", 1}, {"mu", 2}, {"pp", 3}, {"acc", 2}, {"cv", 2}, {"out", 2}, {"ov", 2}}

// Row names one tower-sized operand. D-basis tower indices run
// 0..KL−1 (the Q part) then KL..KL+KP−1 (the P part).
type Row struct {
	Kind    RowKind
	A, B, C int
}

// String is the row's name in the RPU program ("ld:mu.2.17").
func (r Row) String() string {
	switch n := rowNames[r.Kind]; n.arity {
	case 1:
		return fmt.Sprintf("%s.%d", n.name, r.A)
	case 2:
		return fmt.Sprintf("%s.%d.%d", n.name, r.A, r.B)
	default:
		return fmt.Sprintf("%s.%d.%d.%d", n.name, r.A, r.B, r.C)
	}
}

func inRow(t int) Row       { return Row{Kind: RowIn, A: t} }
func inttRow(t int) Row     { return Row{Kind: RowINTT, A: t} }
func muRow(j, t int) Row    { return Row{Kind: RowMu, A: j, B: t} }
func accRow(p, t int) Row   { return Row{Kind: RowAcc, A: p, B: t} }
func cvRow(p, t int) Row    { return Row{Kind: RowCv, A: p, B: t} }
func outRow(p, t int) Row   { return Row{Kind: RowOut, A: p, B: t} }
func ovRow(p, c int) Row    { return Row{Kind: RowOv, A: p, B: c} }
func ppRow(j, p, t int) Row { return Row{Kind: RowPP, A: j, B: p, C: t} }

// Op is one row operation of a tile: the rows it reads and the row it
// writes (both, for a transform in place), and the kernel the RPU runs
// for it, if any. The nameless ones — a Reduce over sums accumulated in
// place, the overshoot estimate of the exact conversion — still order
// the engine's tasks by their rows.
type Op struct {
	Name  string // kernel name in the RPU program
	Cost  int64  // weighted modular operations
	Reads []Row
	Write Row
	Last  bool // the Reads are dead once it has run, ahead of the tile's Frees
}

// Tile is one unit of work of the walk.
type Tile struct {
	Kind Kind
	J, T int // digit and tower; for the Down kinds, output polynomial and tower (chunk for DownOver)
	// Acc marks an Apply whose destination already holds a contribution:
	// it accumulates in place, and its kernels carry P5's addition.
	Acc bool
	Ops []Op
	// Frees are the rows the walk is done with once the tile has run.
	Frees []Row
}

// Cost returns t's weighted modular operations. Over any plan of a
// shape they sum to params.Ops().WeightedTotal(): a dataflow reorders
// the work and never changes it (§IV-D).
func (t Tile) Cost() (n int64) {
	for _, op := range t.Ops {
		n += op.Cost
	}
	return n
}

// Group is the dataflow's unit of fusion, run back to back with its
// intermediates in hand: a tower tile under MP, a digit's ModUp under
// DC, an output tower under OC. Name is its task name on the engine.
//
// A group with a non-nil Pin opens a pass: from here to the next such
// group the walk holds the rows of Pin on chip. OC and OCF pin as many
// digits' INTT rows as the budget allows and split a section into
// several passes when it does not hold them all ("the final digit is
// loaded to compute the last partial sum", §IV-C); OCF also pins
// ModDown's P rows.
type Group struct {
	Name  string
	Tiles []Tile
	Pin   []Row
}

// Plan is one dataflow's walk for one shape and budget.
type Plan struct {
	Bench params.Benchmark
	// Walk is the dataflow whose order the plan follows: the one asked
	// for, except that DC with a single digit is MP ("for BTS1 with one
	// digit, MP and DC have the same implementation", §VI-A-2) and OCF
	// is OC when its fusion does not fit the budget.
	Walk   Dataflow
	Groups []Group
}

// Unbounded is the budget of a back-end with no on-chip limit: every
// section is one pass and OCF always fuses.
const Unbounded = math.MaxInt32

// The halves of the walk a hoisted switch runs apart: ModUp (P1–P3)
// depends on the input alone and runs once per hoist; the replay
// (ApplyKey, Reduce and ModDown) runs once per key.
func AnyTile(Tile) bool      { return true }
func ModUpTile(t Tile) bool  { return t.Kind <= NTT }
func ReplayTile(t Tile) bool { return t.Kind >= Apply }

// Ops sums the weighted modular operations of the plan's tiles that
// keep admits.
func (p *Plan) Ops(keep func(Tile) bool) (n int64) {
	for _, grp := range p.Groups {
		for _, t := range grp.Tiles {
			if keep(t) {
				n += t.Cost()
			}
		}
	}
	return n
}

// ModUpShare is the fraction of one switch's weighted modular
// operations a hoist runs: the part k rotations of one input share.
func (p *Plan) ModUpShare() float64 {
	return float64(p.Ops(ModUpTile)) / float64(p.Ops(AnyTile))
}

// HoistedSpeedup is the hoisting model: the throughput gain of one
// hoist and k replays over k whole switches, with runtime proportional
// to weighted modular operations — k·switch over k·switch − (k−1)·ModUp.
func (p *Plan) HoistedSpeedup(k int) float64 {
	if k <= 1 {
		return 1
	}
	all := float64(int64(k) * p.Ops(AnyTile))
	return all / (all - float64(int64(k-1)*p.Ops(ModUpTile)))
}

// NewPlan walks df over shape b with room for budget towers on chip. b
// must be valid (params.Benchmark.Validate) with at least one P tower,
// and the budget must hold the widest digit beside the working towers,
// as Generate checks.
func NewPlan(df Dataflow, b params.Benchmark, budget int64) *Plan {
	n := int64(b.N())
	ntt := params.ButterflyWeight * (n / 2 * int64(b.LogN))
	w := &walk{b: b, budget: budget, taken: df, done: make([]bool, b.KL), digits: make([][]Row, b.Dnum),
		cNTT: ntt, cINTT: ntt + params.MulAccWeight*n, cMulAcc: params.MulAccWeight * n,
		cAdd: params.AddWeight * n, cScale: params.ScaleWeight * n}
	for t := 0; t < b.KL; t++ {
		w.digits[t/b.Alpha()] = append(w.digits[t/b.Alpha()], inttRow(t))
		w.intts = append(w.intts, inttRow(t))
	}
	switch df {
	case MP:
		w.mp()
	case DC:
		w.dc()
	case OC:
		w.oc(false)
	case OCF:
		w.oc(true)
	default:
		panic(fmt.Sprintf("dataflow: unknown dataflow %d", int(df)))
	}
	return &Plan{Bench: b, Walk: w.taken, Groups: w.groups}
}

// ---- The walk ----

type walk struct {
	b      params.Benchmark
	budget int64
	taken  Dataflow // Plan.Walk
	groups []Group
	pin    []Row   // opens a pass at the next group
	digits [][]Row // the INTT rows of each digit
	intts  []Row   // all of them
	done   []bool  // INTT(t) is in the walk already

	// Weighted op costs (see params for the weights).
	cNTT    int64 // one transform
	cINTT   int64 // an INTT plus the tower's share of the BConv ŷ pre-multiplication, so the premul is counted once per tower under every dataflow
	cMulAcc int64 // N multiply-accumulates: one source tower of a conversion, or one polynomial's share of ApplyKey on one tower
	cAdd    int64 // N additions: one more digit folded into one tower of one polynomial
	cScale  int64 // ModDown P4 on one tower of one polynomial
}

func (w *walk) group(name string, tiles ...Tile) {
	w.groups = append(w.groups, Group{Name: name, Tiles: tiles, Pin: w.pin})
	w.pin = nil
}

// last is the tile the walk appended last.
func (w *walk) last() *Tile {
	ts := w.groups[len(w.groups)-1].Tiles
	return &ts[len(ts)-1]
}

// own reports whether D tower t is one of digit j's own towers, which
// bypass INTT→BConv→NTT and enter ApplyKey as the input row itself
// (paper Figure 1, red towers).
func (w *walk) own(j, t int) bool { return t < w.b.KL && t/w.b.Alpha() == j }

// others calls f for every D tower digit j is converted to.
func (w *walk) others(j int, f func(t int)) {
	for t := 0; t < w.b.KL+w.b.KP; t++ {
		if !w.own(j, t) {
			f(t)
		}
	}
}

func (w *walk) intt(t int) Tile {
	return Tile{Kind: INTT, J: t / w.b.Alpha(), T: t,
		Ops: []Op{{Name: "p1.intt", Cost: w.cINTT, Reads: []Row{inRow(t)}, Write: inttRow(t)}}}
}

func (w *walk) conv(name string, j, t int) Tile {
	return Tile{Kind: Conv, J: j, T: t,
		Ops: []Op{{Name: name, Cost: w.cMulAcc * int64(len(w.digits[j])), Reads: w.digits[j], Write: muRow(j, t)}}}
}

func (w *walk) ntt(name string, j, t int) Tile {
	mu := muRow(j, t)
	return Tile{Kind: NTT, J: j, T: t, Ops: []Op{{Name: name, Cost: w.cNTT, Reads: []Row{mu}, Write: mu}}}
}

// apply multiplies digit j's row of tower t — the input row on a bypass
// tower — into dst(0, t) and dst(1, t), one kernel per polynomial, and
// is the row's last reader.
func (w *walk) apply(name string, j, t int, dst func(p, t int) Row, acc bool) Tile {
	src, cost := []Row{muRow(j, t)}, w.cMulAcc
	if w.own(j, t) {
		src[0] = inRow(t)
	}
	if acc {
		cost += w.cAdd
	}
	return Tile{Kind: Apply, J: j, T: t, Acc: acc, Frees: src, Ops: []Op{
		{Name: name, Cost: cost, Reads: src, Write: dst(0, t)},
		{Name: name, Cost: cost, Reads: src, Write: dst(1, t)}}}
}

// reduce closes tower t's accumulation. Under MP with several digits it
// is the P5 kernel over the partial products ApplyKey left, a
// polynomial's products released with its sum so that the two sets
// never share the chip; elsewhere the Applies accumulated in place,
// additions included, and it only marks the sums final.
func (w *walk) reduce(t int, partials bool) Tile {
	tile := Tile{Kind: Reduce, T: t}
	for p := 0; p < 2; p++ {
		op := Op{Reads: []Row{accRow(p, t)}, Write: accRow(p, t)}
		if partials {
			op = Op{Name: "p5.reduce", Cost: int64(w.b.Dnum-1) * w.cAdd, Write: accRow(p, t), Last: true}
			for j := 0; j < w.b.Dnum; j++ {
				op.Reads = append(op.Reads, ppRow(j, p, t))
			}
			tile.Frees = append(tile.Frees, op.Reads...)
		}
		tile.Ops = append(tile.Ops, op)
	}
	return tile
}

// mp is the Max-Parallel walk (§IV-A): every stage runs over all
// towers before the next stage starts.
func (w *walk) mp() {
	b := w.b
	w.taken = MP
	for t := 0; t < b.KL; t++ {
		w.group("modup.prep", w.intt(t))
	}
	// P2+P3, fused per converted tower. A digit's INTT rows are released
	// with its last tower — or, when all ℓ of them fit beside two working
	// towers and so were never spilled, together after the last digit.
	hold := int64(b.KL+2) <= w.budget
	for j := 0; j < b.Dnum; j++ {
		w.others(j, func(t int) {
			w.group("modup.conv", w.conv("p2.bconv", j, t), w.ntt("p3.ntt", j, t))
		})
		if !hold {
			w.last().Frees = w.digits[j]
		}
	}
	if hold {
		w.last().Frees = w.intts
	}
	// P4 digit by digit, P5 tower by tower. With a single digit the
	// partial products are already the sums.
	partials := b.Dnum > 1
	for j := 0; j < b.Dnum; j++ {
		dst := accRow
		if partials {
			dst = func(p, t int) Row { return ppRow(j, p, t) }
		}
		for t := 0; t < b.KL+b.KP; t++ {
			w.group("apply", w.apply("p4.apply", j, t, dst, false))
		}
	}
	for t := 0; t < b.KL+b.KP; t++ {
		w.group("apply", w.reduce(t, partials))
	}
	w.modDown()
}

// dc is the Digit-Centric walk (§IV-B): each digit runs through all of
// ModUp and its ApplyKey before the next digit starts, accumulating
// into the sums.
func (w *walk) dc() {
	b := w.b
	if b.Dnum == 1 {
		w.mp()
		return
	}
	for j := 0; j < b.Dnum; j++ {
		var up []Tile
		for _, r := range w.digits[j] {
			up = append(up, w.intt(r.A))
		}
		w.others(j, func(t int) { up = append(up, w.conv("p2.bconv", j, t)) })
		up[len(up)-1].Frees = w.digits[j]
		w.others(j, func(t int) { up = append(up, w.ntt("p3.ntt", j, t)) })
		w.group("modup.digit", up...)
		name := "p4.apply"
		if j > 0 {
			name = "p4p5.acc"
		}
		for t := 0; t < b.KL+b.KP; t++ {
			w.group("apply", w.apply(name, j, t, accRow, j > 0))
		}
	}
	for t := 0; t < b.KL+b.KP; t++ {
		w.group("apply", w.reduce(t, false))
	}
	w.modDown()
}

// oc is the Output-Centric walk (§IV-C): one output tower at a time
// over INTT rows held on chip. Section 1 produces the towers modulo Q,
// grouped by their own digit, which bypasses conversion while the other
// dnum−1 digits are converted; Section 2 produces the towers modulo P,
// to which every digit contributes. A digit's INTTs enter the walk with
// the first pass that pins it.
//
// fused is the OCF order, this repository's extension: Section 2 first,
// then ModDown's P1 pins the P rows, and Section 1 follows every
// finished Q tower with its ModDown tiles, so the finished sums never
// visit DRAM. It needs the 2·KP P rows on chip beside one digit pass
// and falls back to OC when they do not fit, so OCF is never worse.
func (w *walk) oc(fused bool) {
	b := w.b
	all := make([]int, b.Dnum)
	for j := range all {
		all[j] = j
	}
	// Pass budgets: the capacity less the working set of one output tower
	// (its source row, the two sums and a tower of slack), and under
	// fusion less the pinned P rows and ModDown's scratch as well.
	budget, s1 := w.budget-4, w.budget-int64(2*b.KP)-6
	if fused = fused && s1 >= int64(b.Alpha()); !fused {
		s1 = budget
	}
	w.taken = OC
	if fused {
		w.taken = OCF
	}

	section1 := func() {
		for own := 0; own < b.Dnum; own++ {
			need := append(append([]int(nil), all[:own]...), all[own+1:]...)
			passes := w.partition(need, s1)
			for pi, pass := range passes {
				w.beginPass(pass)
				for _, r := range w.digits[own] {
					finished := pi == len(passes)-1
					w.tower(own, r.A, pass, pi == 0, finished)
					if fused && finished {
						w.group("down.out", w.downOut(0, r.A))
						w.group("down.out", w.downOut(1, r.A))
					}
				}
			}
		}
	}
	section2 := func() {
		passes := w.partition(all, budget)
		for pi, pass := range passes {
			w.beginPass(pass)
			for t := b.KL; t < b.KL+b.KP; t++ {
				w.tower(-1, t, pass, pi == 0, pi == len(passes)-1)
			}
		}
	}

	if !fused {
		section1()
		section2()
		w.last().Frees = w.intts
		w.modDown()
		return
	}
	section2()
	pins := append(w.pRows(0), w.pRows(1)...)
	w.pin = pins
	w.downPrep(0)
	w.downPrep(1)
	section1()
	w.last().Frees = append(append(w.last().Frees, pins...), w.intts...)
}

// partition splits the digits a section needs into consecutive passes
// whose INTT rows fit the budget. No digits at all (Section 1 of a
// single-digit shape: bypass only) is one empty pass.
func (w *walk) partition(need []int, budget int64) [][]int {
	passes := [][]int{nil}
	var used int64
	for _, j := range need {
		width := int64(len(w.digits[j]))
		if width > budget {
			panic("dataflow: digit exceeds the resident budget") // Generate checks the minimum capacity
		}
		if last := len(passes) - 1; used+width <= budget || len(passes[last]) == 0 {
			passes[last] = append(passes[last], j)
			used += width
		} else {
			passes = append(passes, []int{j})
			used = width
		}
	}
	return passes
}

// beginPass opens a pass over the given digits: it pins their INTT rows
// and puts the INTT tiles of those not transformed yet first, in tower
// order.
func (w *walk) beginPass(digits []int) {
	w.pin = []Row{} // an empty pass still is one: not nil
	for _, j := range digits {
		w.pin = append(w.pin, w.digits[j]...)
	}
	for _, r := range w.pin {
		if !w.done[r.A] {
			w.done[r.A] = true
			w.group("modup.prep", w.intt(r.A))
		}
	}
}

// tower is one pass's work on output tower t: the bypass contribution
// of its own digit (none for a P tower, own < 0) if the pass starts the
// tower, then each pass digit converted, transformed and applied while
// the row is in hand, and the closing Reduce if the pass finishes it.
func (w *walk) tower(own, t int, pass []int, starts, finishes bool) {
	var g []Tile
	started := !starts
	if starts && own >= 0 {
		bypass := w.apply("s1.bypass", own, t, accRow, false)
		bypass.Frees = nil // the input row may still be needed for its INTT
		g, started = append(g, bypass), true
	}
	for _, j := range pass {
		name := "oc.acc"
		if !started {
			name = "oc.apply"
		}
		g = append(g, w.conv("oc.bconv", j, t), w.ntt("oc.ntt", j, t), w.apply(name, j, t, accRow, started))
		started = true
	}
	if finishes {
		g = append(g, w.reduce(t, false))
	}
	w.group("oc", g...)
}

// ---- ModDown (paper Figure 1, bottom) ----
//
// Both output polynomials' P rows are transformed in place, then one
// output tower at a time is converted, transformed and folded into the
// result with the P⁻¹ scaling — "calculating one output tower at a time
// eliminates the expansion of ModDown P2" (§IV-C) holds for every
// dataflow here; they differ in whether the sums are still on chip when
// ModDown starts.

func (w *walk) pRows(p int) []Row {
	rows := make([]Row, w.b.KP)
	for i := range rows {
		rows[i] = accRow(p, w.b.KL+i)
	}
	return rows
}

// overs are the chunks of polynomial p's overshoot estimate, which the
// exact conversion subtracts; the model prices it inside md.bconv.
func (w *walk) overs(p int) []Row {
	var rows []Row
	for c := 0; c*OverChunk < w.b.N(); c++ {
		rows = append(rows, ovRow(p, c))
	}
	return rows
}

// downPrep is polynomial p's ModDown P1 and its overshoot estimate.
func (w *walk) downPrep(p int) {
	pin := w.pRows(p)
	for i, r := range pin {
		w.group("down.prep", Tile{Kind: DownINTT, J: p, T: i,
			Ops: []Op{{Name: "md.intt", Cost: w.cINTT, Reads: pin[i : i+1], Write: r}}})
	}
	for c, ov := range w.overs(p) {
		w.group("down.over", Tile{Kind: DownOver, J: p, T: c, Ops: []Op{{Reads: pin, Write: ov}}})
	}
}

func (w *walk) downOut(p, t int) Tile {
	cv, sum := cvRow(p, t), accRow(p, t)
	return Tile{Kind: DownOut, J: p, T: t, Frees: []Row{cv, sum}, Ops: []Op{
		{Reads: w.overs(p), Write: cv},
		{Name: "md.bconv", Cost: w.cMulAcc * int64(w.b.KP), Reads: w.pRows(p), Write: cv},
		{Name: "md.ntt", Cost: w.cNTT, Reads: []Row{cv}, Write: cv},
		{Name: "md.scale", Cost: w.cScale, Reads: []Row{cv, sum}, Write: outRow(p, t)}}}
}

func (w *walk) modDown() {
	for p := 0; p < 2; p++ {
		w.downPrep(p)
		for t := 0; t < w.b.KL; t++ {
			w.group("down.out", w.downOut(p, t))
		}
		w.last().Frees = append(w.last().Frees, w.pRows(p)...)
	}
}
