package hks

// Schedules over the tile set of tiles.go, each a visit of a dataflow's
// plan (internal/dataflow: the ordered walk of typed tiles, grouped by
// what the dataflow fuses, that the RPU model visits too). The plans are
// the switcher's, taken at an unbounded budget — the engine pins
// nothing — and tileFunc maps their tiles onto the tile set:
//
//	fused graph   one whole per-rotation switch: every group of the
//	              selected dataflow's plan is one task that runs its
//	              tiles in order, after the tasks that last wrote the
//	              rows it reads.
//	                MP   every tile its own task: stages fan out over
//	                     towers and meet at per-tower edges;
//	                DC   one task per digit runs that digit's whole
//	                     ModUp, parallelism is across the dnum digits;
//	                OC   after the per-tower INTTs, one task per
//	                     extended tower converts each digit's
//	                     contribution and finishes the tower's ApplyKey;
//	                OCF  OC's tasks and edges, created Section 2 first
//	                     with each Q tower's ModDown behind it.
//	hoist graph   the same visit restricted to ModUp's tiles: what
//	              a hoist runs once for all its keys.
//	                MP   one task per INTT and per converted tower;
//	                DC   one task per digit;
//	                OC   after the per-tower INTTs, one task per
//	                     extended tower converts every digit into it.
//	replay graph  the same visit restricted to ApplyKey and ModDown;
//	              a row no task of the graph wrote is one the hoist
//	              left in the state, or a digit's own tower, which is
//	              the input's. Every dataflow applies the key one
//	              extended tower at a time; OCF keeps its order, Section
//	              2 first with each Q tower's ModDown behind it.
//	apply graph   the visit restricted to the Reduce tiles: ApplyEvk.
//	down0 graph   the visit restricted to output 0's ModDown: ModDown.
//
// There is no other schedule. The serial entry points run these graphs
// on engine.Inline(), the engine with no pool, which runs every node on
// the calling goroutine: KeySwitch MP's fused graph, SwitchHoisted MP's
// hoist and replay graphs, the stage binders MP's apply and down0
// graphs and ModUp its hoist graph.
//
// A per-rotation switch is its fused graph, not a hoist followed by a
// replay: the barrier between the two would undo OC's convert+apply
// task and MP's tower-wise overlap of ModUp with ApplyKey.

import (
	"slices"
	"time"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
)

// tileFunc returns the tile of tiles.go that runs t, or nil for the two
// kinds that ride in a neighbour here: convertTower transforms the row
// it has just converted (NTT rides in Conv), and applyTower sums every
// digit's product of a tower in one deferred-reduction pass (Apply
// rides in Reduce).
func (h *Hoisted) tileFunc(t dataflow.Tile) func() {
	switch t.Kind {
	case dataflow.INTT:
		return func() { h.prepTower(t.T) }
	case dataflow.Conv:
		di := h.sw.dstIdxOf[t.J][t.T]
		return func() { h.convertTower(t.J, di) }
	case dataflow.Reduce:
		return func() { h.applyTower(t.T) }
	case dataflow.DownINTT:
		return func() { h.downPrepTower(t.J, t.T) }
	case dataflow.DownOver:
		from := t.T * dataflow.OverChunk
		to := min(from+dataflow.OverChunk, h.sw.R.N)
		return func() { h.downOvershoot(t.J, from, to) }
	case dataflow.DownOut:
		return func() { h.downOutTower(t.J, t.T) }
	}
	return nil
}

// ---- Graphs ----

// graph visits df's plan and builds the task graph of the tiles keep
// admits. A group is one task; its edges come from the rows alone: it
// waits for whoever last wrote a row it reads or rewrites, exactly as
// the model's machine wires a kernel to its operands' producers. A
// group none of whose tiles runs here (MP's and DC's per-digit Apply)
// is no task: the rows it writes stand for the ones it read. An edge
// another edge implies is dropped.
func (h *Hoisted) graph(df dataflow.Dataflow, keep func(dataflow.Tile) bool) *engine.Graph {
	g := engine.NewGraph()
	writers := map[dataflow.Row][]int{} // the tasks a row's contents wait on; none: already in the state
	var waits [][]int                   // per task, the tasks it waits on
	for _, grp := range h.sw.plans[df].Groups {
		var runs []func()
		var deps []int
		var writes []dataflow.Row
		for _, t := range grp.Tiles {
			if !keep(t) {
				continue
			}
			for _, op := range t.Ops {
				for _, r := range op.Reads {
					deps = union(deps, writers[r])
				}
				deps = union(deps, writers[op.Write])
				writes = append(writes, op.Write)
			}
			if run := h.tileFunc(t); run != nil {
				runs = append(runs, run)
			}
		}
		if len(runs) > 0 {
			var direct []int
			for _, d := range deps {
				if !slices.ContainsFunc(deps, func(via int) bool { return slices.Contains(waits[via], d) }) {
					direct = append(direct, d)
				}
			}
			waits = append(waits, direct)
			deps = []int{g.Node(h.task(grp.Name, runs), direct...)}
		}
		for _, r := range writes {
			writers[r] = deps
		}
	}
	return g
}

// task is the engine task of a plan group: its tiles in order, under
// one worker span named for the group when the state's run captured a
// tracer. It reads h.tr as it runs, so a cached graph follows the
// tracer of each run.
func (h *Hoisted) task(name string, runs []func()) func() {
	return func() {
		var start time.Time
		if h.tr != nil {
			start = time.Now()
		}
		for _, f := range runs {
			f()
		}
		if h.tr != nil {
			h.tr.Span(name, start, time.Now())
		}
	}
}

// union appends to set the elements of more it lacks.
func union(set, more []int) []int {
	for _, d := range more {
		if !slices.Contains(set, d) {
			set = append(set, d)
		}
	}
	return set
}

// half is the part of a switch, and so of its plan, one graph visits.
type half uint8

const (
	whole  half = iota // a per-rotation switch
	modUp              // a hoist, and ModUp
	replay             // one key's replay of a hoist
	apply              // ApplyEvk: ApplyKey+Reduce alone
	down0              // ModDown: output 0's ModDown alone
)

var halves = [...]func(dataflow.Tile) bool{
	whole:  dataflow.AnyTile,
	modUp:  dataflow.ModUpTile,
	replay: dataflow.ReplayTile,
	apply:  func(t dataflow.Tile) bool { return t.Kind == dataflow.Reduce },
	down0:  func(t dataflow.Tile) bool { return t.Kind >= dataflow.DownINTT && t.J == 0 },
}

// schedule returns the graph of the state's dataflow over hf, built the
// first time the state runs it.
func (h *Hoisted) schedule(hf half) *engine.Graph {
	g := &h.graphs[h.df][hf]
	if *g == nil {
		*g = h.graph(h.df, halves[hf])
	}
	return *g
}
