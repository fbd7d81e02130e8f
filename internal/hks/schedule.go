package hks

// Schedules over the tile set of tiles.go. The serial schedule runs
// the tiles in ascending order on the calling goroutine. The engine
// schedules are dependency graphs on the internal/engine worker pool,
// assembled from three builders that append to a graph — ModUp by
// tower or by digit, apply, ModDown — plus OC's fused tower tile:
//
//	fused graph   one whole per-rotation switch, shaped by the dataflow
//	              the caller selects — the execution-time counterpart
//	              of the schedules internal/dataflow generates for the
//	              RPU model:
//	                MP  every stage fans out over per-tower tiles that
//	                    meet at per-tower dependency edges;
//	                DC  one node per digit runs that digit's whole
//	                    ModUp, parallelism is across the dnum digits;
//	                OC  after the shared per-tower INTT pass, one node
//	                    per extended tower converts each digit's
//	                    contribution and finishes that tower's ApplyKey.
//	hoist graph   ModUp alone, by digit under DC and by tower otherwise.
//	replay graph  apply and ModDown over rows a hoist left in the state;
//	              the same for every dataflow (the key-dependent half
//	              has no digit pipeline left to reshape).
//
// A per-rotation switch is its fused graph, not a hoist followed by a
// replay: the barrier between the two would undo OC's convert+apply
// tile and MP's tower-wise overlap of ModUp with ApplyKey.

import (
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
)

// ---- Serial schedule ----

func (h *Hoisted) runModUp() {
	for i := range h.y {
		h.prepTower(i)
	}
	for j := range h.up {
		for di := range h.sw.convDstIdx[j] {
			h.convertTower(j, di)
		}
	}
}

func (h *Hoisted) runApply() {
	for t := range h.sw.dBasis {
		h.applyTower(t)
	}
}

// runModDown runs output poly p's ModDown tiles in the order
// buildModDown's edges impose.
func (h *Hoisted) runModDown(p int) {
	n := h.sw.R.N
	for i := range h.sw.pBasis {
		h.downPrepTower(p, i)
	}
	for from := 0; from < n; from += overshootChunk {
		h.downOvershoot(p, from, min(from+overshootChunk, n))
	}
	for i := range h.sw.qBasis {
		h.downOutTower(p, i)
	}
}

// ---- Graph builders ----

// noNodes returns a [dnum][|D|] node table holding −1 everywhere.
func (sw *Switcher) noNodes() [][]int {
	tab := make([][]int, sw.Dnum)
	for j := range tab {
		tab[j] = make([]int, len(sw.dBasis))
		for t := range tab[j] {
			tab[j][t] = -1
		}
	}
	return tab
}

func (h *Hoisted) prepNodes(g *engine.Graph) []int {
	prep := make([]int, h.sw.ell())
	for i := range prep {
		prep[i] = g.NodeNamed("modup.prep", func() { h.prepTower(i) })
	}
	return prep
}

// modUpByTower appends ModUp as per-tower tiles. It returns, per
// (digit, extended tower), the node that finishes that ModUp row, −1
// on the bypass path.
func (h *Hoisted) modUpByTower(g *engine.Graph) [][]int {
	sw := h.sw
	prep, done := h.prepNodes(g), sw.noNodes()
	for j := range done {
		deps := prep[sw.digitLo(j):sw.digitHi(j)]
		for di, t := range sw.convDstIdx[j] {
			done[j][t] = g.NodeNamed("modup.conv", func() { h.convertTower(j, di) }, deps...)
		}
	}
	return done
}

// modUpByDigit appends ModUp as one pipeline node per digit, returning
// the same table as modUpByTower.
func (h *Hoisted) modUpByDigit(g *engine.Graph) [][]int {
	done := h.sw.noNodes()
	for j := range done {
		dig := g.NodeNamed("modup.digit", func() { h.digitPipeline(j) })
		for _, t := range h.sw.convDstIdx[j] {
			done[j][t] = dig
		}
	}
	return done
}

func (h *Hoisted) modUpNodes(g *engine.Graph) [][]int {
	if h.df == dataflow.DC {
		return h.modUpByDigit(g)
	}
	return h.modUpByTower(g)
}

// applyNodes appends one apply node per extended tower, each after the
// nodes of done that finish its rows (a nil done: the rows are already
// in the state). It returns the node per tower.
func (h *Hoisted) applyNodes(g *engine.Graph, done [][]int) []int {
	acc := make([]int, len(h.sw.dBasis))
	var deps []int
	for t := range acc {
		deps = deps[:0]
		for j := range done {
			if done[j][t] >= 0 {
				deps = append(deps, done[j][t])
			}
		}
		acc[t] = g.NodeNamed("apply", func() { h.applyTower(t) }, deps...)
	}
	return acc
}

// ocNodes appends the Output-Centric ModUp+apply: the shared prep pass,
// then one node per extended tower that finishes it end to end.
func (h *Hoisted) ocNodes(g *engine.Graph) []int {
	sw := h.sw
	prep := h.prepNodes(g)
	acc := make([]int, len(sw.dBasis))
	var deps []int
	for t := range acc {
		deps = deps[:0]
		for i := range prep {
			// Tower t consumes every digit's ŷ rows except its own
			// digit's (bypass); P towers consume them all.
			if !sw.bypass(i/sw.Alpha, t) {
				deps = append(deps, prep[i])
			}
		}
		acc[t] = g.NodeNamed("oc", func() { h.ocTower(t) }, deps...)
	}
	return acc
}

// buildModDown appends the ModDown stages for both output polys.
// accNode[t] is the node that finished extended tower t of the
// accumulators.
func (h *Hoisted) buildModDown(g *engine.Graph, accNode []int) {
	ell, n := h.sw.ell(), h.sw.R.N
	for p := 0; p < 2; p++ {
		prep := make([]int, len(h.sw.pBasis))
		for i := range prep {
			prep[i] = g.NodeNamed("down.prep", func() { h.downPrepTower(p, i) }, accNode[ell+i])
		}
		var over []int
		for from := 0; from < n; from += overshootChunk {
			to := min(from+overshootChunk, n)
			over = append(over, g.NodeNamed("down.over", func() { h.downOvershoot(p, from, to) }, prep...))
		}
		for i := 0; i < ell; i++ {
			g.NodeNamed("down.out", func() { h.downOutTower(p, i) }, append([]int{accNode[i]}, over...)...)
		}
	}
}

// ---- The three graphs, each built the first time a state runs it ----

func (h *Hoisted) fusedGraph() *engine.Graph {
	if h.fused == nil {
		h.fused = engine.NewGraph()
		if h.df == dataflow.MP || h.df == dataflow.DC {
			h.buildModDown(h.fused, h.applyNodes(h.fused, h.modUpNodes(h.fused)))
		} else { // OC, and OCF, which schedules as OC
			h.buildModDown(h.fused, h.ocNodes(h.fused))
		}
	}
	return h.fused
}

func (h *Hoisted) hoistGraph() *engine.Graph {
	if h.hoistG == nil {
		h.hoistG = engine.NewGraph()
		h.modUpNodes(h.hoistG)
	}
	return h.hoistG
}

func (h *Hoisted) replayGraph() *engine.Graph {
	if h.replayG == nil {
		h.replayG = engine.NewGraph()
		h.buildModDown(h.replayG, h.applyNodes(h.replayG, nil))
	}
	return h.replayG
}
