package hks

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// switchParallel is SwitchParallelInto into fresh outputs.
func switchParallel(sw *Switcher, e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, key KeyMaterial) (c0, c1 *ring.Poly) {
	c0, c1 = sw.R.NewPoly(sw.qBasis), sw.R.NewPoly(sw.qBasis)
	sw.SwitchParallelInto(e, df, d, key, c0, c1)
	return c0, c1
}

// replayParallel hoists d on e under df and replays the hoisted state
// against key on e, into fresh outputs: the way internal/serve runs a
// group of one.
func replayParallel(sw *Switcher, e *engine.Engine, df dataflow.Dataflow, d *ring.Poly, key KeyMaterial) (c0, c1 *ring.Poly) {
	h := sw.HoistParallel(e, df, d)
	defer h.Release()
	c0, c1 = sw.R.NewPoly(sw.qBasis), sw.R.NewPoly(sw.qBasis)
	h.SwitchParallelInto(e, key, c0, c1)
	return c0, c1
}

// keyForm is a key in one of the two forms every entry point takes,
// named for the tests' messages.
type keyForm struct {
	name string
	key  KeyMaterial
}

// keyForms returns evk beside its compressed form.
func keyForms(t testing.TB, evk *Evk) []keyForm {
	t.Helper()
	c, ok := evk.Compress()
	if !ok {
		t.Fatal("evk did not compress")
	}
	return []keyForm{{"dense", evk}, {"compressed", c}}
}

// Test-only view of an engine.Graph: what each node does and what it
// waits for, independent of the order the nodes were created in.

// graphNode is one node of an engine.Graph as the tests see it.
type graphNode struct {
	name string
	run  func()
	deps []int
}

// graphNodes reads g's unexported node table (run, successor list)
// and inverts the successor lists into dependency lists.
func graphNodes(g *engine.Graph) []graphNode {
	tab := reflect.ValueOf(g).Elem().FieldByName("nodes")
	nodes := make([]graphNode, tab.Len())
	for i := range nodes {
		n := tab.Index(i)
		nodes[i].run = *(*func())(unsafe.Pointer(n.FieldByName("run").UnsafeAddr()))
	}
	for i := range nodes {
		succ := tab.Index(i).FieldByName("succ")
		for k := 0; k < succ.Len(); k++ {
			s := int(succ.Index(k).Int())
			nodes[s].deps = append(nodes[s].deps, i)
		}
	}
	return nodes
}

// runNodes runs the nodes of g, one of h's graphs, one at a time in
// creation order on the bound state h, under a tracer captured on h as
// an entry point captures the active one, and returns them, each named
// by the span its task recorded. after, if not nil, is called after
// each node with its index.
func runNodes(h *Hoisted, g *engine.Graph, after func(k int)) []graphNode {
	nodes := graphNodes(g)
	tr := obs.NewTracer()
	h.tr = tr
	defer func() { h.tr = nil }()
	for k := range nodes {
		nodes[k].run()
		if spans := tr.Spans(); len(spans) == k+1 {
			nodes[k].name = spans[k].Name
		}
		if after != nil {
			after(k)
		}
	}
	return nodes
}

// probe is one cell of the state's scratch (or of the bound outputs)
// standing for the row, or overshoot chunk, it belongs to.
type probe struct {
	label string
	cell  *uint64
}

// probes lists a cell per row the ModUp tiles (modUp) and the apply and
// ModDown tiles (replay) can write; the scratch rows among them exist
// only inside a borrow.
func (h *Hoisted) probes(modUp, replay bool) []probe {
	var ps []probe
	add := func(row []uint64, at int, format string, a ...any) {
		if row != nil {
			ps = append(ps, probe{fmt.Sprintf(format, a...), &row[at]})
		}
	}
	if modUp {
		for i, row := range h.y {
			add(row, 0, "y.%d", i)
		}
		for j := range h.up {
			for t, row := range h.up[j] {
				add(row, 0, "up.%d.%d", j, t)
			}
		}
	}
	if replay {
		kp := len(h.sw.pBasis)
		for p := range h.acc {
			for t, row := range h.acc[p].Coeffs {
				add(row, 0, "acc.%d.%d", p, t)
			}
			for i, row := range h.yP[p][:kp] {
				add(row, 0, "yP.%d.%d", p, i)
			}
			for c, from := 0, 0; from < h.sw.R.N; c, from = c+1, from+dataflow.OverChunk {
				add(h.yP[p][kp], from, "ov.%d.%d", p, c)
			}
			for i, row := range h.out[p].Coeffs {
				add(row, 0, "out.%d.%d", p, i)
			}
		}
	}
	return ps
}

// graphEdges runs g's nodes with runNodes, inside a borrow of run
// scratch the caller holds (so are the probes, which point into it),
// and describes the graph by behaviour: a node is named by the span
// its task records (its group's tile name) and the rows it was seen to
// write (every tile writes canonical residues, so a probed cell that
// no longer holds the all-ones sentinel was written), and listed with
// the nodes it waits for, named the same way. The lines are sorted, so two graphs with
// equal node and edge sets give equal output however their builders
// numbered the nodes.
func graphEdges(h *Hoisted, g *engine.Graph, ps []probe) []string {
	const sentinel = ^uint64(0)
	for _, p := range ps {
		*p.cell = sentinel
	}
	var wrote []string // per node, the rows it was seen to write
	seen := make([]bool, len(ps))
	nodes := runNodes(h, g, func(int) {
		var rows []string
		for i, p := range ps {
			if !seen[i] && *p.cell != sentinel {
				seen[i] = true
				rows = append(rows, p.label)
			}
		}
		wrote = append(wrote, strings.Join(rows, " "))
	})
	ident := make([]string, len(nodes))
	for k, n := range nodes {
		ident[k] = fmt.Sprintf("%s[%s]", n.name, wrote[k])
	}
	lines := make([]string, len(nodes))
	for k, n := range nodes {
		deps := make([]string, len(n.deps))
		for i, d := range n.deps {
			deps[i] = ident[d]
		}
		slices.Sort(deps)
		lines[k] = ident[k] + " <- " + strings.Join(deps, ", ")
	}
	slices.Sort(lines)
	return lines
}
