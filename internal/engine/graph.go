package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Graph is a dependency DAG of tasks. internal/hks builds one by
// visiting a dataflow's plan (internal/dataflow), the walk the RPU
// model visits too: each node is one group of the plan's tiles (an
// INTT of one tower, a BConv of one output tower, one digit's
// pipeline, ...) and edges are the data dependencies the tiles' rows
// imply.
//
// Nodes are added in topological order (a node may only depend on
// already-created nodes), which makes cycles impossible by
// construction. A Graph is reusable — Run resets the dependency
// counters — but must not be run concurrently with itself. Pool
// graphs (e.g. with sync.Pool) to run the same pipeline shape on
// overlapping requests.
type Graph struct {
	nodes []gnode

	// Per-run state; a Graph runs one execution at a time.
	rem       []int32
	completed atomic.Int64
	aborted   atomic.Bool
	pmu       sync.Mutex
	panicked  any
	eng       *Engine
	ready     chan int32    // nodes whose dependencies are done; room for every node
	done      chan struct{} // one send per run, by the node that completes it
	help      func()        // the pool's token: runs one ready node, if any is left
}

type gnode struct {
	run   func()
	succ  []int32
	ndeps int32
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return &Graph{} }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node adds a task that runs after every listed dependency has
// completed, returning its id for use as a dependency of later nodes.
// Dependencies must be ids of previously added nodes.
func (g *Graph) Node(run func(), deps ...int) int {
	id := len(g.nodes)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("engine: node %d depends on invalid node %d", id, d))
		}
		g.nodes[d].succ = append(g.nodes[d].succ, int32(id))
	}
	g.nodes = append(g.nodes, gnode{run: run, ndeps: int32(len(deps))})
	return id
}

func (g *Graph) exec(id int32) {
	nd := &g.nodes[id]
	if !g.aborted.Load() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					g.pmu.Lock()
					if g.panicked == nil {
						g.panicked = r
					}
					g.pmu.Unlock()
					g.aborted.Store(true)
				}
			}()
			nd.run()
		}()
	}
	if g.completed.Add(1) == int64(len(g.nodes)) {
		g.done <- struct{}{}
	}
	for _, s := range nd.succ {
		if atomic.AddInt32(&g.rem[s], -1) == 0 {
			g.spawn(s)
		}
	}
}

// spawn makes node id claimable and offers the pool a token for it.
// It reads g.eng and g.help first: once the node is claimable, the
// run can end and the caller's next RunGraph reset them.
func (g *Graph) spawn(id int32) {
	e, help := g.eng, g.help
	g.ready <- id
	e.trySubmit(help)
}

// RunGraph executes g and returns when every node has completed. The
// caller runs ready nodes of g, and only of g, until the last one
// completes; the pool's workers help through the tokens spawn offers.
// A panic in a node aborts the remaining nodes and is re-raised on the
// calling goroutine.
func (e *Engine) RunGraph(g *Graph) {
	n := len(g.nodes)
	if n == 0 {
		return
	}
	if cap(g.rem) < n {
		g.rem = make([]int32, n)
	}
	g.rem = g.rem[:n]
	for i := range g.rem {
		g.rem[i] = g.nodes[i].ndeps
	}
	if cap(g.ready) < n { // made once: a warm run allocates nothing
		ready := make(chan int32, n)
		g.ready, g.done = ready, make(chan struct{}, 1)
		g.help = func() {
			select {
			case id := <-ready:
				g.exec(id)
			default:
			}
		}
	}
	g.completed.Store(0)
	g.aborted.Store(false)
	g.eng = e

	for i := range g.nodes {
		if g.nodes[i].ndeps == 0 {
			g.spawn(int32(i))
		}
	}
	for waiting := true; waiting; {
		select {
		case <-g.done:
			waiting = false
		case id := <-g.ready:
			g.exec(id)
		}
	}
	g.eng = nil
	if g.panicked != nil {
		pv := g.panicked
		g.panicked = nil
		panic(pv)
	}
}
