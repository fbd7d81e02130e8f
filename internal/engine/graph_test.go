package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

// orderRecorder collects node completion order under a lock so tests
// can assert dependency ordering.
type orderRecorder struct {
	mu    sync.Mutex
	order []int
}

func (o *orderRecorder) hit(id int) {
	o.mu.Lock()
	o.order = append(o.order, id)
	o.mu.Unlock()
}

func (o *orderRecorder) indexOf(id int) int {
	for i, v := range o.order {
		if v == id {
			return i
		}
	}
	return -1
}

func TestGraphRespectsDependencies(t *testing.T) {
	e := New(4)
	defer e.Close()
	// Diamond: 0 -> {1, 2} -> 3, plus a chain 0 -> 4 -> 5.
	rec := &orderRecorder{}
	g := NewGraph()
	n0 := g.Node(func() { rec.hit(0) })
	n1 := g.Node(func() { rec.hit(1) }, n0)
	n2 := g.Node(func() { rec.hit(2) }, n0)
	g.Node(func() { rec.hit(3) }, n1, n2)
	n4 := g.Node(func() { rec.hit(4) }, n0)
	g.Node(func() { rec.hit(5) }, n4)
	e.RunGraph(g)

	if len(rec.order) != 6 {
		t.Fatalf("ran %d nodes, want 6: %v", len(rec.order), rec.order)
	}
	before := func(a, b int) {
		t.Helper()
		if rec.indexOf(a) > rec.indexOf(b) {
			t.Fatalf("node %d completed after %d: %v", a, b, rec.order)
		}
	}
	before(0, 1)
	before(0, 2)
	before(1, 3)
	before(2, 3)
	before(0, 4)
	before(4, 5)
}

func TestGraphIsReusable(t *testing.T) {
	e := New(4)
	defer e.Close()
	var runs atomic.Int64
	g := NewGraph()
	a := g.Node(func() { runs.Add(1) })
	g.Node(func() { runs.Add(1) }, a)
	for i := 0; i < 10; i++ {
		e.RunGraph(g)
	}
	if runs.Load() != 20 {
		t.Fatalf("runs = %d, want 20", runs.Load())
	}
}

func TestGraphWideFanOut(t *testing.T) {
	e := New(4)
	defer e.Close()
	const width = 200
	var sum atomic.Int64
	g := NewGraph()
	root := g.Node(func() { sum.Add(1) })
	mids := make([]int, width)
	for i := 0; i < width; i++ {
		mids[i] = g.Node(func() { sum.Add(1) }, root)
	}
	g.Node(func() { sum.Add(1) }, mids...)
	e.RunGraph(g)
	if sum.Load() != width+2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), width+2)
	}
}

func TestGraphInvalidDependencyPanics(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("forward dependency accepted")
		}
	}()
	g.Node(func() {}, 3)
}

func TestGraphEmptyRun(t *testing.T) {
	e := New(2)
	defer e.Close()
	e.RunGraph(NewGraph())
}

func TestGraphPanicPropagates(t *testing.T) {
	e := New(4)
	defer e.Close()
	g := NewGraph()
	a := g.Node(func() { panic("node boom") })
	g.Node(func() {}, a)
	defer func() {
		if r := recover(); r != "node boom" {
			t.Fatalf("recovered %v", r)
		}
	}()
	e.RunGraph(g)
	t.Fatal("unreachable: panic did not propagate")
}

func TestGraphRunsOnClosedEngineInline(t *testing.T) {
	e := New(2)
	e.Close()
	var n atomic.Int64
	g := NewGraph()
	a := g.Node(func() { n.Add(1) })
	g.Node(func() { n.Add(1) }, a)
	e.RunGraph(g)
	if n.Load() != 2 {
		t.Fatalf("closed-engine graph ran %d/2 nodes", n.Load())
	}
}
