package engine

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// goid returns the calling goroutine's id, read from the header line
// of its stack trace ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestInlineRunsOnCaller: every node of a graph on the inline engine
// runs on the goroutine that called RunGraph, including the nodes of a
// graph that one of its nodes runs on the inline engine in turn, and so
// does every iteration of its ParallelFor.
func TestInlineRunsOnCaller(t *testing.T) {
	caller := goid()
	var mu sync.Mutex
	var ran []string
	note := func() {
		mu.Lock()
		ran = append(ran, goid())
		mu.Unlock()
	}
	inner := NewGraph()
	inner.Node(note, inner.Node(note))
	g := NewGraph()
	root := g.Node(note)
	mids := []int{g.Node(note, root), g.Node(func() { note(); Inline().RunGraph(inner) }, root)}
	g.Node(note, mids...)
	Inline().RunGraph(g)
	Inline().ParallelFor(4, func(int) { note() })
	Inline().Close() // a no-op: the inline engine has nothing to stop
	Inline().RunGraph(inner)

	if len(ran) != 12 {
		t.Fatalf("ran %d nodes and iterations, want 12", len(ran))
	}
	for i, id := range ran {
		if id != caller {
			t.Fatalf("run %d on goroutine %s, want the caller's %s", i, id, caller)
		}
	}
	if w := Inline().Workers(); w != 1 {
		t.Fatalf("Inline().Workers() = %d, want 1", w)
	}
}

// TestGraphRunsCleanlyAfterPanic: a Graph whose last run panicked runs
// every node next time, and its RunGraph returns only once they have
// all completed — no completion of the panicked run is left on the
// Graph's reused channel to end the next run early.
func TestGraphRunsCleanlyAfterPanic(t *testing.T) {
	pool := New(2)
	defer pool.Close()
	for name, e := range map[string]*Engine{"pool": pool, "inline": Inline()} {
		var boom atomic.Bool
		var ran atomic.Int64
		g := NewGraph()
		a := g.Node(func() {
			if boom.Load() {
				panic("node boom")
			}
			ran.Add(1)
		})
		g.Node(func() { ran.Add(1) }, a)
		g.Node(func() { time.Sleep(2 * time.Millisecond); ran.Add(1) })

		boom.Store(true)
		func() {
			defer func() {
				if r := recover(); r != "node boom" {
					t.Fatalf("%s: recovered %v, want the node's panic", name, r)
				}
			}()
			e.RunGraph(g)
		}()
		boom.Store(false)
		for run := 0; run < 3; run++ {
			ran.Store(0)
			e.RunGraph(g)
			if n := ran.Load(); n != 3 {
				t.Fatalf("%s: run %d after the panic returned with %d/3 nodes done", name, run, n)
			}
		}
	}
}

// TestRunGraphZeroAlloc pins a warm RunGraph, on a pool and on the
// inline engine, to no allocation: the completion channel is made once
// per Graph, not once per run.
func TestRunGraphZeroAlloc(t *testing.T) {
	pool := New(2)
	defer pool.Close()
	var sum atomic.Int64
	g := NewGraph()
	root := g.Node(func() { sum.Add(1) })
	mids := []int{g.Node(func() { sum.Add(1) }, root), g.Node(func() { sum.Add(1) }, root)}
	g.Node(func() { sum.Add(1) }, mids...)
	for name, e := range map[string]*Engine{"pool": pool, "inline": Inline()} {
		e.RunGraph(g) // the first run sizes the Graph's per-run state
		if allocs := testing.AllocsPerRun(100, func() { e.RunGraph(g) }); allocs != 0 {
			t.Fatalf("warm RunGraph on the %s engine allocates %v times per run, want 0", name, allocs)
		}
	}
}

// within fails t if f has not returned after d; a hung engine is a
// deadlock, not a slow test.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("no return after %v: deadlocked", d)
	}
}

// TestWaiterRunsOnlyItsOwnGraph: a caller waiting in RunGraph runs no
// node of another graph, even while that graph's nodes are queued and
// every pool worker is busy.
func TestWaiterRunsOnlyItsOwnGraph(t *testing.T) {
	e := New(2)
	defer e.Close()
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	var running sync.WaitGroup
	var mu sync.Mutex
	var others []string // the goroutines that ran another graph's nodes
	blocker := func() {
		mu.Lock()
		others = append(others, goid())
		mu.Unlock()
		running.Done()
		<-hold
	}
	var owners sync.WaitGroup
	runOn := func(g *Graph) {
		owners.Add(1)
		go func() {
			defer owners.Done()
			e.RunGraph(g)
		}()
	}

	// Both workers and this graph's owner block in its nodes.
	busy := NewGraph()
	for range 3 {
		busy.Node(blocker)
	}
	running.Add(3)
	runOn(busy)
	running.Wait()

	// Its owner blocks in node 0; nodes 1..4 stay queued.
	queued := NewGraph()
	queued.Node(blocker)
	for range 4 {
		queued.Node(func() {
			mu.Lock()
			others = append(others, goid())
			mu.Unlock()
		})
	}
	running.Add(1)
	runOn(queued)
	running.Wait()

	var caller string
	var ran []string
	own := NewGraph()
	own.Node(func() { ran = append(ran, goid()) })
	within(t, 10*time.Second, func() {
		caller = goid()
		e.RunGraph(own)
	})
	release()
	owners.Wait()

	if len(ran) != 1 || len(others) != 3+5 {
		t.Fatalf("ran %d own and %d other nodes, want 1 and 8", len(ran), len(others))
	}
	for _, id := range others {
		if id == caller {
			t.Fatalf("the waiting caller (goroutine %s) ran another graph's node", caller)
		}
	}
}

// TestGraphRunsAcrossEngines: one Graph run 200 times, alternating a
// pool and the inline engine. A help token a pool run leaves queued
// may claim a node of the next run, inline or not; every RunGraph still
// returns only once all of its own run's nodes have run, and no node of
// an earlier run is left to run after it.
func TestGraphRunsAcrossEngines(t *testing.T) {
	pool := New(2)
	defer pool.Close()
	var ran atomic.Int64
	g := NewGraph()
	root := g.Node(func() { ran.Add(1) })
	mids := make([]int, 8)
	for i := range mids {
		mids[i] = g.Node(func() { ran.Add(1) }, root)
	}
	g.Node(func() { ran.Add(1) }, mids...)
	for run := range 200 {
		e := pool
		if run%2 == 1 {
			e = Inline()
		}
		ran.Store(0)
		e.RunGraph(g)
		if n := ran.Load(); n != int64(g.Len()) {
			t.Fatalf("run %d returned with %d/%d nodes done", run, n, g.Len())
		}
	}
}

// TestEveryThreadOwnsAGraph: every thread of a two-worker pool can be
// the owner of a graph at once — a ParallelFor whose bodies each run a
// wide graph with a node that runs a nested graph — and each finishes
// its own graph without help.
func TestEveryThreadOwnsAGraph(t *testing.T) {
	e := New(2) // closed only on success: Close would wait on a deadlocked worker
	var total atomic.Int64
	add := func() { total.Add(1) }
	within(t, 30*time.Second, func() {
		e.ParallelFor(8, func(int) {
			inner := NewGraph()
			inner.Node(add, inner.Node(add))
			g := NewGraph()
			root := g.Node(add)
			mids := []int{g.Node(func() { e.RunGraph(inner) }, root)}
			for range 16 {
				mids = append(mids, g.Node(add, root))
			}
			g.Node(add, mids...)
			e.RunGraph(g)
		})
	})
	e.Close()
	if n := total.Load(); n != 8*(2+16+2) {
		t.Fatalf("ran %d nodes, want %d", n, 8*(2+16+2))
	}
}
