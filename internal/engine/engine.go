// Package engine is a dataflow-aware parallel execution runtime for
// the hybrid key-switching pipelines this repository models. Where
// internal/dataflow *simulates* the MP/DC/OC stage graphs on the RPU
// cost model, engine *executes* them: a fixed pool of worker
// goroutines (sized to GOMAXPROCS by default, injectable for tests)
// runs per-tower and per-digit tasks connected by the same dependency
// structure, so the dataflow choice becomes a measurable wall-clock
// effect on real hardware.
//
// The package has one executor, the Graph: a reusable dependency DAG
// of tasks run with atomic in-degree counting (graph.go). A node whose
// dependencies are done goes onto its own graph's ready queue, and the
// pool is offered a token that runs one ready node of that graph. Each
// waiter runs only its own graph; the pool helps. So a caller blocked
// in RunGraph never runs another operation's task, and nested graphs
// cannot deadlock, because every waiter can finish its own graph
// alone. Engine.ParallelFor is a graph of independent nodes.
//
// Inline is the engine with no pool: it is closed, so the pool takes
// no token from it, and a graph run on it is its nodes in a dependency
// order on the caller — how internal/hks's serial entry points run the
// same graphs as its parallel ones.
//
// Limb-buffer reuse lives with the data owners (internal/bconv pools
// its conversion scratch, internal/hks pools whole switch states), so
// steady-state key switching performs no per-operation allocations on
// the hot path.
//
// The engine is deliberately policy-free: it executes whatever graph
// shape it is handed. internal/hks builds the per-switch and hoisted
// graphs on it, and internal/serve layers request-level scheduling on
// top — a request group runs as soon as its tenant pops it, up to
// Workers()+1 groups per tenant at once, and each group's hoist and
// replay run as graphs of their own.
//
// Nor does the engine observe anything: it times and traces no task
// and does not import internal/obs. internal/hks times its tiles and
// records a span per task itself, from the recorder and tracer it
// captures at each entry point.
//
// Engines are cheap but not free (one goroutine per worker): create
// one per process or per benchmark configuration and Close it when
// done. The package-level Default engine is lazily created and lives
// for the process lifetime.
package engine

import (
	"runtime"
	"sync"
)

// Engine is a fixed-size worker pool executing func() tasks. The zero
// value is not usable; construct with New. Safe for concurrent use.
type Engine struct {
	workers int

	mu     sync.Mutex
	closed bool
	jobs   chan func()
	wg     sync.WaitGroup
}

// New starts an engine with the given number of workers; workers <= 0
// selects GOMAXPROCS. Call Close to release the worker goroutines.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: workers,
		jobs:    make(chan func(), 4*workers),
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns a process-wide engine sized to GOMAXPROCS, created
// on first use and never closed.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(0) })
	return defaultEngine
}

// inline is closed from birth: trySubmit refuses every token, so the
// caller runs its graphs' nodes.
var inline = &Engine{workers: 1, closed: true}

// Inline returns the engine with no workers. ParallelFor on it is a
// plain loop, and RunGraph runs every node on the calling goroutine,
// except one claimed by a help token that the same Graph's last run on
// a pool left queued. Close is a no-op.
func Inline() *Engine { return inline }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Close stops the workers after they drain any queued tasks. It is
// idempotent and safe to call concurrently with task submission: a
// graph run after (or racing with) Close is finished by its caller.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs) // no sends can race: every send holds mu and checks closed
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for f := range e.jobs {
		f()
	}
}

// trySubmit enqueues f if the engine is open and the queue has room.
// It never waits on queue capacity: f is a help token, and a refused
// one leaves its node to the graph's caller.
func (e *Engine) trySubmit(f func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.jobs <- f:
	default:
	}
}

// ParallelFor runs fn(0..n-1) across the pool and returns when every
// iteration has completed: it is RunGraph on a graph of n independent
// nodes, so the caller runs iterations itself while the pool helps,
// and sections nest safely. With one worker or one iteration it is a
// plain loop. A panic in fn skips the iterations that have not
// started and is re-raised on the calling goroutine.
func (e *Engine) ParallelFor(n int, fn func(i int)) {
	if e.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	g := &Graph{nodes: make([]gnode, 0, n)}
	for i := 0; i < n; i++ {
		g.Node(func() { fn(i) })
	}
	e.RunGraph(g)
}
