// Package engine is a dataflow-aware parallel execution runtime for
// the hybrid key-switching pipelines this repository models. Where
// internal/dataflow *simulates* the MP/DC/OC stage graphs on the RPU
// cost model, engine *executes* them: a fixed pool of worker
// goroutines (sized to GOMAXPROCS by default, injectable for tests)
// runs per-tower and per-digit tasks connected by the same dependency
// structure, so the dataflow choice becomes a measurable wall-clock
// effect on real hardware.
//
// The package provides two building blocks:
//
//   - Engine: the worker pool itself, with a deadlock-free
//     ParallelFor in which the calling goroutine always participates
//     (nested parallel sections degrade gracefully instead of
//     starving the pool).
//   - Graph: a reusable dependency DAG of tasks executed by the pool
//     with atomic in-degree counting (graph.go).
//
// Inline is the engine with no pool: every task it is handed runs on
// the goroutine that hands it over, so a graph run on it is its nodes
// in a dependency order on the caller — how internal/hks's serial
// entry points run the same graphs as its parallel ones.
//
// Limb-buffer reuse lives with the data owners (internal/bconv pools
// its conversion scratch, internal/hks pools whole switch states), so
// steady-state key switching performs no per-operation allocations on
// the hot path.
//
// The engine is deliberately policy-free: it executes whatever graph
// shape it is handed. internal/hks builds the per-switch and hoisted
// graphs on it, and internal/serve layers request-level scheduling on
// top — its batch executor fans coalesced request groups out with
// ParallelFor while each group's hoist and replay run as nested
// graphs, which the pool supports by construction (waiters help run
// queued tasks instead of starving them).
//
// Engines are cheap but not free (one goroutine per worker): create
// one per process or per benchmark configuration and Close it when
// done. The package-level Default engine is lazily created and lives
// for the process lifetime.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer receives a span for every *named* graph node the engine
// executes (see Graph.NodeNamed). internal/obs provides the standard
// implementation; the interface lives here so the engine does not
// depend on the observability layer. Implementations must be safe for
// concurrent use — spans arrive from every worker at once.
type Tracer interface {
	Span(name string, start, end time.Time)
}

// tracerBox wraps the interface so atomic.Value accepts differing
// concrete types (including nil).
type tracerBox struct{ t Tracer }

var tracer atomic.Value // tracerBox

// SetTracer installs (or, with nil, removes) the process-wide tracer.
// Tracing applies only to named graph nodes; unnamed nodes and
// ParallelFor bodies are never traced, so the zero-overhead default
// is preserved for them.
func SetTracer(t Tracer) { tracer.Store(tracerBox{t: t}) }

// currentTracer returns the installed tracer, or nil.
func currentTracer() Tracer {
	if b, ok := tracer.Load().(tracerBox); ok {
		return b.t
	}
	return nil
}

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

// inline is closed from birth: trySubmit always fails, so every task
// runs on the goroutine that spawns it.
var inline = &Engine{workers: 1, closed: true}

// Inline returns the engine with no workers. RunGraph on it runs every
// node on the calling goroutine and ParallelFor is a plain loop; Close
// is a no-op.
func Inline() *Engine { return inline }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Close stops the workers after they drain any queued tasks. It is
// idempotent and safe to call concurrently with task submission:
// sections submitted after (or racing with) Close simply run on the
// calling goroutine.
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
// Callers fall back to running f inline, which keeps every construct
// in this package deadlock-free by construction: work never waits on
// queue capacity.
func (e *Engine) trySubmit(f func()) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	select {
	case e.jobs <- f:
		return true
	default:
		return false
	}
}

// ParallelFor runs fn(0..n-1) across the pool and returns when every
// iteration has completed. Iterations are claimed dynamically from a
// shared counter, so uneven task sizes balance automatically. The
// caller participates as one worker and then parks until the last
// in-flight iteration completes — every iteration is claimed by a
// running body, so no queue helping is needed for progress, sections
// nest safely, and a closed engine degrades to a serial loop. A panic
// in fn is re-raised on the calling goroutine after all iterations
// finish.
func (e *Engine) ParallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var next, completed atomic.Int64
	done := make(chan struct{})
	var pmu sync.Mutex
	var panicked any
	body := func() {
		for {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						pmu.Lock()
						if panicked == nil {
							panicked = r
						}
						pmu.Unlock()
					}
					if completed.Add(1) == int64(n) {
						close(done)
					}
				}()
				fn(int(i))
			}()
		}
	}
	for i := 0; i < w-1; i++ {
		if !e.trySubmit(body) {
			break // saturated or closed: the caller will do the work
		}
	}
	body()
	if completed.Load() < int64(n) {
		<-done
	}
	if panicked != nil {
		panic(panicked)
	}
}
