package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForRunsEveryIteration(t *testing.T) {
	e := New(4)
	defer e.Close()
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		hits := make([]atomic.Int32, n)
		e.ParallelFor(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: iteration %d ran %d times", n, i, got)
			}
		}
	}
}

func TestParallelForSingleWorkerIsSerial(t *testing.T) {
	e := New(1)
	defer e.Close()
	order := make([]int, 0, 10)
	e.ParallelFor(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker order %v not serial", order)
		}
	}
}

func TestParallelForNested(t *testing.T) {
	// Nested sections must not deadlock even when all workers are
	// occupied by the outer loop: each waiter can finish its own
	// section alone.
	e := New(3)
	defer e.Close()
	var total atomic.Int64
	e.ParallelFor(8, func(i int) {
		e.ParallelFor(8, func(j int) {
			total.Add(1)
		})
	})
	if total.Load() != 64 {
		t.Fatalf("nested total = %d, want 64", total.Load())
	}
}

func TestParallelForConcurrentSections(t *testing.T) {
	e := New(4)
	defer e.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.ParallelFor(100, func(i int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if total.Load() != 800 {
		t.Fatalf("total = %d, want 800", total.Load())
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	e := New(4)
	defer e.Close()
	var completed atomic.Int64
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		// The panic skips the iterations that had not started and is
		// re-raised once the started ones finish; the engine must
		// remain usable.
		var n atomic.Int64
		e.ParallelFor(10, func(i int) { n.Add(1) })
		if n.Load() != 10 {
			t.Fatalf("engine unusable after panic: %d/10", n.Load())
		}
		_ = completed.Load()
	}()
	e.ParallelFor(16, func(i int) {
		if i == 7 {
			panic("boom")
		}
		completed.Add(1)
	})
	t.Fatal("unreachable: panic did not propagate")
}

func TestCloseIsIdempotentAndDrains(t *testing.T) {
	e := New(2)
	var n atomic.Int64
	e.ParallelFor(50, func(i int) { n.Add(1) })
	e.Close()
	e.Close() // second close is a no-op
	if n.Load() != 50 {
		t.Fatalf("work lost before close: %d/50", n.Load())
	}
}

func TestParallelForAfterCloseRunsInline(t *testing.T) {
	e := New(4)
	e.Close()
	var n atomic.Int64
	e.ParallelFor(20, func(i int) { n.Add(1) })
	if n.Load() != 20 {
		t.Fatalf("after close: %d/20 iterations", n.Load())
	}
}

func TestCloseConcurrentWithSubmission(t *testing.T) {
	// Shutdown racing with active sections must neither deadlock nor
	// lose iterations.
	e := New(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				e.ParallelFor(25, func(i int) { total.Add(1) })
			}
		}()
	}
	e.Close()
	wg.Wait()
	if total.Load() != 4*20*25 {
		t.Fatalf("total = %d, want %d", total.Load(), 4*20*25)
	}
}

func TestDefaultEngine(t *testing.T) {
	e := Default()
	if e != Default() {
		t.Fatal("Default not a singleton")
	}
	if e.Workers() < 1 {
		t.Fatalf("default workers = %d", e.Workers())
	}
	var n atomic.Int64
	e.ParallelFor(10, func(i int) { n.Add(1) })
	if n.Load() != 10 {
		t.Fatal("default engine lost work")
	}
}

func TestNewZeroWorkersUsesGOMAXPROCS(t *testing.T) {
	e := New(0)
	defer e.Close()
	if e.Workers() < 1 {
		t.Fatalf("workers = %d", e.Workers())
	}
}
