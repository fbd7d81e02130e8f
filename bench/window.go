package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// opFunc is one closed-loop client operation: client c's i-th. It
// returns the key switches it completed. parent is the operation's
// span id, for the spans the operation records under it.
type opFunc func(c, i int, parent uint64) (switches int, err error)

// windowResult is what one timed window measured.
type windowResult struct {
	elapsed  time.Duration // start to the last operation's completion
	samples  []sample
	switches int
	ops      tally
	cpu      time.Duration // process user+system time over the window
	alloc    uint64        // bytes allocated over the window
	firstErr error
}

// merge adds a later window of the same workload to w.
func (w *windowResult) merge(o windowResult) {
	w.elapsed += o.elapsed
	w.samples = append(w.samples, o.samples...)
	w.switches += o.switches
	w.ops.add(o.ops)
	w.cpu += o.cpu
	w.alloc += o.alloc
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

func (w windowResult) switchPerSec() float64 {
	return float64(w.switches) / w.elapsed.Seconds()
}

func (w windowResult) latenciesMs() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = ms(s.lat)
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runWindow drives clients closed-loop clients for d: each issues its
// next operation only when the previous one returns, and stops at the
// first operation that completes after the deadline, so the window
// holds whole operations only and its length is taken to the last
// completion. With a span log, every operation is recorded as a span.
func runWindow(clients int, d time.Duration, spans *spanLog, op opFunc) windowResult {
	perClient := make([][]sample, clients)
	errs := make([]error, clients)
	failed := make([]int, clients)
	for c := range perClient {
		// Sized so appending never allocates inside the window at the
		// rates this stack reaches (the allocation metric is the
		// program's, not the harness's).
		perClient[c] = make([]sample, 0, 1<<14)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := spans.newID()
				t0 := time.Now()
				n, err := op(c, i, id)
				t1 := time.Now()
				spans.put(id, 0, 0, spanOp, t0, t1)
				if err != nil {
					failed[c]++
					if errs[c] == nil {
						errs[c] = err
					}
					n = 0
				}
				perClient[c] = append(perClient[c], sample{end: t1.Sub(start), lat: t1.Sub(t0), switches: n})
				if t1.Sub(start) >= d {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res := windowResult{elapsed: time.Since(start)}
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc

	for c, ss := range perClient {
		res.samples = append(res.samples, ss...)
		res.ops.attempted += len(ss)
		res.ops.failed += failed[c]
		if res.firstErr == nil {
			res.firstErr = errs[c]
		}
		for _, s := range ss {
			res.switches += s.switches
		}
	}
	return res
}
