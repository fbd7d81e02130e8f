package dataflow

import (
	"fmt"
	"math"
)

// A schedule's task list and its run on the RPU performance model, the
// paper's simulation framework (§V-C): two in-order queues, memory
// tasks (DRAM transfers) against a bandwidth-limited channel and compute
// tasks (kernel tiles) against a MODOPS-limited vector backend, with
// dependencies across them. "The tasks at the front of each queue are
// fetched and executed in parallel once all the task's dependencies are
// resolved", so independent data movement is masked by computation.

// TaskKind classifies a task, and so the queue it issues from.
type TaskKind uint8

const (
	Load    TaskKind = iota // DRAM to on-chip memory
	Store                   // on-chip memory to DRAM
	Compute                 // a kernel tile on the vector backend
)

// String returns the kind name.
func (k TaskKind) String() string {
	if names := [...]string{"load", "store", "compute"}; int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Task is one schedulable unit; its ID is its index in Schedule.Tasks,
// and it depends only on earlier tasks. Memory tasks carry Bytes,
// compute tasks Ops (weighted modular operations, see params).
type Task struct {
	Kind  TaskKind
	Name  string
	Bytes int64
	Ops   int64
	Deps  []int
}

// Result summarizes one run of a schedule.
type Result struct {
	// RuntimeSec is the end-to-end makespan.
	RuntimeSec float64
	// MemBusySec and CmpBusySec are per-engine busy times.
	MemBusySec float64
	CmpBusySec float64
	// CmpIdleFrac is the fraction of the makespan the vector backend
	// spent waiting (the paper's "idle time" metric, §VI-A-1).
	CmpIdleFrac float64
	// MemIdleFrac is the DRAM channel's idle fraction.
	MemIdleFrac float64
	// BytesMoved is total DRAM traffic.
	BytesMoved int64
	// OpsExecuted is total weighted modular operations.
	OpsExecuted int64
}

// Run executes the schedule on a machine with the given DRAM bandwidth
// and compute throughput (weighted modular operations per second; see
// internal/rpu for the RPU's). Each queue issues its tasks in creation
// order, so one pass over the task list is the whole simulation: a task
// starts once its queue is free and its dependencies are done, and
// holds its engine for its payload over its engine's rate. A dependency
// on a task not created before it is refused, so a schedule that runs
// cannot have deadlocked.
func (s *Schedule) Run(bandwidthBytesPerSec, modopsPerSec float64) (Result, error) {
	if !(bandwidthBytesPerSec > 0 && modopsPerSec > 0) {
		return Result{}, fmt.Errorf("dataflow: non-positive machine rates: %g B/s, %g modops/s", bandwidthBytesPerSec, modopsPerSec)
	}
	var res Result
	var memFree, cmpFree float64
	done := make([]float64, len(s.Tasks))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		start := 0.0
		for _, d := range t.Deps {
			if uint(d) >= uint(i) { // also catches d < 0
				return Result{}, fmt.Errorf("dataflow: task %d depends on task %d, which does not precede it", i, d)
			}
			start = math.Max(start, done[d])
		}
		if t.Kind == Compute {
			dur := float64(t.Ops) / modopsPerSec
			cmpFree = math.Max(cmpFree, start) + dur
			done[i] = cmpFree
			res.CmpBusySec += dur
			res.OpsExecuted += t.Ops
		} else {
			dur := float64(t.Bytes) / bandwidthBytesPerSec
			memFree = math.Max(memFree, start) + dur
			done[i] = memFree
			res.MemBusySec += dur
			res.BytesMoved += t.Bytes
		}
	}
	res.RuntimeSec = math.Max(memFree, cmpFree)
	if res.RuntimeSec > 0 {
		res.CmpIdleFrac = 1 - res.CmpBusySec/res.RuntimeSec
		res.MemIdleFrac = 1 - res.MemBusySec/res.RuntimeSec
	}
	return res, nil
}
