package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ciflow/internal/params"
	"ciflow/internal/rpu"
)

// oracleRun is the two-queue event loop Schedule.Run replaced, kept as
// its oracle: the memory and compute queues, each in creation order,
// are advanced alternately, each as far as its head's dependencies have
// completed, until both drain.
func oracleRun(tasks []Task, bw, modops float64) (Result, error) {
	var memQ, cmpQ []int
	for i, t := range tasks {
		if t.Kind == Compute {
			cmpQ = append(cmpQ, i)
		} else {
			memQ = append(memQ, i)
		}
	}
	done := make([]float64, len(tasks))
	for i := range done {
		done[i] = math.Inf(1)
	}
	ready := func(t *Task) (float64, bool) {
		start := 0.0
		for _, d := range t.Deps {
			if math.IsInf(done[d], 1) {
				return 0, false
			}
			if done[d] > start {
				start = done[d]
			}
		}
		return start, true
	}
	var res Result
	memFree, cmpFree := 0.0, 0.0
	mi, ci := 0, 0
	for mi < len(memQ) || ci < len(cmpQ) {
		progressed := false
		for mi < len(memQ) {
			t := &tasks[memQ[mi]]
			depTime, ok := ready(t)
			if !ok {
				break
			}
			start := math.Max(memFree, depTime)
			dur := float64(t.Bytes) / bw
			memFree = start + dur
			done[memQ[mi]] = memFree
			res.MemBusySec += dur
			res.BytesMoved += t.Bytes
			mi++
			progressed = true
		}
		for ci < len(cmpQ) {
			t := &tasks[cmpQ[ci]]
			depTime, ok := ready(t)
			if !ok {
				break
			}
			start := math.Max(cmpFree, depTime)
			dur := float64(t.Ops) / modops
			cmpFree = start + dur
			done[cmpQ[ci]] = cmpFree
			res.CmpBusySec += dur
			res.OpsExecuted += t.Ops
			ci++
			progressed = true
		}
		if !progressed {
			return Result{}, fmt.Errorf("deadlock at mem=%d cmp=%d", mi, ci)
		}
	}
	res.RuntimeSec = math.Max(memFree, cmpFree)
	if res.RuntimeSec > 0 {
		res.CmpIdleFrac = 1 - res.CmpBusySec/res.RuntimeSec
		res.MemIdleFrac = 1 - res.MemBusySec/res.RuntimeSec
	}
	return res, nil
}

// randomTasks builds a random task list in creation order with backward
// dependencies only.
func randomTasks(rng *rand.Rand, n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		var deps []int
		for d := 0; d < i && len(deps) < 3; d++ {
			if rng.Intn(8) == 0 {
				deps = append(deps, rng.Intn(i))
			}
		}
		switch rng.Intn(3) {
		case 0:
			tasks[i] = Task{Kind: Load, Name: "l", Bytes: int64(1 + rng.Intn(4096)), Deps: deps}
		case 1:
			tasks[i] = Task{Kind: Store, Name: "s", Bytes: int64(1 + rng.Intn(4096)), Deps: deps}
		default:
			tasks[i] = Task{Kind: Compute, Name: "c", Ops: int64(1 + rng.Intn(10000)), Deps: deps}
		}
	}
	return tasks
}

// TestRunMatchesOracle holds the one-pass run to the two-queue event
// loop, every Result field equal with ==: on every program the golden
// pins at 8, 64 and 1024 GB/s and MODOPS 1 and 16, and on 200 random
// task lists.
func TestRunMatchesOracle(t *testing.T) {
	check := func(what string, s *Schedule, bw, modops float64) {
		t.Helper()
		got, err := s.Run(bw, modops)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := oracleRun(s.Tasks, bw, modops)
		if err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		if got != want {
			t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
		}
	}
	runs := 0
	for _, gc := range goldenConfigs() {
		s, err := Generate(gc.df, gc.cfg)
		if err != nil {
			continue // unschedulable in the golden too
		}
		for _, gbs := range []float64{8, 64, 1024} {
			for _, scale := range []float64{1, 16} {
				check(fmt.Sprintf("%s %s %s %d MiB at %g GB/s, MODOPS %gx", gc.cfg.Bench.Name, gc.df, gc.evk,
					gc.cfg.DataMemBytes>>20, gbs, scale), s, gbs*1e9, rpu.ModopsPerSec(scale))
				runs++
			}
		}
	}
	if runs == 0 {
		t.Fatal("no golden configuration was schedulable")
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		check(fmt.Sprintf("random trial %d", trial), &Schedule{Tasks: randomTasks(rng, 1+rng.Intn(120))}, 1e6, 1e6)
	}
}

func TestRunValidation(t *testing.T) {
	s := &Schedule{}
	if _, err := s.Run(0, 1); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := s.Run(1, -1); err == nil {
		t.Fatal("negative throughput accepted")
	}
	// A later task, the task itself, and no task at all.
	for _, dep := range []int{1, 0, -1} {
		s := &Schedule{Tasks: []Task{{Kind: Compute, Ops: 1, Deps: []int{dep}}, {Kind: Load, Bytes: 1}}}
		if _, err := s.Run(1, 1); err == nil {
			t.Errorf("task 0 depending on task %d accepted", dep)
		}
	}
}

func TestEmptyProgram(t *testing.T) {
	res, err := (&Schedule{}).Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != (Result{}) {
		t.Fatalf("empty program ran to %+v", res)
	}
}

func TestSerialChain(t *testing.T) {
	// load(100B) -> compute(50 ops) -> store(100B), at 100 B/s and
	// 50 ops/s: no overlap possible, runtime = 1 + 1 + 1.
	s := &Schedule{Tasks: []Task{
		{Kind: Load, Name: "in", Bytes: 100},
		{Kind: Compute, Name: "k", Ops: 50, Deps: []int{0}},
		{Kind: Store, Name: "out", Bytes: 100, Deps: []int{1}},
	}}
	res, err := s.Run(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RuntimeSec-3) > 1e-12 {
		t.Fatalf("runtime %g, want 3", res.RuntimeSec)
	}
	if math.Abs(res.CmpIdleFrac-2.0/3) > 1e-12 {
		t.Fatalf("compute idle %g, want 2/3", res.CmpIdleFrac)
	}
}

func TestPerfectOverlap(t *testing.T) {
	// A memory stream and a compute stream with no cross dependencies
	// overlap fully.
	var s Schedule
	for i := 0; i < 10; i++ {
		s.Tasks = append(s.Tasks, Task{Kind: Load, Name: "x", Bytes: 100}, Task{Kind: Compute, Name: "k", Ops: 100})
	}
	res, err := s.Run(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RuntimeSec-1.0) > 1e-12 {
		t.Fatalf("runtime %g, want 1.0 (full overlap)", res.RuntimeSec)
	}
}

func TestDependencyStall(t *testing.T) {
	// A compute task depends on a late load: the compute engine idles.
	s := &Schedule{Tasks: []Task{
		{Kind: Load, Name: "a", Bytes: 1000},                // 1 s
		{Kind: Compute, Name: "k", Ops: 10, Deps: []int{0}}, // cannot start before t=1
	}}
	res, err := s.Run(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RuntimeSec-1.01) > 1e-12 {
		t.Fatalf("runtime %g, want 1.01", res.RuntimeSec)
	}
}

func TestInOrderQueueBlocksYoungerTasks(t *testing.T) {
	// The memory queue is in order: a blocked head delays a later,
	// dependency-free memory task.
	s := &Schedule{Tasks: []Task{
		{Kind: Compute, Name: "slow", Ops: 1000},                 // 1 s of compute
		{Kind: Load, Name: "blocked", Bytes: 10, Deps: []int{0}}, // head of the memory queue waits for it
		{Kind: Load, Name: "free", Bytes: 10},                    // behind the blocked head
	}}
	res, err := s.Run(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The free load finishes only after the blocked one: 1 + 0.01 + 0.01.
	if math.Abs(res.RuntimeSec-1.02) > 1e-12 {
		t.Fatalf("runtime %g, want 1.02", res.RuntimeSec)
	}
}

func TestRuntimeLowerBounds(t *testing.T) {
	// The makespan is at least max(total memory time, total compute
	// time) on a real HKS schedule.
	s := genOrFatal(t, OC, Config{Bench: params.ARK, DataMemBytes: 32 << 20})
	bw, modops := 16e9, 54.4e9
	res, err := s.Run(bw, modops)
	if err != nil {
		t.Fatal(err)
	}
	memT := float64(s.Traffic.TotalBytes()) / bw
	cmpT := float64(params.ARK.Ops().WeightedTotal()) / modops
	if res.RuntimeSec < math.Max(memT, cmpT)-1e-12 {
		t.Fatalf("runtime %g below lower bound %g", res.RuntimeSec, math.Max(memT, cmpT))
	}
	if res.CmpIdleFrac < 0 || res.CmpIdleFrac >= 1 {
		t.Fatalf("idle fraction %g out of range", res.CmpIdleFrac)
	}
	if res.BytesMoved != s.Traffic.TotalBytes() {
		t.Fatalf("bytes moved %d != schedule traffic %d", res.BytesMoved, s.Traffic.TotalBytes())
	}
}

func TestMoreBandwidthNeverHurts(t *testing.T) {
	s := genOrFatal(t, MP, Config{Bench: params.DPRIVE, DataMemBytes: 32 << 20})
	prev := math.Inf(1)
	for _, bw := range []float64{8e9, 16e9, 32e9, 64e9, 128e9} {
		res, err := s.Run(bw, 54.4e9)
		if err != nil {
			t.Fatal(err)
		}
		if res.RuntimeSec > prev+1e-12 {
			t.Fatalf("runtime increased with bandwidth at %g GB/s", bw/1e9)
		}
		prev = res.RuntimeSec
	}
}

func TestComputeBoundSaturation(t *testing.T) {
	// At extreme bandwidth every dataflow converges to the compute bound
	// (paper §VI-C: "the design is no longer limited by bandwidth").
	modops := 54.4e9
	want := float64(params.ARK.Ops().WeightedTotal()) / modops
	for _, df := range AllDataflows() {
		res, err := genOrFatal(t, df, Config{Bench: params.ARK, DataMemBytes: 32 << 20}).Run(100e12, modops)
		if err != nil {
			t.Fatal(err)
		}
		if res.RuntimeSec > want*1.02 {
			t.Fatalf("%s: runtime %g ms not within 2%% of compute bound %g ms", df, res.RuntimeSec*1e3, want*1e3)
		}
	}
}

// TestRandomProgramsInvariants runs random task lists: every one must
// run, and the results must satisfy the conservation properties.
func TestRandomProgramsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		s := &Schedule{Tasks: randomTasks(rng, 1+rng.Intn(120))}
		res, err := s.Run(1e6, 1e6)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.RuntimeSec < math.Max(res.MemBusySec, res.CmpBusySec)-1e-12 {
			t.Fatalf("trial %d: makespan below busy time", trial)
		}
		if res.CmpIdleFrac < -1e-12 || res.CmpIdleFrac > 1 {
			t.Fatalf("trial %d: idle fraction %g", trial, res.CmpIdleFrac)
		}
		load, store, ops := volume(s.Tasks)
		if res.BytesMoved != load+store {
			t.Fatalf("trial %d: bytes %d != %d", trial, res.BytesMoved, load+store)
		}
		if res.OpsExecuted != ops {
			t.Fatalf("trial %d: ops mismatch", trial)
		}
	}
}

// TestFasterMachinesNeverSlower: raising either rate never increases
// the makespan.
func TestFasterMachinesNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		s := &Schedule{Tasks: randomTasks(rng, 80)}
		base, err := s.Run(1e6, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		fasterMem, err := s.Run(2e6, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		fasterCmp, err := s.Run(1e6, 2e6)
		if err != nil {
			t.Fatal(err)
		}
		if fasterMem.RuntimeSec > base.RuntimeSec+1e-12 {
			t.Fatalf("trial %d: more bandwidth slowed the run", trial)
		}
		if fasterCmp.RuntimeSec > base.RuntimeSec+1e-12 {
			t.Fatalf("trial %d: more compute slowed the run", trial)
		}
	}
}

func TestZeroByteAndZeroOpTasks(t *testing.T) {
	s := &Schedule{Tasks: []Task{
		{Kind: Load, Name: "empty"},
		{Kind: Compute, Name: "noop", Deps: []int{0}},
		{Kind: Store, Name: "empty2", Deps: []int{1}},
	}}
	res, err := s.Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeSec != 0 {
		t.Fatalf("zero-payload program took %g s", res.RuntimeSec)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Compute.String() != "compute" {
		t.Fatal("kind names wrong")
	}
}
