package sim

import (
	"math"
	"math/rand"
	"testing"

	"ciflow/internal/trace"
)

// randomProgram builds a structurally valid random program: tasks in
// creation order with backward dependencies only.
func randomProgram(rng *rand.Rand, n int) *trace.Program {
	b := trace.NewBuilder()
	for i := 0; i < n; i++ {
		var deps []int
		for d := 0; d < i && len(deps) < 3; d++ {
			if rng.Intn(8) == 0 {
				deps = append(deps, rng.Intn(i))
			}
		}
		switch rng.Intn(3) {
		case 0:
			b.Load("l", int64(1+rng.Intn(4096)), deps...)
		case 1:
			b.Store("s", int64(1+rng.Intn(4096)), deps...)
		default:
			b.Compute("c", int64(1+rng.Intn(10000)), deps...)
		}
	}
	return b.Program()
}

// TestRandomProgramsInvariants fuzzes the simulator: every random DAG
// must simulate without deadlock, and the results must satisfy the
// conservation properties.
func TestRandomProgramsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	m := Machine{BandwidthBytesPerSec: 1e6, ModopsPerSec: 1e6}
	for trial := 0; trial < 200; trial++ {
		p := randomProgram(rng, 1+rng.Intn(120))
		res, err := Run(p, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.RuntimeSec < math.Max(res.MemBusySec, res.CmpBusySec)-1e-12 {
			t.Fatalf("trial %d: makespan below busy time", trial)
		}
		if res.CmpIdleFrac < -1e-12 || res.CmpIdleFrac > 1 {
			t.Fatalf("trial %d: idle fraction %g", trial, res.CmpIdleFrac)
		}
		st := p.Stats()
		if res.BytesMoved != st.LoadBytes+st.StoreBytes {
			t.Fatalf("trial %d: bytes %d != %d", trial, res.BytesMoved, st.LoadBytes+st.StoreBytes)
		}
		if res.OpsExecuted != st.ComputeOps {
			t.Fatalf("trial %d: ops mismatch", trial)
		}
	}
}

// TestFasterMachinesNeverSlower fuzzes monotonicity: raising either
// rate must never increase the makespan.
func TestFasterMachinesNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		p := randomProgram(rng, 80)
		base, err := Run(p, Machine{BandwidthBytesPerSec: 1e6, ModopsPerSec: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		fasterMem, err := Run(p, Machine{BandwidthBytesPerSec: 2e6, ModopsPerSec: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		fasterCmp, err := Run(p, Machine{BandwidthBytesPerSec: 1e6, ModopsPerSec: 2e6})
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

// TestZeroByteAndZeroOpTasks covers degenerate payloads.
func TestZeroByteAndZeroOpTasks(t *testing.T) {
	b := trace.NewBuilder()
	l := b.Load("empty", 0)
	c := b.Compute("noop", 0, l)
	b.Store("empty2", 0, c)
	res, err := Run(b.Program(), Machine{BandwidthBytesPerSec: 1, ModopsPerSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeSec != 0 {
		t.Fatalf("zero-payload program took %g s", res.RuntimeSec)
	}
}
