package analysis

import (
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

func TestMemorySweepMonotone(t *testing.T) {
	pts, err := MemorySweep(params.ARK, []int64{8, 16, 32, 64, 128, 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		for d := 0; d < 3; d++ {
			if pts[i].TotalMB[d] < 0 || pts[i-1].TotalMB[d] < 0 {
				continue
			}
			// Traffic must not grow with more memory. Allow a tower of
			// slack for policy-threshold effects.
			if pts[i].TotalMB[d] > pts[i-1].TotalMB[d]+1 {
				t.Errorf("dataflow %d: traffic grew from %d to %d MiB memory (%.0f -> %.0f)",
					d, pts[i-1].MemMiB, pts[i].MemMiB, pts[i-1].TotalMB[d], pts[i].TotalMB[d])
			}
		}
	}
	// At 512 MiB everything is compulsory for ARK.
	last := pts[len(pts)-1]
	for d := 0; d < 3; d++ {
		if last.Overhead[d] > 1.01 {
			t.Errorf("dataflow %d: overhead %.2fx at 512 MiB", d, last.Overhead[d])
		}
	}
}

// memoryRequirements is the §IV working-set comparison for one
// benchmark: the spill-free memory per dataflow (MiB) and the traffic
// overhead factor at 32 MiB.
func memoryRequirements(t *testing.T, b params.Benchmark) (spillFree [3]int64, at32Over [3]float64) {
	t.Helper()
	for i, df := range dataflow.AllDataflows() {
		m, err := SpillFreeMemoryMiB(df, b)
		if err != nil {
			t.Fatal(err)
		}
		spillFree[i] = m
	}
	pts, err := MemorySweep(b, []int64{32})
	if err != nil {
		t.Fatal(err)
	}
	return spillFree, pts[0].Overhead
}

func TestSpillFreeMemoryOrdering(t *testing.T) {
	// Paper §IV: MP needs the most on-chip memory to avoid spills
	// (675 MB for BTS3), DC less (255 MB), OC the least.
	for _, b := range []params.Benchmark{params.BTS3, params.ARK} {
		spillFree, at32Over := memoryRequirements(t, b)
		mp, dc, oc := spillFree[0], spillFree[1], spillFree[2]
		// OC may need a couple of extra towers at the exact knee (it
		// reads the input twice: once for INTT, once for the bypass),
		// so allow tower-level slack on the OC<=DC leg; the magnitude
		// ordering against MP must be strict.
		slack := 4 * b.TowerBytes() / (1 << 20)
		if !(oc <= dc+slack && dc <= mp) {
			t.Errorf("%s: spill-free MiB MP=%d DC=%d OC=%d violates OC <= DC <= MP", b.Name, mp, dc, oc)
		}
		if at32Over[2] >= at32Over[1] || at32Over[1] >= at32Over[0] {
			t.Errorf("%s: 32MiB overhead ordering violated: %v", b.Name, at32Over)
		}
		t.Logf("%s spill-free MiB: MP=%d DC=%d OC=%d; overhead at 32MiB: MP=%.1fx DC=%.1fx OC=%.1fx",
			b.Name, mp, dc, oc, at32Over[0], at32Over[1], at32Over[2])
	}
}

func TestBTS3WorkingSetMagnitudes(t *testing.T) {
	// The paper's §IV-A/B numbers: MP needs at least 675 MB, DC
	// 255 MB. Our policies must land in those regimes (hundreds of MB
	// for MP, strictly less for DC) while OC runs close to compulsory
	// traffic from 32 MB (overhead well below MP's).
	spillFree, at32Over := memoryRequirements(t, params.BTS3)
	if spillFree[0] < 300 {
		t.Errorf("MP spill-free %d MiB; paper says ~675 MB (hundreds)", spillFree[0])
	}
	if spillFree[1] >= spillFree[0] {
		t.Errorf("DC (%d MiB) should need less than MP (%d MiB)", spillFree[1], spillFree[0])
	}
	if at32Over[2] >= at32Over[0] {
		t.Errorf("OC overhead at 32 MiB (%.1fx) should beat MP (%.1fx)", at32Over[2], at32Over[0])
	}
}
