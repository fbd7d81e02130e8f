package analysis

import (
	"fmt"
	"math"

	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

// ---- On-chip memory requirements (paper §IV-A/B/C) ----
//
// The paper quantifies each dataflow by the memory it needs to avoid
// excessive off-chip traffic: MP wants the full intermediate working
// set on-chip (≥675 MB for BTS3), DC needs 255 MB, and OC delivers
// near-compulsory traffic from 32 MB. These drivers regenerate that
// analysis.

// MemoryPoint is one (memory size, traffic) sample.
type MemoryPoint struct {
	MemMiB   int64
	TotalMB  [3]float64 // MP, DC, OC non-evk traffic (MiB)
	Overhead [3]float64 // traffic / compulsory (1.0 = perfect reuse)
}

// MemorySweep evaluates non-evk DRAM traffic across on-chip memory
// sizes. A size too small for a dataflow's pinned working set is
// reported as +Inf traffic and overhead.
func MemorySweep(b params.Benchmark, memMiBs []int64) ([]MemoryPoint, error) {
	compulsory := float64(b.InputBytes()+b.OutputBytes()) / mib
	var pts []MemoryPoint
	for _, m := range memMiBs {
		p := MemoryPoint{MemMiB: m}
		for i, df := range dataflow.AllDataflows() {
			s, err := dataflow.Generate(df, dataflow.Config{
				Bench:        b,
				DataMemBytes: m * mib,
				EvkOnChip:    true, // isolate data traffic
			})
			if err != nil {
				p.TotalMB[i], p.Overhead[i] = math.Inf(1), math.Inf(1)
				continue
			}
			tot := float64(s.Traffic.LoadBytes+s.Traffic.StoreBytes) / mib
			p.TotalMB[i] = tot
			p.Overhead[i] = tot / compulsory
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// SpillFreeMemoryMiB binary-searches the smallest on-chip memory (in
// tower granularity) at which the dataflow achieves compulsory
// traffic: every input byte loaded once, every output byte stored
// once, nothing else.
func SpillFreeMemoryMiB(df dataflow.Dataflow, b params.Benchmark) (int64, error) {
	compulsory := b.InputBytes() + b.OutputBytes()
	tb := b.TowerBytes()
	isFree := func(towers int64) (bool, error) {
		s, err := dataflow.Generate(df, dataflow.Config{
			Bench:        b,
			DataMemBytes: towers * tb,
			EvkOnChip:    true,
		})
		if err != nil {
			return false, nil // too small to schedule at all
		}
		return s.Traffic.LoadBytes+s.Traffic.StoreBytes == compulsory, nil
	}
	lo, hi := int64(1), int64(4096)
	if ok, err := isFree(hi); err != nil {
		return 0, err
	} else if !ok {
		return 0, fmt.Errorf("analysis: %s/%s not spill-free even at %d towers", df, b.Name, hi)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := isFree(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi * tb / mib, nil
}

func memory(_ *Runner, b params.Benchmark) ([]*Table, error) {
	// A size the dataflow cannot be scheduled at has no value.
	fits := func(v float64) any {
		if math.IsInf(v, 1) {
			return nil
		}
		return v
	}
	pts, err := MemorySweep(b, []int64{8, 16, 32, 64, 128, 256, 512, 1024})
	return tabulate(pts, err, &Table{
		Title: fmt.Sprintf("Data traffic vs on-chip memory (%s, evk on-chip, non-evk bytes)", b.Name),
		Cols: []Col{{"MiB", "mem_mib", 9, "%d"},
			{"MP MiB", "mp_mb", 10, "%.0f"}, {"DC MiB", "dc_mb", 10, "%.0f"}, {"OC MiB", "oc_mb", 10, "%.0f"},
			{"MP ovh", "mp_ovh", 9, "%.1fx"}, {"DC ovh", "dc_ovh", 9, "%.1fx"}, {"OC ovh", "oc_ovh", 9, "%.1fx"}},
	}, func(p MemoryPoint) []any {
		return []any{p.MemMiB, fits(p.TotalMB[0]), fits(p.TotalMB[1]), fits(p.TotalMB[2]),
			fits(p.Overhead[0]), fits(p.Overhead[1]), fits(p.Overhead[2])}
	})
}
