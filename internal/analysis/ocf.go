package analysis

import (
	"fmt"

	"ciflow/internal/dataflow"
	"ciflow/internal/params"
	"ciflow/internal/rpu"
)

// ---- OCF ablation (this repository's extension, not in the paper) ----

// OCFRow compares plain OC with the fused-ModDown OCF variant.
type OCFRow struct {
	Bench      string
	OCMB       float64 // total traffic, evk streamed (MiB)
	OCFMB      float64
	SavedPct   float64
	OCms       float64 // runtime at the benchmark's OCbase bandwidth
	OCFms      float64
	SpeedupPct float64
	Fused      bool // false when OCF fell back to OC
}

// AblationOCF quantifies the fused-ModDown extension: traffic saved
// and the runtime effect at each benchmark's OCbase bandwidth with
// streamed keys.
func (r *Runner) AblationOCF() ([]OCFRow, error) {
	iv, err := r.TableIV()
	if err != nil {
		return nil, err
	}
	var rows []OCFRow
	for i, b := range params.All() {
		oc, err := r.Schedule(dataflow.OC, b, false, false)
		if err != nil {
			return nil, err
		}
		ocf, err := r.Schedule(dataflow.OCF, b, false, false)
		if err != nil {
			return nil, err
		}
		bw := iv[i].OCBaseGBs
		ocMS, err := r.RuntimeMS(dataflow.OC, b, false, bw, 1)
		if err != nil {
			return nil, err
		}
		ocfMS, err := r.RuntimeMS(dataflow.OCF, b, false, bw, 1)
		if err != nil {
			return nil, err
		}
		ocB := float64(oc.Traffic.TotalBytes())
		ocfB := float64(ocf.Traffic.TotalBytes())
		rows = append(rows, OCFRow{
			Bench: b.Name,
			OCMB:  ocB / mib, OCFMB: ocfB / mib,
			SavedPct: 100 * (ocB - ocfB) / ocB,
			OCms:     ocMS, OCFms: ocfMS,
			SpeedupPct: 100 * (ocMS - ocfMS) / ocMS,
			Fused:      ocf.Traffic != oc.Traffic,
		})
	}
	return rows, nil
}

func ablationOCF(r *Runner, _ params.Benchmark) ([]*Table, error) {
	rows, err := r.AblationOCF()
	return tabulate(rows, err, &Table{
		Title: "OCF ablation: Output-Centric with fused ModDown (extension; evk streamed)",
		Cols: []Col{benchCol, {"OC MB", "oc_mb", 9, "%.0f"}, {"OCF MB", "ocf_mb", 9, "%.0f"}, {"saved", "saved_pct", 8, "%.1f%%"},
			{"OC ms", "oc_ms", 9, "%.2f"}, {"OCF ms", "ocf_ms", 9, "%.2f"}, {"faster", "faster_pct", 9, "%.1f%%"}, {"fused", "fused", 7, "%v"}},
	}, func(r OCFRow) []any {
		return []any{r.Bench, r.OCMB, r.OCFMB, r.SavedPct, r.OCms, r.OCFms, r.SpeedupPct, r.Fused}
	})
}

// ---- Roofline classification ----

// RooflineRow classifies one configuration as memory- or compute-
// bound under the roofline model: a kernel with arithmetic intensity
// AI on a machine with balance point MODOPS/BW is memory-bound iff
// AI < balance.
type RooflineRow struct {
	Bench       string
	Dataflow    string
	AI          float64 // ops per DRAM byte
	BalanceAI   float64 // machine balance at the given bandwidth
	MemoryBound bool
}

// Roofline classifies all benchmark × dataflow pairs at one bandwidth
// (evk streamed). This regenerates the paper's framing that "HE is
// memory bound" on conventional memory systems — and shows where OC
// escapes it.
func (r *Runner) Roofline(bwGBs float64) ([]RooflineRow, error) {
	balance := rpu.ModopsPerSec(1) / (bwGBs * GB)
	var rows []RooflineRow
	for _, b := range params.All() {
		for _, df := range dataflow.AllDataflows() {
			s, err := r.Schedule(df, b, false, false)
			if err != nil {
				return nil, err
			}
			ai := s.ArithmeticIntensity()
			rows = append(rows, RooflineRow{
				Bench: b.Name, Dataflow: df.String(),
				AI: ai, BalanceAI: balance, MemoryBound: ai < balance,
			})
		}
	}
	return rows, nil
}

// roofline classifies at DDR4, DDR5 and HBM bandwidths, one table each.
func roofline(r *Runner, _ params.Benchmark) ([]*Table, error) {
	var tables []*Table
	for _, bw := range []float64{8, 64, 256} {
		rows, err := r.Roofline(bw)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: fmt.Sprintf("Roofline at %.1f GB/s (machine balance %.2f ops/byte)", bw, rows[0].BalanceAI),
			Cols:  []Col{benchCol, {"DF", "dataflow", -4, "%s"}, {"AI", "ai", 8, "%.2f"}, {"bound", "bound", 14, "%s"}},
			Notes: []string{""}, // a blank line closes each table, the last too
		}
		for _, r := range rows {
			bound := "compute"
			if r.MemoryBound {
				bound = "memory"
			}
			t.Add(r.Bench, r.Dataflow, r.AI, bound)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
