package analysis

import (
	"ciflow/internal/dataflow"
	"ciflow/internal/params"
	"ciflow/internal/rpu"
)

const mib = 1 << 20

// ---- Table II: DRAM transfers and arithmetic intensity ----

// TableIIRow is one benchmark's traffic and AI per dataflow.
type TableIIRow struct {
	Bench string
	MB    [3]float64 // MP, DC, OC total DRAM traffic (MiB, evk streamed)
	AI    [3]float64 // weighted modular ops per DRAM byte
}

// TableII reproduces paper Table II: total DRAM transfers including
// streamed evks with a 32 MB data memory, and the resulting
// arithmetic intensity, for all benchmarks and dataflows.
func (r *Runner) TableII() ([]TableIIRow, error) {
	var rows []TableIIRow
	for _, b := range params.All() {
		row := TableIIRow{Bench: b.Name}
		for i, df := range dataflow.AllDataflows() {
			s, err := r.Schedule(df, b, false, false)
			if err != nil {
				return nil, err
			}
			row.MB[i] = float64(s.Traffic.TotalBytes()) / mib
			row.AI[i] = s.ArithmeticIntensity()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func tableII(r *Runner, _ params.Benchmark) ([]*Table, error) {
	rows, err := r.TableII()
	return tabulate(rows, err, &Table{
		Title: "Table II: DRAM transfers (MB) incl. streamed evk, 32MB on-chip, and AI (ops/byte)",
		Cols: []Col{benchCol,
			{"MP MB", "mp_mb", 9, "%.0f"}, {"AI", "mp_ai", 6, "%.2f"},
			{"DC MB", "dc_mb", 9, "%.0f"}, {"AI", "dc_ai", 6, "%.2f"},
			{"OC MB", "oc_mb", 9, "%.0f"}, {"AI", "oc_ai", 6, "%.2f"}},
	}, func(r TableIIRow) []any {
		return []any{r.Bench, r.MB[0], r.AI[0], r.MB[1], r.AI[1], r.MB[2], r.AI[2]}
	})
}

// ---- Table III: benchmark parameters ----

func tableIII(*Runner, params.Benchmark) ([]*Table, error) {
	return tabulate(params.All(), nil, &Table{
		Title: "Table III: 128-bit-secure HKS parameter sets",
		Cols: []Col{benchCol,
			{"logN", "logn", 5, "%d"}, {"kl", "kl", 4, "%d"}, {"kp", "kp", 4, "%d"},
			{"dnum", "dnum", 5, "%d"}, {"alpha", "alpha", 6, "%d"},
			{"evk MiB", "evk_mib", 10, "%.0f"}, {"temp MiB", "temp_mib", 10, "%.1f"}},
	}, func(b params.Benchmark) []any {
		return []any{b.Name, b.LogN, b.KL, b.KP, b.Dnum, b.Alpha(), float64(b.EvkBytes()) / mib, float64(b.TempBytes()) / mib}
	})
}

// ---- Table IV: OCbase bandwidth and speedups ----

// TableIVRow summarizes the OC-vs-MP comparison for one benchmark.
type TableIVRow struct {
	Bench      string
	OCBaseGBs  float64 // grid bandwidth where OC matches the baseline
	SavedBW    float64 // 64 / OCbase
	OCms, MPms float64 // runtimes at OCbase
	Speedup    float64 // MP/OC at OCbase
	BaselineMS float64 // MP at 64 GB/s (reference)
}

// TableIV reproduces paper Table IV: the bandwidth at which OC (evk
// on-chip) matches the MP baseline running at 64 GB/s, the bandwidth
// saving, and the OC speedup over MP at that bandwidth.
func (r *Runner) TableIV() ([]TableIVRow, error) {
	var rows []TableIVRow
	for _, b := range params.All() {
		base, err := r.Baseline(b)
		if err != nil {
			return nil, err
		}
		cont, err := r.FindBandwidthToMatch(dataflow.OC, b, true, 1, base, 2048)
		if err != nil {
			return nil, err
		}
		bw := OCBaseGridGBs(cont)
		oc, err := r.RuntimeMS(dataflow.OC, b, true, bw, 1)
		if err != nil {
			return nil, err
		}
		mp, err := r.RuntimeMS(dataflow.MP, b, true, bw, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIVRow{
			Bench: b.Name, OCBaseGBs: bw, SavedBW: BaselineBandwidthGBs / bw,
			OCms: oc, MPms: mp, Speedup: mp / oc, BaselineMS: base,
		})
	}
	return rows, nil
}

func tableIV(r *Runner, _ params.Benchmark) ([]*Table, error) {
	rows, err := r.TableIV()
	return tabulate(rows, err, &Table{
		Title: "Table IV: OC bandwidth matching MP@64GB/s baseline (evk on-chip)",
		Cols: []Col{benchCol,
			// This head has always printed one wider than its cells.
			{"    OCbase", "ocbase_gbs", 9, "%.1fG"}, {"SavedBW", "saved_bw_x", 9, "%.2fx"},
			{"OC ms", "oc_ms", 9, "%.2f"}, {"MP ms", "mp_ms", 9, "%.2f"},
			{"Speedup", "speedup_x", 9, "%.2fx"}, {"Base ms", "baseline_ms", 10, "%.2f"}},
	}, func(r TableIVRow) []any {
		return []any{r.Bench, r.OCBaseGBs, r.SavedBW, r.OCms, r.MPms, r.Speedup, r.BaselineMS}
	})
}

// ---- Table V: matching ARK's saturation point ----

// SaturationGBs is where ARK's OC becomes fully compute bound
// (paper §VI-C-1: 128 GB/s).
const SaturationGBs = 128

// TableVRow is the configuration one dataflow needs to match ARK's
// saturation-point performance.
type TableVRow struct {
	Dataflow  string
	BWGBs     float64
	Modops    float64 // MODOPS multiplier
	RelBW     float64 // vs the saturation point's 128 GB/s
	RelModops float64
}

// TableV reproduces paper Table V: the (bandwidth, MODOPS) each
// dataflow needs to match ARK's saturation point, holding MODOPS at
// 2x as the paper does.
func (r *Runner) TableV() ([]TableVRow, error) {
	b := params.ARK
	sat, err := r.RuntimeMS(dataflow.OC, b, true, SaturationGBs, 1)
	if err != nil {
		return nil, err
	}
	rows := []TableVRow{{Dataflow: "Sat. Point", BWGBs: SaturationGBs, Modops: 1, RelBW: 1, RelModops: 1}}
	for _, df := range []dataflow.Dataflow{dataflow.OC, dataflow.DC, dataflow.MP} {
		bw, err := r.FindBandwidthToMatch(df, b, true, 2, sat, 4096)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableVRow{
			Dataflow: df.String(), BWGBs: bw, Modops: 2,
			RelBW: bw / SaturationGBs, RelModops: 2,
		})
	}
	return rows, nil
}

func tableV(r *Runner, _ params.Benchmark) ([]*Table, error) {
	rows, err := r.TableV()
	return tabulate(rows, err, &Table{
		Title: "Table V: configurations matching ARK's saturation point (OC@128GB/s, 1x MODOPS)",
		Cols: []Col{{"Dataflow", "dataflow", -11, "%s"},
			{"BW GB/s", "bw_gbs", 9, "%.2f"}, {"MODOPS", "modops_x", 8, "%.2fx"},
			{"Rel.BW", "rel_bw_x", 8, "%.2fx"}, {"Rel.MODOPS", "rel_modops_x", 11, "%.2fx"}},
	}, func(r TableVRow) []any {
		return []any{r.Dataflow, r.BWGBs, r.Modops, r.RelBW, r.RelModops}
	})
}

// ---- §VI-B area claim ----

// area is the paper's SRAM saving: the 392 MB (evk-resident) RPU
// against the 32 MB (evk-streamed) one. It is one row of five numbers;
// the verbs carry the two sentences the text form prints them in.
func area(*Runner, params.Benchmark) ([]*Table, error) {
	big := int64(32*mib) + params.BTS3.EvkBytes()
	small := int64(32 * mib)
	t := &Table{Cols: []Col{
		{"", "sram_evk_resident_mib", 0, "On-chip SRAM: %.0f MiB ->"},
		{"", "sram_evk_streamed_mib", 0, "%.0f MiB"},
		{"", "sram_saving_x", 0, "(%.2fx saving)\nRPU area:    "},
		{"", "area_evk_resident_mm2", 0, "%.2f mm^2 ->"},
		{"", "area_evk_streamed_mm2", 0, "%.2f mm^2"}}}
	t.Add(float64(big)/mib, float64(small)/mib, float64(big)/float64(small), rpu.AreaMM2(big), rpu.AreaMM2(small))
	return []*Table{t}, nil
}
