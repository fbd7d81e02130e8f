package analysis

import (
	"fmt"

	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

// ---- Figure 4: runtime vs bandwidth for the three dataflows ----

// SweepPoint is one bandwidth point of a Figure 4 curve set.
type SweepPoint struct {
	BWGBs float64
	MS    [3]float64 // MP, DC, OC runtimes (ms)
	Idle  [3]float64 // compute idle fractions
}

// Figure4 sweeps off-chip bandwidth with evks pre-loaded on-chip
// (392 MB SRAM configuration) for one benchmark. The paper extends
// the sweep to 1 TB/s for ARK and BTS3.
func (r *Runner) Figure4(b params.Benchmark, bws []float64) ([]SweepPoint, error) {
	var pts []SweepPoint
	for _, bw := range bws {
		p := SweepPoint{BWGBs: bw}
		for i, df := range dataflow.AllDataflows() {
			res, err := r.Runtime(df, b, true, bw, 1)
			if err != nil {
				return nil, err
			}
			p.MS[i] = res.RuntimeSec * 1e3
			p.Idle[i] = res.CmpIdleFrac
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// sweepBandwidths is the paper's grid for b: ARK and BTS3 extend to
// 1 TB/s (Figure 4 d, e).
func sweepBandwidths(b params.Benchmark) []float64 {
	if b.Name == "ARK" || b.Name == "BTS3" {
		return ExtBandwidthsGBs
	}
	return StdBandwidthsGBs
}

func figure4(r *Runner, b params.Benchmark) ([]*Table, error) {
	pts, err := r.Figure4(b, sweepBandwidths(b))
	return tabulate(pts, err, &Table{
		Title: fmt.Sprintf("Figure 4 (%s): HKS runtime vs off-chip bandwidth, evk on-chip", b.Name),
		Cols: []Col{bwCol,
			{"MP ms", "mp_ms", 10, "%.2f"}, {"DC ms", "dc_ms", 10, "%.2f"}, {"OC ms", "oc_ms", 10, "%.2f"},
			{"MPidle", "mp_idle", 8, "%.0f%%"}, {"DCidle", "dc_idle", 8, "%.0f%%"}, {"OCidle", "oc_idle", 8, "%.0f%%"}},
	}, func(p SweepPoint) []any {
		return []any{p.BWGBs, p.MS[0], p.MS[1], p.MS[2], Frac(p.Idle[0]), Frac(p.Idle[1]), Frac(p.Idle[2])}
	})
}

// ---- Figures 5 & 6: evk streamed vs on-chip ----

// StreamPoint compares the streamed-evk and on-chip-evk runtimes of
// the three dataflows at one bandwidth.
type StreamPoint struct {
	BWGBs    float64
	OnChipMS [3]float64
	StreamMS [3]float64
}

// FigureStream sweeps bandwidth with evks streamed versus on-chip for
// one benchmark (Figure 5 uses BTS3, Figure 6 ARK).
func (r *Runner) FigureStream(b params.Benchmark, bws []float64) ([]StreamPoint, error) {
	var pts []StreamPoint
	for _, bw := range bws {
		p := StreamPoint{BWGBs: bw}
		for i, df := range dataflow.AllDataflows() {
			on, err := r.Runtime(df, b, true, bw, 1)
			if err != nil {
				return nil, err
			}
			st, err := r.Runtime(df, b, false, bw, 1)
			if err != nil {
				return nil, err
			}
			p.OnChipMS[i] = on.RuntimeSec * 1e3
			p.StreamMS[i] = st.RuntimeSec * 1e3
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// figureStream is Figure 5 (BTS3) and Figure 6 (ARK). Its heads label
// groups of three columns, so they are the title's second line and the
// columns have none of their own.
func figureStream(figure int, b params.Benchmark) func(*Runner, params.Benchmark) ([]*Table, error) {
	return func(r *Runner, _ params.Benchmark) ([]*Table, error) {
		pts, err := r.FigureStream(b, ExtBandwidthsGBs)
		return tabulate(pts, err, &Table{
			Title: fmt.Sprintf("Figure %d: %s runtime, evk streamed vs on-chip (solid: evk streamed, dotted: evk on-chip)\n%10s %28s %28s",
				figure, b.Name, "", "streamed  MP/DC/OC (ms)", "on-chip  MP/DC/OC (ms)"),
			Cols: []Col{{"", "bw_gbs", 10, "%.1f"},
				{"", "mp_stream_ms", 9, "%.2f"}, {"", "dc_stream_ms", 9, "%.2f"}, {"", "oc_stream_ms", 9, "%.2f"},
				{"", "mp_onchip_ms", 9, "%.2f"}, {"", "dc_onchip_ms", 9, "%.2f"}, {"", "oc_onchip_ms", 9, "%.2f"}},
		}, func(p StreamPoint) []any {
			return []any{p.BWGBs, p.StreamMS[0], p.StreamMS[1], p.StreamMS[2], p.OnChipMS[0], p.OnChipMS[1], p.OnChipMS[2]}
		})
	}
}

// ---- Figure 7: OC streaming slowdown and equivalent bandwidth ----

// Figure7Row reports, per benchmark, OC at its OCbase bandwidth with
// evks on-chip versus streamed, and the (higher) bandwidth at which
// streaming matches the on-chip runtime.
type Figure7Row struct {
	Bench         string
	OCBaseGBs     float64
	OnChipMS      float64 // OC, evk on-chip, at OCbase
	StreamMS      float64 // OC, evk streamed, at OCbase
	Slowdown      float64
	EquivGBs      float64 // streamed bandwidth matching the on-chip runtime
	ExtraBWFactor float64 // EquivGBs / OCbase
}

// Figure7 reproduces the paper's streaming-slowdown study (§VI-B).
func (r *Runner) Figure7() ([]Figure7Row, error) {
	ivRows, err := r.TableIV()
	if err != nil {
		return nil, err
	}
	var rows []Figure7Row
	for i, b := range params.All() {
		bw := ivRows[i].OCBaseGBs
		on, err := r.RuntimeMS(dataflow.OC, b, true, bw, 1)
		if err != nil {
			return nil, err
		}
		st, err := r.RuntimeMS(dataflow.OC, b, false, bw, 1)
		if err != nil {
			return nil, err
		}
		equiv, err := r.FindBandwidthToMatch(dataflow.OC, b, false, 1, on, 4096)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure7Row{
			Bench: b.Name, OCBaseGBs: bw,
			OnChipMS: on, StreamMS: st, Slowdown: st / on,
			EquivGBs: equiv, ExtraBWFactor: equiv / bw,
		})
	}
	return rows, nil
}

func figure7(r *Runner, _ params.Benchmark) ([]*Table, error) {
	rows, err := r.Figure7()
	return tabulate(rows, err, &Table{
		Title: "Figure 7: OC with evks streamed vs on-chip (12.25x SRAM saving)",
		Cols: []Col{benchCol, {"OCbase", "ocbase_gbs", 9, "%.1fG"},
			{"on-chip ms", "onchip_ms", 12, "%.2f"}, {"stream ms", "stream_ms", 12, "%.2f"},
			{"slowdown", "slowdown_x", 9, "%.2fx"}, {"equiv BW", "equiv_gbs", 10, "%.2fG"}, {"xBW", "extra_bw_x", 8, "%.2fx"}},
	}, func(r Figure7Row) []any {
		return []any{r.Bench, r.OCBaseGBs, r.OnChipMS, r.StreamMS, r.Slowdown, r.EquivGBs, r.ExtraBWFactor}
	})
}

// ---- Figure 8: MODOPS scaling ----

// ModopsPoint is one bandwidth point of the ARK MODOPS study.
type ModopsPoint struct {
	BWGBs float64
	MS    map[int]float64 // MODOPS multiplier -> runtime ms
}

// ModopsScales are the paper's multipliers.
var ModopsScales = []int{1, 2, 4, 8, 16}

// Figure8 reproduces the ARK OC runtime across bandwidths at 1–16x
// MODOPS with evks on-chip (§VI-C-2).
func (r *Runner) Figure8(b params.Benchmark, bws []float64) ([]ModopsPoint, error) {
	var pts []ModopsPoint
	for _, bw := range bws {
		p := ModopsPoint{BWGBs: bw, MS: map[int]float64{}}
		for _, sc := range ModopsScales {
			ms, err := r.RuntimeMS(dataflow.OC, b, true, bw, float64(sc))
			if err != nil {
				return nil, err
			}
			p.MS[sc] = ms
		}
		pts = append(pts, p)
	}
	return pts, nil
}

func figure8(r *Runner, b params.Benchmark) ([]*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 8 (%s): OC runtime at 1-16x MODOPS, evk on-chip", b.Name),
		Cols:  []Col{bwCol},
	}
	for _, sc := range ModopsScales {
		t.Cols = append(t.Cols, Col{fmt.Sprintf("%dx ms", sc), fmt.Sprintf("ms_%dx", sc), 9, "%.2f"})
	}
	pts, err := r.Figure8(b, ExtBandwidthsGBs)
	return tabulate(pts, err, t, func(p ModopsPoint) []any {
		row := []any{p.BWGBs}
		for _, sc := range ModopsScales {
			row = append(row, p.MS[sc])
		}
		return row
	})
}

// ---- Figure 9: equivalent configurations with streamed evks ----

// Figure9Row is one (bandwidth, MODOPS) configuration that matches a
// target runtime with evks streamed and 32 MB on-chip memory.
type Figure9Row struct {
	Modops   float64
	BWGBs    float64
	TargetMS float64
}

// Figure9 finds, for each MODOPS multiplier, the bandwidth at which
// ARK's OC with streamed evks matches (a) the saturation-point
// runtime and (b) the baseline runtime (§VI-C-2, Figure 9).
func (r *Runner) Figure9() (sat, base []Figure9Row, err error) {
	b := params.ARK
	satMS, err := r.RuntimeMS(dataflow.OC, b, true, SaturationGBs, 1)
	if err != nil {
		return nil, nil, err
	}
	baseMS, err := r.Baseline(b)
	if err != nil {
		return nil, nil, err
	}
	for _, sc := range []float64{1, 2, 4} {
		if bw, err := r.FindBandwidthToMatch(dataflow.OC, b, false, sc, satMS, 8192); err == nil {
			sat = append(sat, Figure9Row{Modops: sc, BWGBs: bw, TargetMS: satMS})
		}
		if bw, err := r.FindBandwidthToMatch(dataflow.OC, b, false, sc, baseMS, 8192); err == nil {
			base = append(base, Figure9Row{Modops: sc, BWGBs: bw, TargetMS: baseMS})
		}
	}
	return sat, base, nil
}

func figure9(r *Runner, _ params.Benchmark) ([]*Table, error) {
	sat, base, err := r.Figure9()
	if err != nil {
		return nil, err
	}
	table := func(title string, rows []Figure9Row) *Table {
		t := &Table{Title: title, Cols: []Col{
			{"MODOPS", "modops_x", 10, "%.0fx"}, {"BW GB/s", "bw_gbs", 10, "%.2f"}, {"target ms", "target_ms", 12, "%.2f"}}}
		for _, r := range rows {
			t.Add(r.Modops, r.BWGBs, r.TargetMS)
		}
		return t
	}
	return []*Table{
		table("Figure 9: ARK OC with streamed evks, configs matching reference performance\n(a: saturation point)", sat),
		table("(b: baseline)", base),
	}, nil
}

// ---- §IV-D key-compression ablation ----

// KeyCompressionRow compares streamed-evk AI with and without the
// 2x key compression of MAD.
type KeyCompressionRow struct {
	Bench      string
	AI, AIComp float64
	MB, MBComp float64
}

// AblationKeyCompression reproduces the paper's claim that key
// compression boosts OC's arithmetic intensity (up to 3.82 ops/byte).
func (r *Runner) AblationKeyCompression() ([]KeyCompressionRow, error) {
	var rows []KeyCompressionRow
	for _, b := range params.All() {
		plain, err := r.Schedule(dataflow.OC, b, false, false)
		if err != nil {
			return nil, err
		}
		comp, err := r.Schedule(dataflow.OC, b, false, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, KeyCompressionRow{
			Bench:  b.Name,
			AI:     plain.ArithmeticIntensity(),
			AIComp: comp.ArithmeticIntensity(),
			MB:     float64(plain.Traffic.TotalBytes()) / mib,
			MBComp: float64(comp.Traffic.TotalBytes()) / mib,
		})
	}
	return rows, nil
}

func ablationKeyCompression(r *Runner, _ params.Benchmark) ([]*Table, error) {
	rows, err := r.AblationKeyCompression()
	return tabulate(rows, err, &Table{
		Title: "Key-compression ablation (OC, evk streamed, 32MB on-chip)",
		Cols: []Col{benchCol, {"MB", "mb", 10, "%.0f"}, {"AI", "ai", 8, "%.2f"},
			{"MB (comp)", "mb_comp", 12, "%.0f"}, {"AI (comp)", "ai_comp", 10, "%.2f"}},
	}, func(r KeyCompressionRow) []any {
		return []any{r.Bench, r.MB, r.AI, r.MBComp, r.AIComp}
	})
}
