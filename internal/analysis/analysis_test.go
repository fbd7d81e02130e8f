package analysis

import (
	"strings"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

func TestTableIIShape(t *testing.T) {
	r := NewRunner()
	rows, err := r.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		// Paper Table II ordering: OC moves the least data and has the
		// highest arithmetic intensity.
		if !(row.MB[2] < row.MB[1] && row.MB[1] <= row.MB[0]) {
			t.Errorf("%s: traffic ordering violated: %v", row.Bench, row.MB)
		}
		if !(row.AI[2] > row.AI[1] && row.AI[1] >= row.AI[0]) {
			t.Errorf("%s: AI ordering violated: %v", row.Bench, row.AI)
		}
	}
	out := textOf(t, "table2")
	if !strings.Contains(out, "BTS3") || !strings.Contains(out, "DPRIVE") {
		t.Error("formatted table missing benchmarks")
	}
}

func TestTableIVHeadlineClaims(t *testing.T) {
	r := NewRunner()
	rows, err := r.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	var maxSpeedup, maxSaved float64
	for _, row := range rows {
		if row.OCBaseGBs > BaselineBandwidthGBs {
			t.Errorf("%s: OCbase %f exceeds the baseline bandwidth", row.Bench, row.OCBaseGBs)
		}
		if row.Speedup < 1 {
			t.Errorf("%s: OC slower than MP at OCbase (%.2fx)", row.Bench, row.Speedup)
		}
		// OC at OCbase must indeed match or beat the baseline.
		if row.OCms > row.BaselineMS*1.001 {
			t.Errorf("%s: OC at OCbase (%.2f ms) misses baseline (%.2f ms)", row.Bench, row.OCms, row.BaselineMS)
		}
		if row.Speedup > maxSpeedup {
			maxSpeedup = row.Speedup
		}
		if row.SavedBW > maxSaved {
			maxSaved = row.SavedBW
		}
	}
	// Paper headline: up to 4.16x speedup and up to 8x bandwidth
	// saving; our model must land in the same regime (>=2x, <=8x).
	if maxSpeedup < 2 {
		t.Errorf("max OC speedup %.2fx below the paper's 1.3-4.16x band", maxSpeedup)
	}
	if maxSaved < 4 || maxSaved > 16 {
		t.Errorf("max bandwidth saving %.2fx outside the paper's 2-8x regime", maxSaved)
	}
}

func TestTableIVARKIsBestCase(t *testing.T) {
	// The paper's biggest win is ARK: 8x bandwidth saving, 4.16x
	// speedup. ARK must be our best case too.
	r := NewRunner()
	rows, err := r.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	var ark TableIVRow
	for _, row := range rows {
		if row.Bench == "ARK" {
			ark = row
		}
	}
	for _, row := range rows {
		if row.Speedup > ark.Speedup+1e-9 {
			t.Errorf("%s speedup %.2fx exceeds ARK's %.2fx", row.Bench, row.Speedup, ark.Speedup)
		}
	}
	if ark.SavedBW < 4 {
		t.Errorf("ARK bandwidth saving %.2fx, paper reports 8x", ark.SavedBW)
	}
}

func TestFigure4Monotone(t *testing.T) {
	r := NewRunner()
	pts, err := r.Figure4(params.DPRIVE, StdBandwidthsGBs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		for d := 0; d < 3; d++ {
			if pts[i].MS[d] > pts[i-1].MS[d]+1e-9 {
				t.Errorf("dataflow %d: runtime increased from %.1f to %.1f GB/s",
					d, pts[i-1].BWGBs, pts[i].BWGBs)
			}
		}
	}
	// OC dominates at low bandwidth.
	if !(pts[0].MS[2] < pts[0].MS[1] && pts[0].MS[1] < pts[0].MS[0]) {
		t.Errorf("at 8 GB/s expected OC < DC < MP, got %v", pts[0].MS)
	}
}

func TestFigure4GapClosesAtHighBandwidth(t *testing.T) {
	// Paper §VI-C-1: beyond ~256 GB/s the OC benefit diminishes as
	// the RPU becomes compute bound.
	r := NewRunner()
	pts, err := r.Figure4(params.ARK, ExtBandwidthsGBs)
	if err != nil {
		t.Fatal(err)
	}
	low := pts[0]
	high := pts[len(pts)-1]
	lowGap := low.MS[0] / low.MS[2]
	highGap := high.MS[0] / high.MS[2]
	if lowGap < 2 {
		t.Errorf("low-bandwidth MP/OC gap %.2fx too small", lowGap)
	}
	if highGap > 1.2 {
		t.Errorf("high-bandwidth MP/OC gap %.2fx should have closed", highGap)
	}
}

func TestFigureStreamShift(t *testing.T) {
	// Streaming evks shifts curves up but converges with bandwidth
	// (Figures 5-6).
	r := NewRunner()
	pts, err := r.FigureStream(params.ARK, ExtBandwidthsGBs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		for d := 0; d < 3; d++ {
			if p.StreamMS[d] < p.OnChipMS[d]-1e-9 {
				t.Errorf("streaming faster than on-chip at %.1f GB/s", p.BWGBs)
			}
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.StreamMS[2]/first.OnChipMS[2] < last.StreamMS[2]/last.OnChipMS[2] {
		t.Error("streaming penalty should shrink with bandwidth")
	}
}

func TestFigure7SlowdownBounded(t *testing.T) {
	r := NewRunner()
	rows, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Slowdown < 1 {
			t.Errorf("%s: streaming speedup?! %.2fx", row.Bench, row.Slowdown)
		}
		// Paper: 1.3x-2.9x more bandwidth buys back the on-chip
		// performance; allow a wider 1-5x band for the model.
		if row.ExtraBWFactor < 1 || row.ExtraBWFactor > 5 {
			t.Errorf("%s: equivalent-bandwidth factor %.2fx outside [1,5]", row.Bench, row.ExtraBWFactor)
		}
	}
}

func TestFigure8ModopsScaling(t *testing.T) {
	r := NewRunner()
	pts, err := r.Figure8(params.ARK, ExtBandwidthsGBs)
	if err != nil {
		t.Fatal(err)
	}
	low := pts[0]
	high := pts[len(pts)-1]
	// Paper §VI-C-2: at low bandwidth the MODOPS multiplier barely
	// matters; at high bandwidth it scales runtime down.
	if low.MS[1]/low.MS[16] > 1.5 {
		t.Errorf("at 8 GB/s MODOPS should not matter: 1x=%.2f 16x=%.2f", low.MS[1], low.MS[16])
	}
	if high.MS[1]/high.MS[16] < 4 {
		t.Errorf("at 1 TB/s MODOPS should scale: 1x=%.2f 16x=%.2f", high.MS[1], high.MS[16])
	}
}

func TestTableVOrdering(t *testing.T) {
	r := NewRunner()
	rows, err := r.TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// At 2x MODOPS, OC needs the least bandwidth, MP the most.
	oc, dc, mp := rows[1].BWGBs, rows[2].BWGBs, rows[3].BWGBs
	if !(oc < dc && dc <= mp) {
		t.Errorf("bandwidth ordering violated: OC=%.1f DC=%.1f MP=%.1f", oc, dc, mp)
	}
}

func TestFigure9MoreModopsLessBandwidth(t *testing.T) {
	r := NewRunner()
	sat, base, err := r.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, rows []Figure9Row) {
		if len(rows) < 2 {
			t.Fatalf("%s: only %d configurations found", name, len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].BWGBs > rows[i-1].BWGBs+1e-6 {
				t.Errorf("%s: more MODOPS should need no more bandwidth", name)
			}
		}
	}
	check("saturation", sat)
	check("baseline", base)
}

func TestAblationKeyCompression(t *testing.T) {
	r := NewRunner()
	rows, err := r.AblationKeyCompression()
	if err != nil {
		t.Fatal(err)
	}
	var maxAI float64
	for _, row := range rows {
		if row.AIComp <= row.AI {
			t.Errorf("%s: compression did not improve AI", row.Bench)
		}
		if row.AIComp > maxAI {
			maxAI = row.AIComp
		}
	}
	// Paper §IV-D: compression boosts OC AI to ~3.82 ops/byte.
	if maxAI < 2.5 {
		t.Errorf("best compressed AI %.2f too low vs paper's 3.82", maxAI)
	}
}

func TestAreaSummary(t *testing.T) {
	out := textOf(t, "area")
	if !strings.Contains(out, "12.25x") {
		t.Errorf("area summary missing the 12.25x claim:\n%s", out)
	}
}

func TestOCBaseGrid(t *testing.T) {
	if got := OCBaseGridGBs(9.0); got != 12.8 {
		t.Errorf("OCBaseGridGBs(9) = %g, want 12.8", got)
	}
	if got := OCBaseGridGBs(8.0); got != 8 {
		t.Errorf("OCBaseGridGBs(8) = %g, want 8", got)
	}
	if got := OCBaseGridGBs(5000); got != 1024 {
		t.Errorf("OCBaseGridGBs(5000) = %g, want 1024 (cap)", got)
	}
}

func TestFindBandwidthToMatchErrors(t *testing.T) {
	r := NewRunner()
	// Target of 0 ms is unreachable.
	if _, err := r.FindBandwidthToMatch(dataflow.OC, params.ARK, true, 1, 0, 1024); err == nil {
		t.Fatal("unreachable target accepted")
	}
}
