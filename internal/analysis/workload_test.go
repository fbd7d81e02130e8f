package analysis

import (
	"strings"
	"testing"

	"ciflow/internal/params"
)

func TestEstimateWorkload(t *testing.T) {
	r := NewRunner()
	rows, err := r.EstimateWorkload(ResNet20, params.ARK, false, 25.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// OC total must be the lowest; totals must equal per-KS x count.
	ks := float64(ResNet20.KeySwitches())
	for _, row := range rows {
		want := row.PerKSms * ks / 1e3
		if diff := row.TotalSec - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: total %.3f != per-KS x count %.3f", row.Dataflow, row.TotalSec, want)
		}
	}
	if !(rows[2].TotalSec < rows[1].TotalSec && rows[1].TotalSec < rows[0].TotalSec) {
		t.Errorf("expected OC < DC < MP totals, got %+v", rows)
	}
	out := WorkloadTable(25.6, rows).Text()
	if !strings.Contains(out, "ResNet-20") {
		t.Error("missing workload name")
	}
}

func TestWorkloadKeySwitches(t *testing.T) {
	if got := ResNet20.KeySwitches(); got != 3306+1226 {
		t.Fatalf("ResNet20 key switches = %d", got)
	}
	w := Workload{Rotations: 2, Mults: 3}
	if w.KeySwitches() != 5 {
		t.Fatal("key switch count wrong")
	}
}

// TestWorkloadSharedModUps: a workload runs at least one ModUp when it
// switches at all and never more than one per switch.
func TestWorkloadSharedModUps(t *testing.T) {
	r := NewRunner()
	for _, w := range []Workload{
		{Name: "more", Rotations: 2, Mults: 1, ModUps: 4},
		{Name: "none", Rotations: 2},
		{Name: "negative", ModUps: -1},
	} {
		if _, err := r.EstimateWorkload(w, params.BTS3, true, 64); err == nil {
			t.Errorf("%s: %d ModUps for %d switches accepted", w.Name, w.ModUps, w.KeySwitches())
		}
	}
	rows, err := r.EstimateWorkload(ResNet20, params.BTS3, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.HoistSavedModUps != 0 || row.HoistedTotalSec != row.TotalSec {
			t.Fatalf("ResNet20 hoists nothing, got %+v", row)
		}
	}
}

func TestEstimateWorkloadHoisted(t *testing.T) {
	r := NewRunner()
	// Hoist groups of 8 and 4 among 17 switches: 17 − 10 ModUps.
	w := Workload{Name: "bsgs", Rotations: 16, Mults: 1, ModUps: 7}
	rows, err := r.EstimateWorkload(w, params.BTS3, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := hoistPlan(params.BTS3).ModUpShare()
	for _, row := range rows {
		if row.HoistSavedModUps != 10 {
			t.Fatalf("%s: saved %d ModUps, want 10", row.Dataflow, row.HoistSavedModUps)
		}
		// Hoisting removes exactly saved x ModUp-share switches.
		want := row.TotalSec - row.PerKSms*f*10/1e3
		if diff := row.HoistedTotalSec - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: hoisted total %.6f, want %.6f", row.Dataflow, row.HoistedTotalSec, want)
		}
		if !(row.HoistedTotalSec < row.TotalSec) {
			t.Fatalf("%s: hoisting did not reduce the estimate", row.Dataflow)
		}
	}
	out := WorkloadTable(64, rows).Text()
	if !strings.Contains(out, "hoisted s") || !strings.Contains(out, "10 ModUp executions saved") {
		t.Fatalf("hoisted rendering missing: %q", out)
	}
	// Workloads that hoist nothing keep the original table shape.
	plain := WorkloadTable(64, []WorkloadEstimate{{Workload: "w", Dataflow: "MP"}}).Text()
	if strings.Contains(plain, "hoisted s") {
		t.Fatal("plain workload rendered a hoisted column")
	}
}

func TestFormatWorkloadEmpty(t *testing.T) {
	if out := WorkloadTable(8, nil).Text(); !strings.Contains(out, "no estimates") {
		t.Fatalf("unexpected %q", out)
	}
}
