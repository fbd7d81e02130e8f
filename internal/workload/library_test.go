package workload

import (
	"reflect"
	"strings"
	"testing"

	"ciflow/internal/serve"
)

// TestPIRCounts pins the PIR shape's exact predictions: per batch one
// hoist group of width probes (one shared ModUp) plus one dependent
// combine (its own ModUp), all on one level.
func TestPIRCounts(t *testing.T) {
	s, err := PIR(2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c.Switches != 12 || c.Rotations != 12 || c.Relins != 0 {
		t.Fatalf("switch counts %+v", c)
	}
	if c.ModUps != 4 || c.HoistGroups != 2 || c.Coalesced != 10 || c.MaxWidth != 5 {
		t.Fatalf("hoist counts %+v", c)
	}
	if c.Depth != 2 {
		t.Fatalf("depth %d, want 2 (probes, then the combine)", c.Depth)
	}
	want := []serve.LevelStats{{Level: 3, Switches: 12, ModUps: 4, Coalesced: 10}}
	if !reflect.DeepEqual(c.PerLevel, want) {
		t.Fatalf("per-level %+v, want %+v", c.PerLevel, want)
	}
}

// TestPrivateInferenceCounts pins the layered matvec/relin stack:
// each layer one baby hoist group, dependent giants, and a relin one
// level below, the next layer two levels down.
func TestPrivateInferenceCounts(t *testing.T) {
	s, err := PrivateInference(2, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c.Switches != 8 || c.Rotations != 6 || c.Relins != 2 {
		t.Fatalf("switch counts %+v", c)
	}
	if c.ModUps != 6 || c.HoistGroups != 2 || c.Coalesced != 4 {
		t.Fatalf("hoist counts %+v", c)
	}
	if c.Depth != 6 {
		t.Fatalf("depth %d, want 6 (baby-giant-relin twice)", c.Depth)
	}
	want := []serve.LevelStats{
		{Level: 4, Switches: 3, ModUps: 2, Coalesced: 2},
		{Level: 3, Switches: 1, ModUps: 1},
		{Level: 2, Switches: 3, ModUps: 2, Coalesced: 2},
		{Level: 1, Switches: 1, ModUps: 1},
	}
	if !reflect.DeepEqual(c.PerLevel, want) {
		t.Fatalf("per-level %+v, want %+v", c.PerLevel, want)
	}
}

// TestEvalModCounts pins the degenerate dependency-only chain: one
// relin per level, nothing hoistable, nothing coalesced.
func TestEvalModCounts(t *testing.T) {
	s, err := EvalMod(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c.Switches != 4 || c.Rotations != 0 || c.Relins != 4 {
		t.Fatalf("switch counts %+v", c)
	}
	if c.ModUps != 4 || c.HoistGroups != 0 || c.Coalesced != 0 {
		t.Fatalf("hoist counts %+v", c)
	}
	if c.Depth != 4 {
		t.Fatalf("depth %d, want 4 (a pure chain)", c.Depth)
	}
	want := []serve.LevelStats{
		{Level: 5, Switches: 1, ModUps: 1},
		{Level: 4, Switches: 1, ModUps: 1},
		{Level: 3, Switches: 1, ModUps: 1},
		{Level: 2, Switches: 1, ModUps: 1},
	}
	if !reflect.DeepEqual(c.PerLevel, want) {
		t.Fatalf("per-level %+v, want %+v", c.PerLevel, want)
	}
}

func TestLibraryRejects(t *testing.T) {
	cases := []struct {
		name string
		f    func() (*Schedule, error)
		want string
	}{
		{"pir-width", func() (*Schedule, error) { return PIR(1, 1, 0) }, "width >= 2"},
		{"pi-shape", func() (*Schedule, error) { return PrivateInference(0, 3, 2, 4) }, "layers >= 1"},
		{"pi-levels", func() (*Schedule, error) { return PrivateInference(4, 3, 2, 4) }, "top level >= 7"},
		{"evalmod-depth", func() (*Schedule, error) { return EvalMod(0, 5) }, "depth >= 1"},
		{"evalmod-levels", func() (*Schedule, error) { return EvalMod(7, 5) }, "top level >= 6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.f()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

// TestScenarios: every library scenario builds, validates, and (except
// the BTS2 bootstrap, which keeps the paper's deep geometry) fits the
// canonical towers-6 replay ring.
func TestScenarios(t *testing.T) {
	for _, name := range ScenarioNames() {
		s, err := Scenario(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "bootstrap-bts2" {
			continue
		}
		for _, n := range s.Nodes {
			if n.Level > scenarioTop {
				t.Fatalf("%s: node %d at level %d above the scenario top %d", name, n.ID, n.Level, scenarioTop)
			}
		}
	}
	if _, err := Scenario("nope"); err == nil || !strings.Contains(err.Error(), `unknown scenario "nope"`) {
		t.Fatalf("unknown scenario: %v", err)
	}
}
