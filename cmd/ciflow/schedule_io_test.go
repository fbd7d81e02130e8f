package main

// Tests for the schedule import/export surface of the CLI: the
// schedule verb's -export / -workload file: round trip, the file:<path>
// workload source, and the library shapes.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ciflow/internal/workload"
)

// pirGolden is the committed pir scenario golden.
const pirGolden = "../../internal/workload/testdata/pir.schedule.json"

func TestScheduleExportImportVerb(t *testing.T) {
	dir := t.TempDir()
	exported := filepath.Join(dir, "pir.schedule.json")
	args := []string{"schedule", "-workload", "pir",
		"-rotations", "4", "-requests", "2", "-export", exported}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}

	// The exported file is a valid canonical schedule in its own right.
	sched, err := workload.ImportFile(exported)
	if err != nil {
		t.Fatalf("exported schedule does not import: %v", err)
	}
	if sched.Name != "pir-2x4" {
		t.Fatalf("exported schedule %q", sched.Name)
	}

	// file: prices the file like any generated schedule and reports the
	// same counts; -export alongside re-emits identical bytes.
	jsonPath := filepath.Join(dir, "report.json")
	reExported := filepath.Join(dir, "again.schedule.json")
	args = []string{"schedule", "-workload", "file:" + exported,
		"-json", jsonPath, "-export", reExported}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scheduleReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "file:"+exported || rep.Schedule != "pir-2x4" {
		t.Fatalf("imported report names: %+v", rep)
	}
	if want := sched.Counts(); !reflect.DeepEqual(rep.Counts, want) {
		t.Fatalf("imported counts %+v, want %+v", rep.Counts, want)
	}
	a, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(reExported)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("export→import→export not byte-stable through the CLI")
	}
}

func TestScheduleImportVerbErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.schedule.json")
	if err := os.WriteFile(bad, []byte(`{"version":9,"name":"x","nodes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"schedule", "-workload", "file:" + filepath.Join(dir, "missing.json")},
		{"schedule", "-workload", "file:" + bad},
		{"schedule", "-workload", "pir", "-rotations", "1"},
		{"schedule", "-workload", "evalmod", "-bts", "7"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	err := run([]string{"schedule", "-workload", "file:" + bad})
	if err == nil || !strings.Contains(err.Error(), "version 9 not supported") {
		t.Fatalf("unsupported version error: %v", err)
	}
}

// TestWorkloadRunLibraryShapes replays the library generator shapes
// end to end on a tiny ring, holding the tentpole invariant for each:
// measured serve counters — per level included — equal the schedule's
// predictions exactly. evalmod also runs over two shard processes: its
// chain reaches literal level 0, which a shard must serve at level 0.
func TestWorkloadRunLibraryShapes(t *testing.T) {
	shape := func(workload string, rotations, requests, shards int) serveConfig {
		c := testWorkloadConfig()
		c.workload, c.rotations, c.requests, c.dnum = workload, rotations, requests, 2
		if shards > 0 {
			c.shards, c.tenants = shards, 2
		}
		return c
	}
	for name, cfg := range map[string]serveConfig{
		"pir":               shape("pir", 4, 2, 0),
		"private-inference": shape("private-inference", 3, 2, 0),
		"evalmod":           shape("evalmod", 3, 2, 0),
		"evalmod-sharded":   shape("evalmod", 3, 2, 2),
	} {
		rep, err := serveRun(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exactBooks(t, rep)
		if cfg.workload == "evalmod" && (rep.Predicted.HoistGroups != 0 || rep.Coalesced != 0) {
			t.Fatalf("%s replay coalesced: %+v", name, rep)
		}
	}
}

// TestWorkloadRunFile replays every committed scenario golden through
// the serving layer for two tenants — the `ciflow serve -workload
// file:...` path. bootstrap-bts2 keeps the paper's 40 levels, which
// the six-tower replay ring must refuse by node rather than replay.
func TestWorkloadRunFile(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		cfg := testWorkloadConfig()
		cfg.workload = "file:" + filepath.Join(filepath.Dir(pirGolden), name+".schedule.json")
		cfg.tenants, cfg.towers, cfg.dnum = 2, 6, 2 // the scenarios top out at level 5
		rep, err := serveRun(cfg)
		if name == "bootstrap-bts2" {
			if err == nil || !strings.Contains(err.Error(), "raise -towers") {
				t.Fatalf("%s: level overflow error: %v", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exactBooks(t, rep)
		if name == "pir" && rep.Schedule != "pir-4x16" {
			t.Fatalf("schedule %q, want the golden's pir-4x16", rep.Schedule)
		}
	}
}

func TestWorkloadRunFileErrors(t *testing.T) {
	// A schedule above the replay ring's top level names the node and
	// the fix.
	cfg := testWorkloadConfig()
	cfg.workload, cfg.dnum = "file:"+pirGolden, 2 // towers 4 → top level 3
	_, err := serveRun(cfg)
	if err == nil || !strings.Contains(err.Error(), "raise -towers") {
		t.Fatalf("level overflow error: %v", err)
	}
	cfg = testWorkloadConfig()
	cfg.workload = "file:" + filepath.Join(t.TempDir(), "missing.json")
	if _, err := serveRun(cfg); err == nil {
		t.Fatal("missing schedule file replayed")
	}
}

// TestWriteScheduleDOT pins the DOT rendering of a small schedule: one
// node per key switch labelled with stage, rotation, hoist group and
// level, each followed by one edge per dependency.
func TestWriteScheduleDOT(t *testing.T) {
	sched, err := workload.PIR(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pir.dot")
	if err := writeScheduleDOT(sched, path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `digraph schedule {
  rankdir=LR;
  t0 [label="query0 probe r1 g0 L3"];
  t1 [label="query0 probe r2 g0 L3"];
  t2 [label="query0 combine r3 g1 L3"];
  t0 -> t2;
  t1 -> t2;
}
`
	if string(got) != want {
		t.Fatalf("DOT output:\n%s\nwant:\n%s", got, want)
	}
}
