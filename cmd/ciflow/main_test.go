package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ciflow/internal/obs"
)

func TestRunVerbs(t *testing.T) {
	// Fast verbs run end to end; slower sweeps are covered by the
	// analysis package's own tests.
	for _, args := range [][]string{
		{"table3"},
		{"table2"},
		{"area"},
		{"ablate-keycomp"},
		{"memory", "-bench", "ARK"},
		{"table2", "-csv"},
		{"fig4", "-bench", "DPRIVE"},
		{"fig4", "-bench", "DPRIVE", "-csv"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"fig4", "-bench", "NOPE"},
		{"table2", "-mem", "1"}, // far below any benchmark's minimum
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestThroughputRun(t *testing.T) {
	// Tiny configuration keeps this a smoke test; the hks package
	// owns the exhaustive bit-exactness matrix.
	rep, err := throughputRun("all", 2, 2, 5, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitExact {
		t.Fatal("engine output not bit-exact with serial")
	}
	if len(rep.Results) != 4 { // serial + MP + DC + OC
		t.Fatalf("got %d result rows, want 4", len(rep.Results))
	}
	for _, row := range rep.Results {
		if row.OpsPerSec <= 0 || row.P50Ms < 0 || row.P99Ms < row.P50Ms {
			t.Fatalf("implausible row %+v", row)
		}
	}
	if rep.Hoisted != nil {
		t.Fatal("hoisted section present without -hoisted")
	}
}

func TestThroughputRunHoisted(t *testing.T) {
	rep, err := throughputRun("mp", 2, 2, 5, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	hr := rep.Hoisted
	if hr == nil {
		t.Fatal("missing hoisted section")
	}
	if !hr.BitExact {
		t.Fatal("hoisted outputs not bit-exact with per-rotation")
	}
	if hr.Rotations != 3 || len(hr.Results) != 2 { // serial + MP
		t.Fatalf("unexpected hoisted shape: %+v", hr)
	}
	if hr.ModelOpsSaved != 2*hr.ModUpModOps {
		t.Fatalf("model ops saved %d, want (k-1)*ModUp = %d", hr.ModelOpsSaved, 2*hr.ModUpModOps)
	}
	if hr.ModelSpeedup <= 1 || hr.ModelSavedFrac <= 0 || hr.ModelSavedFrac >= 1 {
		t.Fatalf("implausible model: %+v", hr)
	}
	for _, row := range hr.Results {
		if row.PerRotOpsPerSec <= 0 || row.HoistedOpsPerSec <= 0 || row.MeasuredSpeedup <= 0 {
			t.Fatalf("implausible hoisted row %+v", row)
		}
		// The hoisted-never-loses invariant is gated by perfgate on
		// bench-scale runs; at this noise-scale configuration (N=32,
		// 2 requests) asserting it would be timing-flaky.
	}
}

func TestThroughputVerb(t *testing.T) {
	jsonPath := t.TempDir() + "/bench.json"
	args := []string{"throughput", "-dataflow", "oc", "-workers", "2",
		"-requests", "2", "-logn", "5", "-towers", "4", "-dnum", "2",
		"-json", jsonPath}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
}

// TestObservabilityFlags drives the -profile/-trace/-pprof/-dot
// wiring end to end through the CLI dispatch: every throughput row
// gains stage_shares, the trace and pprof artifacts appear on disk, and
// the schedule DAG renders as DOT.
func TestObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	jsonPath := dir + "/bench.json"
	tracePath := dir + "/trace.json"
	args := []string{"throughput", "-dataflow", "oc", "-workers", "2",
		"-requests", "2", "-logn", "5", "-towers", "4", "-dnum", "2",
		"-profile", "-trace", tracePath, "-pprof", dir + "/prof",
		"-json", jsonPath}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep throughputReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Results {
		if len(row.StageShares) == 0 {
			t.Errorf("%s row has no stage shares under -profile", row.Dataflow)
			continue
		}
		// Only the sanity bound here: at this scale (N=32, 2 requests)
		// a descheduled goroutine moves the wall-clock sum far below 1,
		// so closure within 10% is perfgate's serial-row check at bench
		// scale (TestPerfgateStageShares) and the benchmark's
		// hks.stage_sum_over_switch.
		sum := obs.SumShares(row.StageShares)
		if row.Dataflow == "serial" && (sum <= 0 || sum > 1.1) {
			t.Errorf("serial stage shares sum to %.3f, want in (0, 1.1]", sum)
		}
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	for _, prof := range []string{"/prof/cpu.prof", "/prof/mem.prof"} {
		if _, err := os.Stat(dir + prof); err != nil {
			t.Errorf("pprof artifact missing: %v", err)
		}
	}

	dotPath := dir + "/sched.dot"
	if err := run([]string{"schedule", "-workload", "pir", "-requests", "2",
		"-rotations", "4", "-dot", dotPath}); err != nil {
		t.Fatal(err)
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatalf("DOT not written: %v", err)
	}
	if !strings.Contains(string(dot), "digraph") || !strings.Contains(string(dot), "->") {
		t.Error("DOT output has no digraph/edges")
	}
}

func TestThroughputErrors(t *testing.T) {
	for _, args := range [][]string{
		{"throughput", "-dataflow", "nope", "-logn", "5"},
		{"throughput", "-requests", "0", "-logn", "5"},
		{"throughput", "-logn", "3"},
		{"throughput", "-logn", "5", "-towers", "4", "-dnum", "9"},
		{"throughput", "-logn", "5", "-towers", "4", "-dnum", "2", "-hoisted", "-rotations", "1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func writeReport(t *testing.T, path string, rep *throughputReport) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPerfgate(t *testing.T) {
	dir := t.TempDir()
	base := &throughputReport{
		BitExact: true,
		Results: []throughputRow{
			{Dataflow: "serial", OpsPerSec: 100},
			{Dataflow: "MP", OpsPerSec: 120},
		},
	}
	basePath := dir + "/base.json"
	writeReport(t, basePath, base)

	// Within tolerance (half the baseline exactly is still allowed at 2.01x).
	ok := &throughputReport{
		BitExact: true,
		Results: []throughputRow{
			{Dataflow: "serial", OpsPerSec: 51},
			{Dataflow: "MP", OpsPerSec: 300},
			{Dataflow: "OC", OpsPerSec: 10}, // new dataflow: no baseline, no gate
		},
		Hoisted: &hoistedReport{BitExact: true, ModelSpeedup: 1.4,
			Results: []hoistedRow{{Dataflow: "MP", MeasuredSpeedup: 1.2}}},
	}
	okPath := dir + "/ok.json"
	writeReport(t, okPath, ok)
	if err := perfgatePaths(basePath, okPath, 2, "", "", "", "", "", ""); err != nil {
		t.Fatalf("perfgate failed on healthy report: %v", err)
	}

	// Gross regression on one dataflow.
	bad := &throughputReport{
		BitExact: true,
		Results: []throughputRow{
			{Dataflow: "serial", OpsPerSec: 99},
			{Dataflow: "MP", OpsPerSec: 10},
		},
	}
	badPath := dir + "/bad.json"
	writeReport(t, badPath, bad)
	if err := perfgatePaths(basePath, badPath, 2, "", "", "", "", "", ""); err == nil {
		t.Fatal("perfgate passed a >2x regression")
	}

	// Hoisting losing to per-rotation must fail regardless of speed.
	slowHoist := &throughputReport{
		BitExact: true,
		Results:  []throughputRow{{Dataflow: "serial", OpsPerSec: 200}},
		Hoisted: &hoistedReport{BitExact: true, ModelSpeedup: 1.4,
			Results: []hoistedRow{{Dataflow: "serial", MeasuredSpeedup: 0.9}}},
	}
	slowPath := dir + "/slow.json"
	writeReport(t, slowPath, slowHoist)
	if err := perfgatePaths(basePath, slowPath, 2, "", "", "", "", "", ""); err == nil {
		t.Fatal("perfgate passed a hoisted slowdown")
	}

	// A baseline with a hoisted section pins it in the fresh report.
	hoistedBase := &throughputReport{
		BitExact: true,
		Results:  []throughputRow{{Dataflow: "serial", OpsPerSec: 100}},
		Hoisted: &hoistedReport{BitExact: true, ModelSpeedup: 1.4,
			Results: []hoistedRow{{Dataflow: "serial", MeasuredSpeedup: 1.5}}},
	}
	hoistedBasePath := dir + "/hoisted_base.json"
	writeReport(t, hoistedBasePath, hoistedBase)
	noHoist := &throughputReport{
		BitExact: true,
		Results:  []throughputRow{{Dataflow: "serial", OpsPerSec: 100}},
	}
	noHoistPath := dir + "/no_hoist.json"
	writeReport(t, noHoistPath, noHoist)
	if err := perfgatePaths(hoistedBasePath, noHoistPath, 2, "", "", "", "", "", ""); err == nil {
		t.Fatal("perfgate passed a fresh report that dropped the hoisted section")
	}

	// Non-bit-exact fresh reports are rejected outright.
	inexact := &throughputReport{
		Results: []throughputRow{{Dataflow: "serial", OpsPerSec: 500}},
	}
	inexactPath := dir + "/inexact.json"
	writeReport(t, inexactPath, inexact)
	if err := perfgatePaths(basePath, inexactPath, 2, "", "", "", "", "", ""); err == nil {
		t.Fatal("perfgate passed a non-bit-exact report")
	}
}

func TestPerfgateStageShares(t *testing.T) {
	dir := t.TempDir()
	shares := func(sum float64) []obs.StageShare {
		return []obs.StageShare{
			{Stage: "mod_up", Share: sum / 2},
			{Stage: "mod_down", Share: sum / 2},
		}
	}
	profiled := func(serialSum, mpSum float64) *throughputReport {
		return &throughputReport{
			BitExact: true, Workers: 2,
			Results: []throughputRow{
				{Dataflow: "serial", OpsPerSec: 100, StageShares: shares(serialSum)},
				{Dataflow: "MP", OpsPerSec: 120, StageShares: shares(mpSum)},
			},
		}
	}
	basePath := dir + "/base.json"
	writeReport(t, basePath, profiled(1.0, 1.8))

	// A healthy profiled report: serial sums to ~1, MP within workers+2.
	okPath := dir + "/ok.json"
	writeReport(t, okPath, profiled(0.95, 2.1))
	if err := perfgatePaths(basePath, okPath, 2, "", "", "", "", "", ""); err != nil {
		t.Fatalf("perfgate failed on healthy stage shares: %v", err)
	}

	// The serial row's shares must tile the wall clock within 10%.
	for _, sum := range []float64{0.5, 1.3} {
		p := dir + "/serial_off.json"
		writeReport(t, p, profiled(sum, 1.8))
		if err := perfgatePaths(basePath, p, 2, "", "", "", "", "", ""); err == nil {
			t.Errorf("perfgate passed a serial share sum of %.1f", sum)
		}
	}

	// Engine rows are bounded by workers+2.
	highMP := dir + "/high_mp.json"
	writeReport(t, highMP, profiled(1.0, 9.0))
	if err := perfgatePaths(basePath, highMP, 2, "", "", "", "", "", ""); err == nil {
		t.Error("perfgate passed an MP share sum of 9.0 at 2 workers")
	}

	// A profiled baseline pins the profile in the fresh report.
	bare := &throughputReport{
		BitExact: true, Workers: 2,
		Results: []throughputRow{
			{Dataflow: "serial", OpsPerSec: 100},
			{Dataflow: "MP", OpsPerSec: 120},
		},
	}
	barePath := dir + "/bare.json"
	writeReport(t, barePath, bare)
	if err := perfgatePaths(basePath, barePath, 2, "", "", "", "", "", ""); err == nil {
		t.Error("perfgate passed a fresh report that dropped its stage shares")
	}
	// ...but an unprofiled baseline does not demand one.
	if err := perfgatePaths(barePath, barePath, 2, "", "", "", "", "", ""); err != nil {
		t.Errorf("perfgate failed on an unprofiled pair: %v", err)
	}
}

func TestPerfgateErrors(t *testing.T) {
	dir := t.TempDir()
	good := dir + "/good.json"
	writeReport(t, good, &throughputReport{BitExact: true,
		Results: []throughputRow{{Dataflow: "serial", OpsPerSec: 1}}})
	if err := perfgatePaths(dir+"/missing.json", good, 2, "", "", "", "", "", ""); err == nil {
		t.Error("missing baseline accepted")
	}
	if err := perfgatePaths(good, dir+"/missing.json", 2, "", "", "", "", "", ""); err == nil {
		t.Error("missing fresh report accepted")
	}
	if err := perfgatePaths(good, good, 0.5, "", "", "", "", "", ""); err == nil {
		t.Error("tolerance below 1 accepted")
	}
	empty := dir + "/empty.json"
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := perfgatePaths(empty, good, 2, "", "", "", "", "", ""); err == nil {
		t.Error("empty baseline accepted")
	}
}

func testServeConfig() serveConfig {
	return serveConfig{
		dfName: "all", clients: 2, rotations: 3, ops: 2,
		logN: 5, towers: 4, dnum: 2, workers: 2,
		tenants: 1, levels: 1,
		maxBatch: 16, window: 200 * time.Microsecond,
	}
}

func TestServeRun(t *testing.T) {
	rep, err := serveRun(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitExact {
		t.Fatal("served results not bit-exact with direct SwitchHoisted")
	}
	// 2 clients x 2 ops x 3 rotations; the verification fan-out runs
	// after the stats snapshot and does not count.
	if want := uint64(2 * 2 * 3); rep.Requests != want {
		t.Fatalf("served %d requests, want %d", rep.Requests, want)
	}
	if rep.CoalescingFactor <= 1 {
		t.Fatalf("coalescing factor %.2f, want > 1", rep.CoalescingFactor)
	}
	if rep.KeyHitRate <= 0.5 {
		t.Fatalf("key hit rate %.2f, want > 0.5", rep.KeyHitRate)
	}
	if rep.OpsPerSec <= 0 || rep.P50Ms < 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("implausible report %+v", rep)
	}
	if rep.KeyBudget <= 0 || rep.KeyBytes <= 0 || rep.KeyBytes > rep.KeyBudget {
		t.Fatalf("implausible key residency: %d of %d bytes", rep.KeyBytes, rep.KeyBudget)
	}
	if err := serveCheck(rep); err != nil {
		t.Fatal(err)
	}
}

// TestServeRunMultiTenant drives the full (tenant, level) matrix and
// checks the keyspace invariants the perf gate relies on: per-tenant
// breakdowns present and healthy, ModUps never shared across tenants,
// resident key bytes within the explicit budget.
func TestServeRunMultiTenant(t *testing.T) {
	cfg := testServeConfig()
	cfg.clients, cfg.tenants, cfg.levels = 4, 2, 2
	// Each (tenant, level) cell gets one client; 4 ops over a pool of
	// 3 rotations leave every cell's steady-state hit rate above 50%.
	cfg.ops = 4
	cfg.keyBudget = 64 << 20
	rep, err := serveRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitExact {
		t.Fatal("multi-tenant serve not bit-exact with per-keyspace SwitchHoisted")
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("%d tenant reports, want 2", len(rep.Tenants))
	}
	if rep.KeyBudget != cfg.keyBudget {
		t.Fatalf("reported budget %d, want the explicit %d", rep.KeyBudget, cfg.keyBudget)
	}
	var modUps uint64
	for _, ts := range rep.Tenants {
		if ts.Served == 0 {
			t.Fatalf("tenant %s served nothing", ts.Tenant)
		}
		if ts.KeyHitRate <= 0.5 {
			t.Fatalf("tenant %s hit rate %.2f, want > 0.5", ts.Tenant, ts.KeyHitRate)
		}
		modUps += ts.ModUps
	}
	if modUps != rep.ModUps {
		t.Fatalf("per-tenant ModUps sum %d != global %d: groups crossed tenants", modUps, rep.ModUps)
	}
	if err := serveCheck(rep); err != nil {
		t.Fatal(err)
	}
}

func TestServeRunPaced(t *testing.T) {
	cfg := testServeConfig()
	cfg.clients, cfg.ops, cfg.rps = 1, 2, 500
	rep, err := serveRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two ops at 500 ops/sec cannot finish faster than one tick.
	if rep.DurationSec < 0.002 {
		t.Fatalf("paced run finished in %.4fs, pacing not applied", rep.DurationSec)
	}
}

func TestServeRunErrors(t *testing.T) {
	for name, mut := range map[string]func(*serveConfig){
		"clients":     func(c *serveConfig) { c.clients = 0 },
		"ops":         func(c *serveConfig) { c.ops = 0 },
		"rot":         func(c *serveConfig) { c.rotations = 0 },
		"rps":         func(c *serveConfig) { c.rps = -1 },
		"logn":        func(c *serveConfig) { c.logN = 3 },
		"rotpool":     func(c *serveConfig) { c.rotPool = 1 },
		"dataflow":    func(c *serveConfig) { c.dfName = "nope" },
		"tenants":     func(c *serveConfig) { c.tenants = 0 },
		"levels":      func(c *serveConfig) { c.levels = 0 },
		"levels-high": func(c *serveConfig) { c.levels = c.towers },
		"matrix":      func(c *serveConfig) { c.tenants = 4 }, // 2 clients < 4x1 matrix
		"budget":      func(c *serveConfig) { c.keyBudget = -1 },
	} {
		cfg := testServeConfig()
		mut(&cfg)
		if _, err := serveRun(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestServeVerb(t *testing.T) {
	jsonPath := t.TempDir() + "/serve.json"
	args := []string{"serve", "-clients", "2", "-rotations", "3", "-requests", "2",
		"-logn", "5", "-towers", "4", "-dnum", "2", "-workers", "2",
		"-check", "-json", jsonPath}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	var rep serveReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || !rep.BitExact {
		t.Fatalf("implausible serve report: %+v", rep)
	}
}

func writeServeReport(t *testing.T, path string, rep *serveReport) {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPerfgateServe(t *testing.T) {
	dir := t.TempDir()
	basePath := dir + "/thr_base.json"
	writeReport(t, basePath, &throughputReport{
		BitExact: true,
		Results:  []throughputRow{{Dataflow: "serial", OpsPerSec: 100}},
	})
	freshPath := dir + "/thr_fresh.json"
	writeReport(t, freshPath, &throughputReport{
		BitExact: true,
		Results:  []throughputRow{{Dataflow: "serial", OpsPerSec: 100}},
	})

	healthy := &serveReport{
		Requests: 64, OpsPerSec: 100, CoalescingFactor: 4,
		KeyHitRate: 0.9, BitExact: true,
	}
	sBase := dir + "/serve_base.json"
	writeServeReport(t, sBase, healthy)
	sOK := dir + "/serve_ok.json"
	writeServeReport(t, sOK, &serveReport{
		Requests: 64, OpsPerSec: 51, CoalescingFactor: 2,
		KeyHitRate: 0.6, BitExact: true,
	})
	if err := perfgatePaths(basePath, freshPath, 2, sBase, sOK, "", "", "", ""); err != nil {
		t.Fatalf("perfgate failed on healthy serve report: %v", err)
	}

	healthyTenants := []serveTenantReport{
		{Tenant: "t0", Served: 32, ModUps: 4, KeyHitRate: 0.9},
		{Tenant: "t1", Served: 32, ModUps: 4, KeyHitRate: 0.9},
	}
	for name, bad := range map[string]*serveReport{
		"regression":    {Requests: 64, OpsPerSec: 10, CoalescingFactor: 4, KeyHitRate: 0.9, BitExact: true},
		"no-coalescing": {Requests: 64, OpsPerSec: 100, CoalescingFactor: 1, KeyHitRate: 0.9, BitExact: true},
		"cold-cache":    {Requests: 64, OpsPerSec: 100, CoalescingFactor: 4, KeyHitRate: 0.3, BitExact: true},
		"inexact":       {Requests: 64, OpsPerSec: 100, CoalescingFactor: 4, KeyHitRate: 0.9, BitExact: false},
		"over-budget": {Requests: 64, OpsPerSec: 100, CoalescingFactor: 4, KeyHitRate: 0.9, BitExact: true,
			KeyBudget: 100, KeyBytes: 101},
		"tenant-cold": {Requests: 64, OpsPerSec: 100, CoalescingFactor: 4, KeyHitRate: 0.9, BitExact: true,
			Tenants: []serveTenantReport{{Tenant: "t0", Served: 64, ModUps: 8, KeyHitRate: 0.2}}},
		"tenant-starved": {Requests: 64, OpsPerSec: 100, CoalescingFactor: 4, KeyHitRate: 0.9, BitExact: true,
			Tenants: []serveTenantReport{{Tenant: "t0", Served: 64, ModUps: 8, KeyHitRate: 0.9}, {Tenant: "t1", KeyHitRate: 0.9}}},
		"cross-tenant-coalesce": {Requests: 64, OpsPerSec: 100, CoalescingFactor: 4, ModUps: 8, KeyHitRate: 0.9, BitExact: true,
			Tenants: healthyTenants[:1]},
	} {
		p := dir + "/serve_" + name + ".json"
		writeServeReport(t, p, bad)
		if err := perfgatePaths(basePath, freshPath, 2, sBase, p, "", "", "", ""); err == nil {
			t.Errorf("%s: perfgate passed a degraded serve report", name)
		}
	}

	// A baseline with per-tenant stats pins them in the fresh report.
	tenantBase := dir + "/serve_tenant_base.json"
	writeServeReport(t, tenantBase, &serveReport{
		Requests: 64, OpsPerSec: 100, CoalescingFactor: 4, ModUps: 8,
		KeyHitRate: 0.9, BitExact: true, Tenants: healthyTenants,
	})
	if err := perfgatePaths(basePath, freshPath, 2, tenantBase, sOK, "", "", "", ""); err == nil {
		t.Error("perfgate passed a fresh report that dropped the tenant stats")
	}
	tenantOK := dir + "/serve_tenant_ok.json"
	writeServeReport(t, tenantOK, &serveReport{
		Requests: 64, OpsPerSec: 90, CoalescingFactor: 4, ModUps: 8,
		KeyHitRate: 0.9, BitExact: true, KeyBudget: 100, KeyBytes: 80,
		Tenants: healthyTenants,
	})
	if err := perfgatePaths(basePath, freshPath, 2, tenantBase, tenantOK, "", "", "", ""); err != nil {
		t.Errorf("perfgate failed a healthy multi-tenant report: %v", err)
	}
	// Shrinking the tenant matrix (2 -> 1) must fail the pinning check
	// even though the one remaining tenant looks healthy.
	shrunk := dir + "/serve_tenant_shrunk.json"
	writeServeReport(t, shrunk, &serveReport{
		Requests: 64, OpsPerSec: 90, CoalescingFactor: 4, ModUps: 4,
		KeyHitRate: 0.9, BitExact: true, Tenants: healthyTenants[:1],
	})
	if err := perfgatePaths(basePath, freshPath, 2, tenantBase, shrunk, "", "", "", ""); err == nil {
		t.Error("perfgate passed a fresh report with a shrunken tenant matrix")
	}

	// Half-specified serve gate flags and unreadable reports error out.
	if err := perfgatePaths(basePath, freshPath, 2, sBase, "", "", "", "", ""); err == nil {
		t.Error("half-specified serve gate accepted")
	}
	if err := perfgatePaths(basePath, freshPath, 2, sBase, dir+"/missing.json", "", "", "", ""); err == nil {
		t.Error("missing fresh serve report accepted")
	}
	if err := perfgatePaths(basePath, freshPath, 2, dir+"/missing.json", sOK, "", "", "", ""); err == nil {
		t.Error("missing serve baseline accepted")
	}
	empty := dir + "/serve_empty.json"
	writeServeReport(t, empty, &serveReport{})
	if err := perfgatePaths(basePath, freshPath, 2, empty, sOK, "", "", "", ""); err == nil {
		t.Error("empty serve baseline accepted")
	}
}

func testWorkloadConfig() workloadConfig {
	return workloadConfig{
		workload: "bootstrap", bts: 2, dfName: "all",
		logN: 5, towers: 4, workers: 2,
	}
}

// TestWorkloadRunBootstrap replays a tiny BTS-shaped bootstrap
// schedule and checks the tentpole invariant: the measured serve
// counters equal the schedule DAG's predictions exactly, the replay
// is bit-exact with serial execution, and the hoist groups coalesced.
func TestWorkloadRunBootstrap(t *testing.T) {
	rep, err := workloadRun(testWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dnum != 2 {
		t.Fatalf("dnum %d: -workload bootstrap -bts 2 must inherit BTS2's digit count", rep.Dnum)
	}
	if rep.Dataflow != "MP" {
		t.Fatalf("dataflow %q: -dataflow all must select MP for replay", rep.Dataflow)
	}
	p := rep.Predicted
	if rep.Served != uint64(p.Switches) || rep.ModUps != uint64(p.ModUps) ||
		rep.Coalesced != uint64(p.Coalesced) {
		t.Fatalf("measured (%d, %d, %d) != predicted (%d, %d, %d)",
			rep.Served, rep.ModUps, rep.Coalesced, p.Switches, p.ModUps, p.Coalesced)
	}
	if p.Relins != 1 || p.Depth < 3 {
		t.Fatalf("bootstrap schedule shape implausible: %+v", p)
	}
	if err := workloadCheck(rep); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadRunMatvec(t *testing.T) {
	cfg := testWorkloadConfig()
	cfg.workload, cfg.rotations, cfg.giants = "matvec", 4, 3
	cfg.dfName, cfg.dnum = "oc", 2
	rep, err := workloadRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 babies + 2 giants; 1 baby ModUp + 2 giant ModUps.
	if rep.Served != 5 || rep.ModUps != 3 || rep.Coalesced != 3 {
		t.Fatalf("matvec counters: %+v", rep)
	}
	if err := workloadCheck(rep); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadCheckRejects(t *testing.T) {
	good, err := workloadRun(testWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*workloadReport){
		"inexact":    func(r *workloadReport) { r.BitExact = false },
		"drift":      func(r *workloadReport) { r.CountsExact = false },
		"dep-order":  func(r *workloadReport) { r.DepViolations = 1 },
		"no-coalesc": func(r *workloadReport) { r.HoistCoalescingFactor = 1 },
	} {
		rep := *good
		mut(&rep)
		if workloadCheck(&rep) == nil {
			t.Errorf("%s: degraded workload report accepted", name)
		}
	}
	// The coalescing-factor check only applies to schedules with
	// hoistable fan-out: an honest evalmod-style report (zero hoist
	// groups, nothing coalesced) must pass, not trip the factor gate.
	chain := *good
	chain.Predicted.HoistGroups = 0
	chain.Predicted.Coalesced = 0
	chain.HoistCoalescingFactor = 0
	if err := workloadCheck(&chain); err != nil {
		t.Errorf("hoist-free report rejected: %v", err)
	}
}

func TestWorkloadRunErrors(t *testing.T) {
	for name, mut := range map[string]func(*workloadConfig){
		"workload": func(c *workloadConfig) { c.workload = "nope" },
		"bts":      func(c *workloadConfig) { c.bts = 9 },
		"logn":     func(c *workloadConfig) { c.logN = 3 },
		"radix":    func(c *workloadConfig) { c.radix = 3 },
		"dnum":     func(c *workloadConfig) { c.dnum = 9 },
		"dataflow": func(c *workloadConfig) { c.dfName = "nope" },
		"matvec-n1": func(c *workloadConfig) {
			c.workload, c.rotations, c.giants = "matvec", 1, 2
		},
	} {
		cfg := testWorkloadConfig()
		mut(&cfg)
		if _, err := workloadRun(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestServeWorkloadVerb(t *testing.T) {
	jsonPath := t.TempDir() + "/workload.json"
	args := []string{"serve", "-workload", "bootstrap", "-bts", "1",
		"-logn", "5", "-towers", "4", "-workers", "2",
		"-check", "-json", jsonPath}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	var rep workloadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Served == 0 || !rep.BitExact || !rep.CountsExact || rep.BTS != 1 {
		t.Fatalf("implausible workload report: %+v", rep)
	}
	// BTS1 has dnum 1; with 4 towers over 3 P moduli the inherited
	// digit count is raised to 2 so ModUp's digits stay coverable.
	if rep.Dnum != 2 {
		t.Fatalf("dnum %d, want BTS1's 1 clamped to 2", rep.Dnum)
	}
	// An explicit -dnum wins over the BTS set (matvec stays at the
	// top level, where 3 digits over 5 towers are valid).
	args = []string{"serve", "-workload", "matvec", "-bts", "1", "-dnum", "3",
		"-rotations", "4", "-requests", "3",
		"-logn", "5", "-towers", "5", "-workers", "2", "-json", jsonPath}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Dnum != 3 {
		t.Fatalf("dnum %d, want the explicit 3", rep.Dnum)
	}
}

func TestScheduleVerb(t *testing.T) {
	jsonPath := t.TempDir() + "/schedule.json"
	for _, args := range [][]string{
		{"schedule", "-workload", "bootstrap", "-bts", "2", "-json", jsonPath},
		{"schedule", "-workload", "matvec", "-rotations", "8", "-requests", "4"},
		{"schedule", "-workload", "fanout"},
		{"schedule", "-workload", "bootstrap", "-bts", "3", "-radix", "16"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	var rep scheduleReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Bench != "BTS2" || rep.Counts.Switches == 0 || len(rep.Estimates) != 3 {
		t.Fatalf("implausible schedule report: %+v", rep)
	}
	// The estimate prices the DAG's hoist groups: the hoisted total
	// must undercut the plain one.
	for _, e := range rep.Estimates {
		if e.HoistSavedModUps == 0 || !(e.HoistedTotalSec < e.TotalSec) {
			t.Fatalf("estimate did not price shared ModUps: %+v", e)
		}
	}
}

func TestScheduleVerbErrors(t *testing.T) {
	for _, args := range [][]string{
		{"schedule", "-workload", "nope"},
		{"schedule", "-bts", "7"},
		{"schedule", "-workload", "bootstrap", "-radix", "5"},
		{"schedule", "-workload", "matvec", "-rotations", "1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func writeWorkloadReport(t *testing.T, path string, rep *workloadReport) {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPerfgateWorkload(t *testing.T) {
	dir := t.TempDir()
	basePath := dir + "/thr_base.json"
	writeReport(t, basePath, &throughputReport{
		BitExact: true,
		Results:  []throughputRow{{Dataflow: "serial", OpsPerSec: 100}},
	})

	healthy := func() *workloadReport {
		rep := &workloadReport{
			Schedule: "bootstrap", OpsPerSec: 100,
			Served: 73, ModUps: 33, Coalesced: 44,
			CountsExact: true, BitExact: true,
			HoistCoalescingFactor: 11,
		}
		rep.Predicted.Switches = 73
		rep.Predicted.ModUps = 33
		rep.Predicted.HoistGroups = 4
		rep.Predicted.Depth = 9
		return rep
	}
	wBase := dir + "/workload_base.json"
	writeWorkloadReport(t, wBase, healthy())
	wOK := dir + "/workload_ok.json"
	ok := healthy()
	ok.OpsPerSec = 51
	writeWorkloadReport(t, wOK, ok)
	if err := perfgatePaths(basePath, basePath, 2, "", "", wBase, wOK, "", ""); err != nil {
		t.Fatalf("perfgate failed on a healthy workload report: %v", err)
	}

	for name, mut := range map[string]func(*workloadReport){
		"regression": func(r *workloadReport) { r.OpsPerSec = 10 },
		"inexact":    func(r *workloadReport) { r.BitExact = false },
		"drift": func(r *workloadReport) {
			r.CountsExact = false
			r.Mismatches = []string{"mod_ups: measured 34, schedule predicts 33"}
		},
		"dep-order": func(r *workloadReport) { r.DepViolations = 2 },
		"no-hoist":  func(r *workloadReport) { r.Predicted.HoistGroups = 0 },
		"no-coalescing": func(r *workloadReport) {
			r.HoistCoalescingFactor = 1
		},
		// The baseline pins the schedule shape: a smaller, flatter,
		// or shallower fresh schedule must fail even when its own
		// internal invariants hold.
		"shrunk-schedule": func(r *workloadReport) { r.Predicted.Switches = 10 },
		"flat-schedule":   func(r *workloadReport) { r.Predicted.HoistGroups = 2 },
		"shallow-schedule": func(r *workloadReport) {
			r.Predicted.Depth = 1
		},
	} {
		bad := healthy()
		mut(bad)
		p := dir + "/workload_" + name + ".json"
		writeWorkloadReport(t, p, bad)
		if err := perfgatePaths(basePath, basePath, 2, "", "", wBase, p, "", ""); err == nil {
			t.Errorf("%s: perfgate passed a degraded workload report", name)
		}
	}

	// Half-specified flags, unreadable and empty reports error out.
	if err := perfgatePaths(basePath, basePath, 2, "", "", wBase, "", "", ""); err == nil {
		t.Error("half-specified workload gate accepted")
	}
	if err := perfgatePaths(basePath, basePath, 2, "", "", wBase, dir+"/missing.json", "", ""); err == nil {
		t.Error("missing fresh workload report accepted")
	}
	if err := perfgatePaths(basePath, basePath, 2, "", "", dir+"/missing.json", wOK, "", ""); err == nil {
		t.Error("missing workload baseline accepted")
	}
	empty := dir + "/workload_empty.json"
	writeWorkloadReport(t, empty, &workloadReport{})
	if err := perfgatePaths(basePath, basePath, 2, "", "", empty, wOK, "", ""); err == nil {
		t.Error("empty workload baseline accepted")
	}
}

// TestHelpMatchesREADME diffs the `ciflow help` output against
// README.md and the package doc comment: every experiment and every
// flag the binary defines must be documented in both, so the CLI and
// the docs cannot drift apart.
func TestHelpMatchesREADME(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf, newFlags())
	help := buf.String()

	readmeBytes, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(readmeBytes)
	mainBytes, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	docComment := string(mainBytes)

	// Word-boundary match: a bare substring check would let "-fresh"
	// ride on "-serve-fresh" and hide real docs drift.
	mentions := func(text, flagName string) bool {
		re := regexp.MustCompile(`(^|[^-\w])-` + regexp.QuoteMeta(flagName) + `\b`)
		return re.MatchString(text)
	}
	fl := newFlags()
	fl.fs.VisitAll(func(f *flag.Flag) {
		if !mentions(help, f.Name) {
			t.Errorf("flag -%s missing from ciflow help output", f.Name)
		}
		if !mentions(readme, f.Name) {
			t.Errorf("flag -%s not documented in README.md", f.Name)
		}
		if !mentions(docComment, f.Name) {
			t.Errorf("flag -%s not documented in the main.go doc comment", f.Name)
		}
	})
	for _, e := range experiments {
		if !strings.Contains(help, e.name) {
			t.Errorf("experiment %q missing from ciflow help output", e.name)
		}
		if !strings.Contains(readme, e.name) {
			t.Errorf("experiment %q not documented in README.md", e.name)
		}
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("ciflow help: %v", err)
	}
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("ciflow -h: %v", err)
	}
}

// perfgatePaths adapts the historical positional call sites of these
// tests to perfgateConfig; the order mirrors the gate's layer order
// (throughput, serve, workload, cluster). The scenario pair reuses the
// workload gate and is exercised directly in TestPerfgateScenario.
func perfgatePaths(base, fresh string, maxReg float64, sBase, sFresh, wBase, wFresh, cBase, cFresh string) error {
	return perfgate(perfgateConfig{
		Baseline: base, Fresh: fresh, MaxRegression: maxReg,
		ServeBaseline: sBase, ServeFresh: sFresh,
		WorkloadBaseline: wBase, WorkloadFresh: wFresh,
		ClusterBaseline: cBase, ClusterFresh: cFresh,
	})
}
