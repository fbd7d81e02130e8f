package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ciflow/internal/analysis"
	"ciflow/internal/cluster"
	"ciflow/internal/obs"
	"ciflow/internal/serve"
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
		{"table5", "-bench", "ARK"}, // a verb that takes no benchmark accepts a valid one
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// parseCSV reads out as CSV, `# title` lines aside, and returns the
// records; tables of different widths may follow one another.
func parseCSV(t *testing.T, out []byte) [][]string {
	t.Helper()
	rd := csv.NewReader(bytes.NewReader(out))
	rd.Comment = '#'
	rd.FieldsPerRecord = -1
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("not CSV: %v\n%s", err, out)
	}
	return recs
}

// TestEveryVerbHonoursCSV: under -csv each of the 15 experiments
// prints CSV and nothing else — a single table exactly its header and
// records, several tables each behind one `# title` line — and `ciflow
// all -csv` is CSV end to end, one titled table per table of the text
// form.
func TestEveryVerbHonoursCSV(t *testing.T) {
	numeric := regexp.MustCompile(`^(-?[0-9]+(\.[0-9]{4})?|true|false)?$`)
	for _, e := range analysis.Experiments {
		out := stdoutOf(t, e.Name, "-csv")
		recs := parseCSV(t, out)
		if len(recs) < 2 {
			t.Errorf("%s -csv printed %d records", e.Name, len(recs))
		}
		titles := bytes.Count(out, []byte("# "))
		switch e.Name {
		case "roofline":
			if titles != 3 {
				t.Errorf("roofline -csv: %d title lines, want one per table (3)", titles)
			}
		case "fig9":
			if titles != 3 { // the first table's title spans two lines
				t.Errorf("fig9 -csv: %d title lines, want 2+1", titles)
			}
		default:
			if titles != 0 {
				t.Errorf("%s -csv is one table and must print no title line:\n%s", e.Name, out)
			}
		}
		// Past the label columns every field is a number, a boolean
		// or empty: no ASCII table leaked through.
		for _, rec := range recs {
			if strings.Contains(strings.Join(rec, ""), "  ") {
				t.Errorf("%s -csv: padded text in record %q", e.Name, rec)
			}
		}
		if last := recs[len(recs)-1]; !numeric.MatchString(last[len(last)-1]) && e.Name != "roofline" {
			t.Errorf("%s -csv: last field of %q is not a value", e.Name, last)
		}
	}

	out := stdoutOf(t, "all", "-csv")
	parseCSV(t, out)
	text := stdoutOf(t, "all")
	// A `# ` line per line of title: 9 tables with a one-line title
	// (Figure 4 has a panel per benchmark, so 13), Figure 9's two with
	// three lines between them, Figures 5 and 6 with two each; the
	// area summary, which has none, goes under its registry summary.
	if got := len(regexp.MustCompile(`(?m)^# `).FindAll(out, -1)); got != 13+3+4+1 {
		t.Errorf("all -csv has %d title lines, want 21", got)
	}
	if !bytes.Contains(out, []byte("# SRAM/area saving summary")) || bytes.Contains(out, []byte("OCbase ")) {
		t.Errorf("all -csv: area untitled, or text tables mixed in")
	}
	if bytes.Contains(text, []byte("# ")) || !bytes.Contains(text, []byte("    OCbase ")) {
		t.Errorf("all without -csv is no longer the text form")
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"fig4", "-bench", "NOPE"},
		// -bench is resolved once, for every verb: one that takes no
		// benchmark still refuses a name that is not one.
		{"table5", "-bench", "nosuch"},
		{"all", "-bench", "nosuch"},
		{"serve", "-bench", "nosuch"},
		{"table2", "-mem", "1"}, // far below any benchmark's minimum
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// readReport loads a -json serve report back from disk.
func readReport(t *testing.T, path string) *serveReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	var rep serveReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestObservabilityFlags drives the -profile/-trace/-pprof/-dot
// wiring end to end through the CLI dispatch: an in-process two-tenant
// replay of a committed scenario gains stage_shares and phases, the
// trace and pprof artifacts appear on disk, the trace holds the serve
// groups on the serve track and the key-switching tiles hks ran on the
// engine on the worker track, and the schedule DAG renders as DOT.
func TestObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	jsonPath := dir + "/serve.json"
	tracePath := dir + "/trace.json"
	args := []string{"serve", "-workload", "file:" + pirGolden, "-tenants", "2",
		"-dataflow", "oc", "-workers", "2", "-logn", "5", "-towers", "6", "-dnum", "2",
		"-profile", "-trace", tracePath, "-pprof", dir + "/prof",
		"-json", jsonPath, "-check"}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	// -check held the trace and the stage shares to checkObs; only the
	// sanity bound applies: at this scale (N=32) a descheduled goroutine
	// moves the sum far below what the goroutines could fill, so
	// closure is the benchmark's business (obs.stage_share_sum,
	// hks.stage_sum_over_switch).
	if rep := readReport(t, jsonPath); len(rep.StageShares) == 0 {
		t.Fatal("no stage shares under -profile")
	}
	if !hasLaneSpan(t, tracePath, "serve-", "group/") {
		t.Error("trace holds no group/ span on a serve lane")
	}
	if !hasLaneSpan(t, tracePath, "worker-", "apply", "oc", "modup") {
		t.Error("trace holds no key-switching tile span on a worker lane")
	}
	for _, prof := range []string{"/prof/cpu.prof", "/prof/mem.prof"} {
		if _, err := os.Stat(dir + prof); err != nil {
			t.Errorf("pprof artifact missing: %v", err)
		}
	}
	if obs.Active() != nil {
		t.Error("profiling left enabled after the run")
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

// hasLaneSpan reports whether the trace-event timeline at path holds a
// span named with one of prefixes on a lane named with lane: a serve
// group's ("group/<tenant>") on a "serve-N" lane, a plan group's tile
// ("oc", "modup.prep", ...) on a "worker-N" lane.
func hasLaneSpan(t *testing.T, path, lane string, prefixes ...string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	onLane := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		if name, _ := ev.Args["name"].(string); ev.Ph == "M" && strings.HasPrefix(name, lane) {
			onLane[ev.Tid] = true
		}
	}
	for _, ev := range tf.TraceEvents {
		for _, p := range prefixes {
			if ev.Ph == "X" && onLane[ev.Tid] && strings.HasPrefix(ev.Name, p) {
				return true
			}
		}
	}
	return false
}

// testServeConfig is the default shape on a tiny ring: two fan-out
// bursts of three rotations, one tenant, in-process, under the
// -dataflow default.
func testServeConfig() serveConfig {
	return serveConfig{
		fabricFlags: fabricFlags{logN: 5, towers: 4, dnum: 2, workers: 2, tenants: 1},
		shapeFlags:  shapeFlags{workload: "fanout", bts: 2, rotations: 3, requests: 2},
		dfName:      newFlags().serve.dfName,
	}
}

// exactBooks asserts the report's books equal tenants x its schedule's
// prediction.
func exactBooks(t *testing.T, rep *serveReport) {
	t.Helper()
	p, n := rep.Predicted, uint64(rep.Tenants)
	if rep.Served != n*uint64(p.Switches) || rep.ModUps != n*uint64(p.ModUps) ||
		rep.Coalesced != n*uint64(p.Coalesced) {
		t.Fatalf("measured (%d, %d, %d) != %d x predicted (%d, %d, %d)",
			rep.Served, rep.ModUps, rep.Coalesced, n, p.Switches, p.ModUps, p.Coalesced)
	}
	if err := serveCheck(rep); err != nil {
		t.Fatal(err)
	}
}

func TestServeRun(t *testing.T) {
	rep, err := serveRun(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedule != "fanout-2x3" || rep.Shards != 0 || rep.Drained != -1 {
		t.Fatalf("unexpected run shape: %+v", rep)
	}
	exactBooks(t, rep)
	if rep.Served != 2*3 {
		t.Fatalf("served %d requests, want 6", rep.Served)
	}
	if rep.HoistCoalescingFactor <= 1 {
		t.Fatalf("coalescing factor %.2f, want > 1", rep.HoistCoalescingFactor)
	}
	if rep.OpsPerSec <= 0 || rep.P50Ms < 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("implausible report %+v", rep)
	}
	if rep.KeyBudget <= 0 || rep.KeyBytes <= 0 || rep.KeyBytes > rep.KeyBudget {
		t.Fatalf("implausible key residency: %d of %d bytes", rep.KeyBytes, rep.KeyBudget)
	}
}

// TestServeRunMultiTenant replays for two tenants at once through the
// one service and checks the keyspace invariants: per-tenant books
// present and each equal to the prediction, ModUps never shared across
// tenants, resident key bytes within the explicit budget.
func TestServeRunMultiTenant(t *testing.T) {
	cfg := testServeConfig()
	cfg.tenants, cfg.requests = 2, 4
	cfg.keyBudget = 64 << 20
	rep, err := serveRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exactBooks(t, rep)
	if len(rep.TenantStats) != 2 {
		t.Fatalf("%d tenant rows, want 2", len(rep.TenantStats))
	}
	if rep.KeyBudget != cfg.keyBudget || rep.KeyBytes > rep.KeyBudget {
		t.Fatalf("resident %d of budget %d, want the explicit %d", rep.KeyBytes, rep.KeyBudget, cfg.keyBudget)
	}
	var modUps uint64
	for _, ts := range rep.TenantStats {
		if ts.Served != uint64(rep.Predicted.Switches) {
			t.Fatalf("tenant %s served %d, want %d", ts.Tenant, ts.Served, rep.Predicted.Switches)
		}
		modUps += ts.ModUps
	}
	if modUps != rep.ModUps {
		t.Fatalf("per-tenant ModUps sum %d != global %d: groups crossed tenants", modUps, rep.ModUps)
	}
}

// TestServeRunErrors: every refusal comes back as an error, and before
// the first side effect — no profile directory, no trace file, the
// global recorder untouched.
func TestServeRunErrors(t *testing.T) {
	dir := t.TempDir()
	for name, mut := range map[string]func(*serveConfig){
		"tenants":  func(c *serveConfig) { c.tenants = 0 },
		"bursts":   func(c *serveConfig) { c.requests = 0 },
		"rot":      func(c *serveConfig) { c.rotations = 0 },
		"logn":     func(c *serveConfig) { c.logN = 3 },
		"dataflow": func(c *serveConfig) { c.dfName = "nope" },
		"all":      func(c *serveConfig) { c.dfName = "all" },
		"budget":   func(c *serveConfig) { c.keyBudget = -1 },
		"shards":   func(c *serveConfig) { c.shards = -1 },
		"kill":     func(c *serveConfig) { c.shards, c.kill = 1, true },
		"trace":    func(c *serveConfig) { c.shards = 2 }, // -trace is set below
	} {
		cfg := testServeConfig()
		cfg.profile, cfg.tracePath, cfg.pprofDir = true, dir+"/trace.json", dir+"/prof"
		mut(&cfg)
		if _, err := serveRun(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("a refused run left %d files behind", len(left))
	}
	if obs.Active() != nil {
		t.Error("a refused run left profiling enabled")
	}
}

func TestServeVerb(t *testing.T) {
	jsonPath := t.TempDir() + "/serve.json"
	args := []string{"serve", "-rotations", "3", "-requests", "2",
		"-logn", "5", "-towers", "4", "-dnum", "2", "-workers", "2",
		"-check", "-json", jsonPath}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if rep := readReport(t, jsonPath); rep.Served == 0 || !rep.BitExact || rep.Workload != "fanout" {
		t.Fatalf("implausible serve report: %+v", rep)
	}
}

func testWorkloadConfig() serveConfig {
	cfg := testServeConfig()
	cfg.workload, cfg.dnum = "bootstrap", 0
	return cfg
}

// TestWorkloadRunBootstrap replays a tiny BTS-shaped bootstrap
// schedule and checks the tentpole invariant: the measured serve
// counters equal the schedule DAG's predictions exactly, the replay
// is bit-exact with serial execution, and the hoist groups coalesced.
func TestWorkloadRunBootstrap(t *testing.T) {
	rep, err := serveRun(testWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dnum != 2 {
		t.Fatalf("dnum %d: -workload bootstrap -bts 2 must inherit BTS2's digit count", rep.Dnum)
	}
	if rep.Dataflow != "MP" {
		t.Fatalf("dataflow %q: the -dataflow default must select MP for replay", rep.Dataflow)
	}
	exactBooks(t, rep)
	if p := rep.Predicted; p.Relins != 1 || p.Depth < 3 {
		t.Fatalf("bootstrap schedule shape implausible: %+v", p)
	}
}

func TestWorkloadRunMatvec(t *testing.T) {
	cfg := testWorkloadConfig()
	cfg.workload, cfg.rotations, cfg.requests = "matvec", 4, 3
	cfg.dfName, cfg.dnum = "oc", 2
	rep, err := serveRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 babies + 2 giants; 1 baby ModUp + 2 giant ModUps.
	if rep.Served != 5 || rep.ModUps != 3 || rep.Coalesced != 3 {
		t.Fatalf("matvec counters: %+v", rep)
	}
	exactBooks(t, rep)
}

// TestWorkloadCheckRejects: every clause of the one -check refuses a
// report that breaks it, in the mode it applies to.
func TestWorkloadCheckRejects(t *testing.T) {
	good, err := serveRun(testWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharded := *good
	sharded.Shards = 2
	sharded.Delivered = uint64(good.Predicted.Switches)
	sharded.CompletedSum = sharded.Delivered
	if err := serveCheck(&sharded); err != nil {
		t.Fatalf("healthy sharded report rejected: %v", err)
	}
	for name, mut := range map[string]func(*serveReport){
		"inexact":      func(r *serveReport) { r.BitExact = false },
		"drift":        func(r *serveReport) { r.CountsExact = false },
		"dep-order":    func(r *serveReport) { r.DepViolations = 1 },
		"books":        func(r *serveReport) { r.BooksExact = false },
		"no-coalesc":   func(r *serveReport) { r.HoistCoalescingFactor = 1 },
		"lost-result":  func(r *serveReport) { r.Delivered-- },
		"double-count": func(r *serveReport) { r.CompletedSum++ },
		"other-kernel": func(r *serveReport) {
			r.PerShard = []cluster.ShardStatus{
				{Name: "s0", Stats: serve.Stats{Kernel: r.Kernel}},
				{Name: "s1", Stats: serve.Stats{Kernel: "other"}},
			}
		},
	} {
		rep := sharded
		mut(&rep)
		if serveCheck(&rep) == nil {
			t.Errorf("%s: degraded report accepted", name)
		}
	}
	// The coalescing-factor check only applies to schedules with
	// hoistable fan-out: an honest evalmod-style report (zero hoist
	// groups, nothing coalesced) must pass, not trip the factor gate.
	chain := *good
	chain.Predicted.HoistGroups = 0
	chain.Predicted.Coalesced = 0
	chain.HoistCoalescingFactor = 0
	if err := serveCheck(&chain); err != nil {
		t.Errorf("hoist-free report rejected: %v", err)
	}
}

func TestWorkloadRunErrors(t *testing.T) {
	for name, mut := range map[string]func(*serveConfig){
		"workload": func(c *serveConfig) { c.workload = "nope" },
		"bts":      func(c *serveConfig) { c.bts = 9 },
		"logn":     func(c *serveConfig) { c.logN = 3 },
		"radix":    func(c *serveConfig) { c.radix = 3 },
		"dnum":     func(c *serveConfig) { c.dnum = 9 },
		"dataflow": func(c *serveConfig) { c.dfName = "nope" },
		"matvec-n1": func(c *serveConfig) {
			c.workload, c.rotations, c.requests = "matvec", 1, 2
		},
	} {
		cfg := testWorkloadConfig()
		mut(&cfg)
		if _, err := serveRun(cfg); err == nil {
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
	rep := readReport(t, jsonPath)
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
	if rep = readReport(t, jsonPath); rep.Dnum != 3 {
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

// TestHelpMatchesREADME diffs the `ciflow help` output against
// README.md: every experiment and every flag the binary defines must
// be documented there, so the CLI and the docs cannot drift apart.
func TestHelpMatchesREADME(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf, newFlags())
	help := buf.String()

	readmeBytes, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(readmeBytes)

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
	})
	// The README's CLI table is the help catalog: one row per
	// registry experiment and per verb, in that order.
	var names []string
	for _, e := range analysis.Experiments {
		names = append(names, e.Name)
	}
	for _, v := range verbs {
		names = append(names, v.name)
	}
	var rows []string
	summary := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\| (.*) \\|$").FindAllStringSubmatch(
		readme[strings.Index(readme, "| Experiment |"):strings.Index(readme, "| Flag |")], -1) {
		rows = append(rows, m[1])
		summary[m[1]] = strings.ReplaceAll(m[2], "`", "")
	}
	if !slices.Equal(rows, names) {
		t.Errorf("README.md CLI table lists\n%v\nthe registry and the verbs are\n%v", rows, names)
	}
	// An experiment's row is its registry summary, and the -bench row
	// names exactly the experiments that take a benchmark.
	benchRow := regexp.MustCompile("(?m)^\\| `-bench` \\|.*$").FindString(readme)
	for _, e := range analysis.Experiments {
		if summary[e.Name] != e.Desc {
			t.Errorf("README.md describes %s as %q, the registry as %q", e.Name, summary[e.Name], e.Desc)
		}
		if takes := e.Bench.Name != ""; strings.Contains(benchRow, "`"+e.Name+"`") != takes {
			t.Errorf("README.md -bench row and the registry disagree on whether %s takes a benchmark (%v)", e.Name, takes)
		}
	}
	for _, name := range names {
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + ` `).MatchString(help) {
			t.Errorf("experiment %q missing from ciflow help output", name)
		}
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("ciflow help: %v", err)
	}
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("ciflow -h: %v", err)
	}
}
