package main

// The schedule experiment prints a workload schedule DAG at the
// paper's canonical geometry — without executing anything. For
// `-workload bootstrap` that is the CoeffToSlot/SlotToCoeff pipeline
// of a BTS parameter set over its own 2^16 slots and KL levels; for
// matvec/fanout, the BSGS and burst shapes at the set's top level;
// for pir/private-inference/evalmod, the library shapes at the same
// geometry. It reports the exact counts the DAG predicts for any
// correct executor (switches per level, ModUps with and without
// hoisting, per-level coalesces) next to the analysis model's cost
// estimate, which prices the same schedule's shared-ModUp savings
// through analysis.EstimateWorkload — the exact-counts / modeled-cost
// pair the dataflow analysis is about.
//
// -export FILE writes the schedule as versioned JSON (the canonical
// byte-stable form the testdata goldens pin); -workload file:FILE loads
// and fully re-validates one instead of generating, so export→import is
// a lossless round trip and a hand-written DAG is either rejected with
// a precise structural error or printed/priced/replayed like any
// generated schedule.

import (
	"cmp"
	"fmt"
	"os"
	"strings"

	"ciflow/internal/analysis"
	"ciflow/internal/params"
	"ciflow/internal/workload"
)

// scheduleReport is the JSON artifact of `ciflow schedule -json`.
type scheduleReport struct {
	Workload  string                      `json:"workload"`
	Bench     string                      `json:"bench"`
	Radix     int                         `json:"radix"`
	Schedule  string                      `json:"schedule"`
	Counts    workload.Counts             `json:"counts"`
	Estimates []analysis.WorkloadEstimate `json:"estimates"`
}

// geometry is the ring a schedule shape is laid out on: 2^(logN−1)
// slots and the levels top…0. `serve` passes its replay ring's;
// `schedule` passes a BTS parameter set's own, with bench set, so
// bootstrap there is that set's canonical schedule under its name.
type geometry struct {
	logN, top int
	bench     *params.Benchmark
}

// scheduleFor resolves -workload on g, for `schedule` and `serve`
// alike: a library shape sized by -radix/-rotations/-requests, or
// file:<path> — a versioned JSON schedule, imported and fully
// re-validated. A replay ring refuses, by node, a file that needs a
// level it lacks; the cost model prices every node at its set's
// per-switch cost whatever the level, so `schedule` takes any file.
func scheduleFor(name string, g geometry, radix, rotations, requests int) (*workload.Schedule, error) {
	if path, ok := strings.CutPrefix(name, "file:"); ok {
		s, err := workload.ImportFile(path)
		if err != nil {
			return nil, err
		}
		if g.bench != nil {
			return s, nil
		}
		for _, n := range s.Nodes {
			if n.Level > g.top {
				return nil, fmt.Errorf("schedule %s: node %d runs at level %d but the replay ring tops out at level %d (raise -towers)",
					s.Name, n.ID, n.Level, g.top)
			}
		}
		return s, nil
	}
	switch name {
	case "bootstrap":
		if g.bench != nil {
			return workload.BootstrapBTS(*g.bench, radix)
		}
		return workload.Bootstrap(workload.BootstrapParams{LogSlots: g.logN - 1, Radix: radix, Top: g.top})
	case "matvec":
		return workload.Matvec(rotations, requests, g.top)
	case "fanout":
		return workload.Fanout(requests, rotations, g.top)
	case "pir":
		return workload.PIR(requests, rotations, g.top)
	case "private-inference":
		return workload.PrivateInference((g.top+1)/2, rotations, requests, g.top)
	case "evalmod":
		return workload.EvalMod(g.top+1, g.top)
	default:
		return nil, fmt.Errorf("unknown workload %q (want fanout, bootstrap, matvec, pir, private-inference, evalmod, or file:<path>)", name)
	}
}

// writeScheduleDOT renders a workload schedule DAG as a Graphviz
// digraph: one node per key switch, labelled with its stage, rotation,
// hoist group and level, followed by an edge from each of its
// dependencies, so the picture shows the hoist-group and dependency
// structure the replay executes.
func writeScheduleDOT(sched *workload.Schedule, path string) error {
	var sb strings.Builder
	sb.WriteString("digraph schedule {\n  rankdir=LR;\n")
	for i, nd := range sched.Nodes {
		label := cmp.Or(nd.Stage, nd.Kind.String())
		if nd.Kind == workload.Rotate {
			label += fmt.Sprintf(" r%d", nd.Rot)
		}
		fmt.Fprintf(&sb, "  t%d [label=%q];\n", i, fmt.Sprintf("%s g%d L%d", label, nd.Group, nd.Level))
		for _, d := range nd.Deps {
			fmt.Fprintf(&sb, "  t%d -> t%d;\n", d, i)
		}
	}
	sb.WriteString("}\n")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d nodes)\n", path, len(sched.Nodes))
	return nil
}

// scheduleConfig is the schedule verb's flags.
type scheduleConfig struct {
	shapeFlags
	exportPath string
	dotPath    string
}

func scheduleCmd(r *analysis.Runner, cfg scheduleConfig) error {
	b, err := workload.BTSBenchmark(cfg.bts)
	if err != nil {
		return err
	}
	// The -bts set anchors the cost-model pricing below, for a file:
	// schedule too.
	sched, err := scheduleFor(cfg.workload, geometry{logN: b.LogN, top: b.KL - 1, bench: &b}, cfg.radix, cfg.rotations, cfg.requests)
	if err != nil {
		return err
	}
	if cfg.exportPath != "" {
		if err := sched.ExportFile(cfg.exportPath); err != nil {
			return err
		}
		fmt.Printf("exported %s to %s\n", sched.Name, cfg.exportPath)
	}
	if cfg.dotPath != "" {
		if err := writeScheduleDOT(sched, cfg.dotPath); err != nil {
			return err
		}
	}
	c := sched.Counts()

	fmt.Printf("Schedule %s (%s geometry)\n", sched.Name, b.Name)
	fmt.Printf("%-28s %8d  (%d rotations, %d relins)\n", "key switches", c.Switches, c.Rotations, c.Relins)
	fmt.Printf("%-28s %8d  (hoisted; %d unhoisted)\n", "ModUp executions", c.ModUps, c.ModUpsUnhoisted)
	fmt.Printf("%-28s %8d  of width up to %d (%d requests coalesced)\n",
		"hoistable fan-out groups", c.HoistGroups, c.MaxWidth, c.Coalesced)
	fmt.Printf("%-28s %8.2fx  overall, %.2fx inside hoist groups\n",
		"predicted coalescing", c.CoalescingFactor(), c.HoistCoalescingFactor())
	fmt.Printf("%-28s %8d  switches\n", "dependency depth", c.Depth)
	fmt.Printf("%-28s %8d\n", "distinct evaluation keys", c.DistinctKeys)
	fmt.Println("per level (top first):")
	fmt.Printf("  %-8s %-10s %-10s %s\n", "level", "switches", "mod_ups", "coalesced")
	for _, lc := range c.PerLevel {
		fmt.Printf("  %-8d %-10d %-10d %d\n", lc.Level, lc.Switches, lc.ModUps, lc.Coalesced)
	}
	fmt.Println()

	// The model half: price the same schedule's key-switch volume —
	// its hoisted ModUp count included — on the RPU cost model at the
	// Table IV baseline bandwidth.
	w := analysis.Workload{Name: sched.Name, Rotations: c.Rotations, Mults: c.Relins, ModUps: c.ModUps}
	rows, err := r.EstimateWorkload(w, b, true, analysis.BaselineBandwidthGBs)
	if err != nil {
		return err
	}
	fmt.Print(analysis.WorkloadTable(analysis.BaselineBandwidthGBs, rows).Text())

	if cfg.jsonPath != "" {
		rep := &scheduleReport{
			Workload: cfg.workload, Bench: b.Name, Radix: sched.Radix,
			Schedule: sched.Name, Counts: c, Estimates: rows,
		}
		if err := writeJSONReport(cfg.jsonPath, rep); err != nil {
			return err
		}
	}
	return nil
}
