// Command ciflow regenerates the tables and figures of "CiFlow:
// Dataflow Analysis and Optimization of Key Switching for Homomorphic
// Encryption" (ISPASS 2024) from this repository's from-scratch
// reproduction, and drives its serving stack.
//
// Usage:
//
//	ciflow <experiment> [flags]
//
// The paper's experiments are table2 … table5, fig4 … fig9,
// ablate-keycomp, ablate-ocf and area (all runs them in paper order),
// with roofline and memory beside them: the registry of
// internal/analysis, each a table printed as text or, under -csv, as
// CSV. serve replays a workload schedule through the
// serving stack — one in-process service or spawned shard processes —
// and checks bit-exactness and exact counts; schedule prints a
// schedule's shape and modeled cost; shard is the backend of the
// sharded fabric as a standalone process.
//
// Run `ciflow help` for every experiment and flag with its default:
// that output is generated from the registry, the five verbs of
// flags.go and the flag set the dispatch reads, and README.md's CLI
// reference is tested against them.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"ciflow/internal/analysis"
	"ciflow/internal/hks"
	"ciflow/internal/params"
	"ciflow/internal/ring"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ciflow:", err)
		os.Exit(1)
	}
}

// cli is what a verb runs with: the parsed flags, the analysis runner
// configured from them, and -bench resolved (nil when not given).
type cli struct {
	fl    *cliFlags
	r     *analysis.Runner
	bench *params.Benchmark
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing experiment (try: ciflow help)")
	}
	verb := args[0]
	c := &cli{fl: newFlags(), r: analysis.NewRunner()}
	switch verb {
	case "-h", "-help", "--help":
		verb = "help"
	}
	// help takes no flags: whatever follows it is ignored.
	if verb != "help" {
		if err := c.fl.fs.Parse(args[1:]); err != nil {
			return err
		}
	}
	c.r.DataMemBytes = c.fl.memMiB << 20
	if name := c.fl.benchName; name != "" {
		b, err := params.ByName(name)
		if err != nil {
			return err
		}
		c.bench = &b
	}
	for _, e := range analysis.Experiments {
		if e.Name == verb {
			return c.model(e, false)
		}
	}
	for _, v := range verbs {
		if v.name == verb {
			return v.run(c)
		}
	}
	return fmt.Errorf("unknown experiment %q (try: ciflow help)", verb)
}

// model runs one experiment of the registry — at -bench, else at its
// own benchmark, else (under `all`, an experiment with a panel per
// benchmark) at each in turn — and prints its tables, as text or as
// CSV. Where the run prints more than one table, each CSV table
// follows a `# title` comment line.
func (c *cli) model(e analysis.Experiment, all bool) error {
	benches := []params.Benchmark{e.Bench}
	switch {
	case c.bench != nil:
		benches[0] = *c.bench
	case all:
		benches = e.Panels()
	}
	for i, b := range benches {
		tables, err := e.Run(c.r, b)
		if err != nil {
			return err
		}
		if e.Name == "ablate-keycomp" && !c.fl.csvOut {
			// The model says what compression buys at accelerator
			// scale; the note (text only, as notes are) is what the
			// hks types deliver in this process, which the model
			// packages do not import.
			note, err := keycompMeasured()
			if err != nil {
				return err
			}
			tables[0].Notes = append(tables[0].Notes, note)
		}
		if i > 0 {
			fmt.Println()
		}
		for _, t := range tables {
			if !c.fl.csvOut {
				fmt.Print(t.Text())
				continue
			}
			if all || len(tables) > 1 {
				title := t.Title
				if title == "" {
					title = e.Desc
				}
				fmt.Println("# " + strings.ReplaceAll(title, "\n", "\n# "))
			}
			fmt.Print(t.CSV())
		}
	}
	return nil
}

// runAll is the `all` verb: the registry in order, less the entries
// that are not the paper's own.
func runAll(c *cli) error {
	first := true
	for _, e := range analysis.Experiments {
		if e.Extra {
			continue
		}
		if !first {
			fmt.Println()
		}
		first = false
		if err := c.model(e, true); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONReport writes one experiment's report (indented JSON) to
// path and confirms it on stdout — the shared tail of every verb with
// a -json flag.
func writeJSONReport(path string, rep any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// keycompMeasured generates one real evaluation key and reports the
// two resident footprints the serving cache accounts: dense, and
// compressed (a-halves as seeds, b-halves packed at residue width).
func keycompMeasured() (string, error) {
	rg, err := ring.NewRingGenerated(1<<10, 6, 40, 3, 41)
	if err != nil {
		return "", err
	}
	sw, err := hks.NewSwitcher(rg, rg.NumQ-1, 3)
	if err != nil {
		return "", err
	}
	s := ring.NewSampler(rg, 1)
	full := rg.DBasis(rg.NumQ - 1)
	evk := sw.GenEvk(s, s.Ternary(full), s.Ternary(full))
	comp, ok := evk.Compress()
	if !ok {
		return "", fmt.Errorf("generated evk carries no seeds to compress")
	}
	dense, compressed := evk.SizeBytes(), comp.SizeBytes()
	return fmt.Sprintf("Measured (N=%d, %d towers, dnum=%d): dense evk %.2f MiB, compressed %.2f MiB (%.2fx)",
		rg.N, len(sw.DBasis()), sw.Dnum,
		float64(dense)/(1<<20), float64(compressed)/(1<<20), float64(dense)/float64(compressed)), nil
}
