// Command bench is the repository's one layered benchmark: five
// closed-loop workloads over the key-switching stack, five end-to-end
// metrics a caller would see, and a traced per-layer ladder from
// mod/ntt/bconv up to the cluster router. BENCHMARK.json at the
// repository root declares the workloads, metrics, units and regression
// bounds; README.md in this directory explains each of them.
//
//	go run ./bench -workload switch_direct                 end-to-end metrics
//	go run ./bench -workload serve_fanout -trace 1         per-layer metrics, span file
//	go run ./bench -workload all -sets 2                   two full sets, compared to the bounds
//
// Every run verifies its outputs off the clock, prints each metric by
// name with its unit, and ends with one JSON line: correct, attempted,
// failed, metrics. It exits non-zero when an output is wrong, an
// operation fails, or (with -sets) a bound is exceeded.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	cfg := defaultConfig()
	var trace, sets int
	flag.StringVar(&cfg.workload, "workload", "", "switch_direct, serve_fanout, serve_unshared, replay_bootstrap, cluster_bootstrap, or all")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "every input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
	flag.IntVar(&sets, "sets", 1, "with -workload all: run this many full sets and compare them to the bounds")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	if cfg.workload == "all" {
		err = runSets(cfg, sets, os.Stdout)
	} else {
		var rep *report
		rep, err = run(cfg, os.Stdout)
		if rep != nil {
			if perr := rep.printResultLine(os.Stdout); err == nil {
				err = perr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childResult is what runSets keeps of one child run.
type childResult struct {
	line   resultLine
	digest string
}

// runChild runs one workload in one mode in a process of its own, as
// the driver does, so peak memory and heap state do not leak from one
// run into the next. It waits for the child to exit.
func runChild(cfg config, trace bool) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s trace %s: %w", cfg.workload, t, err)
	}
	return parseChild(out)
}

func parseChild(out []byte) (childResult, error) {
	var res childResult
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res.line); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(string(l), "output_digest "); ok {
			res.digest = d
		}
	}
	return res, nil
}

// worse is how much of a the value b has lost, in a's direction of
// better: positive when b is worse.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSets runs sets full sets (every workload, untraced then traced)
// and prints each set's metrics side by side. With two or more sets it
// fails when a later set's end-to-end metric is worse than the first
// set's by more than the bound, when an exact count differs, or when
// an output digest differs.
func runSets(cfg config, sets int, w io.Writer) error {
	if sets < 1 {
		return fmt.Errorf("sets %d must be at least 1", sets)
	}
	type key struct {
		workload string
		traced   bool
	}
	results := map[key][]childResult{}
	for s := 0; s < sets; s++ {
		for _, def := range workloads {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.workload = def.Name
				fmt.Fprintf(w, "set %d: %s trace %v\n", s+1, def.Name, traced)
				res, err := runChild(c, traced)
				if err != nil {
					return err
				}
				k := key{def.Name, traced}
				results[k] = append(results[k], res)
			}
		}
	}

	var failures []string
	fmt.Fprintf(w, "\n%-18s %-28s %s\n", "workload", "metric", "per set, then worst difference from set 1 against the bound")
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			rs := results[key{def.Name, traced}]
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				first := rs[0].line.Metrics[d.Name].Value
				var vals []string
				var worst float64
				differs, measured := false, false
				for _, r := range rs {
					v := r.line.Metrics[d.Name].Value
					vals = append(vals, strconv.FormatFloat(v, 'g', 6, 64))
					worst = math.Max(worst, worse(d, first, v))
					differs = differs || v != first
					measured = measured || v != 0
				}
				if !measured {
					continue // a layer this workload does not touch
				}
				verdict, bad := "", false
				switch {
				case sets < 2:
				case d.Bound > 0:
					bad = worst > d.Bound
					verdict = fmt.Sprintf("%+.1f%% against a bound of %.0f%%", 100*worst, 100*d.Bound)
				case d.Exact:
					bad = differs
					verdict = "exact count"
				}
				if bad {
					verdict += "  FAILS"
					failures = append(failures, def.Name+" "+d.Name)
				}
				fmt.Fprintf(w, "%-18s %-28s %s %s  %s\n", def.Name, d.Name, strings.Join(vals, " "), d.Unit, verdict)
			}
			for _, r := range rs {
				if r.digest != rs[0].digest {
					failures = append(failures, def.Name+" output_digest")
				}
			}
		}
		fmt.Fprintf(w, "%-18s %-28s %s\n", def.Name, "output_digest", results[key{def.Name, false}][0].digest)
	}
	if len(failures) > 0 {
		return errors.New("sets disagree: " + strings.Join(failures, ", "))
	}
	return nil
}
