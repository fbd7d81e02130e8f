package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is what the driver reads and the tables in
// metrics.go and workloads.go are what the program prints: they must
// say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./bench" || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if float64(b.RunSeconds) != defaultConfig().seconds {
		t.Errorf("run_seconds %d, but the program's default window is %gs", b.RunSeconds, defaultConfig().seconds)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q breaks the naming contract", w.Name)
		}
		seen[w.Name] = true
	}

	check := func(kind string, declared []jsonMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(defs))
		}
		for i, m := range declared {
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s metric %d: declared %+v, implemented %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] ||
				(m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %q breaks the naming contract", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	setup := endToEnd[0]
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("%s: bound %g outside (0, 0.25] or above setup_s's", d.Name, d.Bound)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", setup)
	}
}

// layersOf lists the layer prefixes a workload's traced run must
// report and, by omission, the ones it must leave out.
var layersOf = map[string][]string{
	"switch_direct":     {"mod", "ntt", "bconv", "ring", "hks", "engine", "obs", "params", "dataflow"},
	"serve_fanout":      {"mod", "ntt", "bconv", "ring", "hks", "engine", "obs", "params", "dataflow", "ckks", "serve"},
	"serve_unshared":    {"mod", "ntt", "bconv", "ring", "hks", "engine", "obs", "params", "dataflow", "ckks", "serve"},
	"replay_bootstrap":  {"mod", "ntt", "bconv", "ring", "hks", "engine", "obs", "params", "dataflow", "ckks", "serve", "workload"},
	"cluster_bootstrap": {"mod", "ntt", "bconv", "ring", "hks", "engine", "obs", "params", "dataflow", "ckks", "serve", "workload", "cluster"},
}

// Every workload, both modes, on a small ring with a short window: the
// result line carries every declared metric once, finite, with its
// declared unit, and nothing else; the table prints only declared
// names, each at most once, and only for the layers the workload
// touches; outputs verify and no operation fails.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			name := def.Name + "/end_to_end"
			defs := endToEnd
			if traced {
				name, defs = def.Name+"/per_layer", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := defaultConfig()
				cfg.workload, cfg.trace = def.Name, traced
				cfg.logN, cfg.seconds, cfg.setups, cfg.probeReps, cfg.outDir = 10, 0.3, 1, 1, t.TempDir()
				var out bytes.Buffer
				rep, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if rep.digest == "" {
					t.Error("no output digest")
				}

				line := rep.resultLine()
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct %v attempted %d failed %d", line.Correct, line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("result line has %d metrics, %d declared", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: present %v, value %g, unit %q (declared %q)", d.Name, ok, m.Value, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end %s = %g, must never be 0", d.Name, m.Value)
					}
				}

				// The table: one row per measured metric.
				declared := map[string]metricDef{}
				for _, d := range defs {
					declared[d.Name] = d
				}
				printed := map[string]int{}
				for _, row := range strings.Split(out.String(), "\n") {
					f := strings.Fields(row)
					if len(f) < 3 {
						continue
					}
					if d, ok := declared[f[0]]; ok {
						printed[f[0]]++
						if f[2] != d.Unit {
							t.Errorf("%s printed with unit %q, declared %q", f[0], f[2], d.Unit)
						}
					} else if _, err := strconv.ParseFloat(f[1], 64); err == nil && strings.Contains(f[0], ".") {
						t.Errorf("undeclared metric %q printed", f[0])
					}
				}
				for n, c := range printed {
					if c != 1 {
						t.Errorf("%s printed %d times", n, c)
					}
				}
				if !traced {
					if len(printed) != len(defs) {
						t.Errorf("printed %d of %d end-to-end metrics", len(printed), len(defs))
					}
					return
				}
				touched := map[string]bool{}
				for _, l := range layersOf[def.Name] {
					touched[l] = true
				}
				for _, d := range defs {
					layer, _, hasLayer := strings.Cut(d.Name, ".")
					if !hasLayer {
						continue // client-side numbers: op_p90_ms needs 100 operations, more than this window holds
					}
					if printed[d.Name] == 1 && !touched[layer] {
						t.Errorf("%s printed on a workload that does not touch %s", d.Name, layer)
					}
					if printed[d.Name] == 0 && touched[layer] && d.Name != "serve.req_p99_ms" && d.Name != "serve.overhead_x" {
						t.Errorf("%s missing on a workload that touches %s", d.Name, layer)
					}
				}
			})
		}
	}
}
