package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef declares one metric. BENCHMARK.json at the repository root
// repeats name, unit, direction and bound for the driver; a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the median a run may lose
	Exact  bool    // per-layer only: a count that must repeat exactly at one seed
}

// endToEnd is what a caller of the stack sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "switch_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_switch", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer is the traced ladder, layer.metric with layer = module
// name. A workload reports the layers it touches; the rest are left
// out of its table (and read 0 in the driver's result line, which
// wants every declared name).
var perLayer = []metricDef{
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc_kb_per_switch", Unit: "KB", Better: "lower"},

	{Name: "mod.mul_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ntt.fwd_us_per_tower", Unit: "us", Better: "lower"},
	{Name: "ntt.inv_us_per_tower", Unit: "us", Better: "lower"},
	{Name: "ntt.butterflies_per_tower", Unit: "count", Better: "lower", Exact: true},
	{Name: "bconv.modup_convert_us", Unit: "us", Better: "lower"},
	{Name: "bconv.moddown_convert_us", Unit: "us", Better: "lower"},
	{Name: "bconv.muladd_per_convert", Unit: "count", Better: "lower", Exact: true},
	{Name: "ring.muladd_us_per_poly", Unit: "us", Better: "lower"},
	{Name: "ring.uniform_from_seed_us", Unit: "us", Better: "lower"},

	{Name: "hks.decompose_us", Unit: "us", Better: "lower"},
	{Name: "hks.modup_ms", Unit: "ms", Better: "lower"},
	{Name: "hks.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "hks.moddown_ms", Unit: "ms", Better: "lower"},
	{Name: "hks.switch_serial_ms", Unit: "ms", Better: "lower"},
	{Name: "hks.stage_sum_over_switch", Unit: "x", Better: "lower"},
	{Name: "hks.hoist_ms", Unit: "ms", Better: "lower"},
	{Name: "hks.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "hks.hoisted8_ms_per_switch", Unit: "ms", Better: "lower"},
	{Name: "hks.hoist_speedup_x", Unit: "x", Better: "higher"},
	{Name: "hks.hoist_model_x", Unit: "x", Better: "higher", Exact: true},
	{Name: "hks.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "hks.switch_mod_ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "hks.modup_mod_ops", Unit: "count", Better: "lower", Exact: true},

	{Name: "engine.switch_ms_mp", Unit: "ms", Better: "lower"},
	{Name: "engine.switch_ms_dc", Unit: "ms", Better: "lower"},
	{Name: "engine.switch_ms_oc", Unit: "ms", Better: "lower"},
	{Name: "engine.speedup_vs_serial_x", Unit: "x", Better: "higher"},
	{Name: "engine.parallel_for_us", Unit: "us", Better: "lower"},
	{Name: "engine.cpu_util", Unit: "frac", Better: "higher"},

	{Name: "serve.queue_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "serve.keys_us_per_fetch", Unit: "us", Better: "lower"},
	{Name: "serve.hoist_ms_per_group", Unit: "ms", Better: "lower"},
	{Name: "serve.replay_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "serve.reply_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.coalescing_factor", Unit: "x", Better: "higher"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.key_hit_rate", Unit: "frac", Better: "higher"},
	{Name: "serve.key_evictions_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.key_expansions_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.key_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.req_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_x", Unit: "x", Better: "lower"},
	{Name: "serve.unattributed_frac", Unit: "frac", Better: "lower"},

	{Name: "workload.makespan_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.ms_per_depth", Unit: "ms", Better: "lower"},
	{Name: "workload.idle_frac", Unit: "frac", Better: "lower"},
	{Name: "workload.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "workload.switches", Unit: "count", Better: "lower", Exact: true},
	{Name: "workload.mod_ups", Unit: "count", Better: "lower", Exact: true},
	{Name: "workload.counts_exact", Unit: "frac", Better: "higher", Exact: true},

	{Name: "cluster.encode_group_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.decode_group_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.encode_result_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.decode_result_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.group_wire_kb", Unit: "KB", Better: "lower", Exact: true},
	{Name: "cluster.result_wire_kb", Unit: "KB", Better: "lower", Exact: true},
	{Name: "cluster.ping_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_balance", Unit: "x", Better: "lower"},
	{Name: "cluster.overhead_x", Unit: "x", Better: "lower"},

	{Name: "obs.stage_share_sum", Unit: "frac", Better: "higher"},
	{Name: "obs.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "ckks.keygen_ms_per_key", Unit: "ms", Better: "lower"},
	{Name: "params.weighted_mod_ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "dataflow.dram_mb_mp", Unit: "MB", Better: "lower", Exact: true},
	{Name: "dataflow.dram_mb_dc", Unit: "MB", Better: "lower", Exact: true},
	{Name: "dataflow.dram_mb_oc", Unit: "MB", Better: "lower", Exact: true},
}

// phase names the three parts of a run that attempt operations.
type phase int

const (
	phaseWarmup phase = iota
	phaseWindow
	phaseVerify
	numPhases
)

var phaseNames = [numPhases]string{"warm-up", "window", "verify"}

// tally counts operations attempted and failed in one phase. An
// operation fails when it errors, is not bit-exact with its reference,
// or (DAG workloads) its counters differ from the schedule's.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// report collects one run's metrics by declared name.
type report struct {
	defs    []metricDef
	values  map[string]float64
	samples map[string]int // sample count behind a percentile
	notes   map[string]string
	phases  [numPhases]tally
	digest  string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{},
		samples: map[string]int{}, notes: map[string]string{}}
}

// set records a metric. Setting an undeclared name or setting a name
// twice is a bug in the benchmark, so it panics: every declared metric
// is printed at most once and nothing undeclared is printed at all.
func (r *report) set(name string, v float64) {
	declared := false
	for _, d := range r.defs {
		declared = declared || d.Name == name
	}
	if !declared {
		panic(fmt.Sprintf("bench: metric %q is not declared for this mode", name))
	}
	if _, dup := r.values[name]; dup {
		panic(fmt.Sprintf("bench: metric %q set twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %q is not finite", name))
	}
	r.values[name] = v
}

// setN records a percentile together with its sample count.
func (r *report) setN(name string, v float64, n int) {
	r.set(name, v)
	r.samples[name] = n
}

func (r *report) total() (t tally) {
	for _, p := range r.phases {
		t.add(p)
	}
	return t
}

// printTable writes the metrics this run measured, by name with unit.
func (r *report) printTable(w io.Writer) {
	for p, t := range r.phases {
		fmt.Fprintf(w, "phase %-8s attempted %d succeeded %d failed %d\n",
			phaseNames[p], t.attempted, t.attempted-t.failed, t.failed)
	}
	t := r.total()
	fmt.Fprintf(w, "failed_frac %g (%d of %d)\n", float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	fmt.Fprintf(w, "output_digest %s\n", r.digest)
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			continue
		}
		var extra []string
		if n, ok := r.samples[d.Name]; ok {
			extra = append(extra, fmt.Sprintf("n=%d", n))
		}
		if note, ok := r.notes[d.Name]; ok {
			extra = append(extra, note)
		}
		suffix := ""
		if len(extra) > 0 {
			suffix = "  (" + strings.Join(extra, ", ") + ")"
		}
		fmt.Fprintf(w, "%-28s %14.6g %-5s%s\n", d.Name, v, d.Unit, suffix)
	}
}

// resultLine is the driver's contract: the last line of standard
// output, with every declared metric of the mode.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine() resultLine {
	t := r.total()
	out := resultLine{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metricValue, len(r.defs))}
	for _, d := range r.defs {
		out.Metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}

func (r *report) printResultLine(w io.Writer) error {
	data, err := json.Marshal(r.resultLine())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
