package workload

// The scenario library: generators for workload shapes beyond the
// bootstrap/matvec/fanout trio, plus the canonical named scenarios the
// golden files, the fuzz seeds, and the scenario perf baseline pin.
// Each generator stresses a different corner of the serving layer's
// reuse machinery:
//
//   - PIR: batched private-lookup queries — per batch one wide
//     hoisted rotation fan-out (the masked database probes share one
//     query ciphertext) folded by a single dependent combine
//     rotation. Maximum width, minimum depth: the shape where
//     coalescing is nearly the whole cost model.
//   - PrivateInference: the examples/private_inference pipeline as a
//     schedule — a chain of BSGS matvec layers (hoistable babies,
//     dependent giants) with one relinearization between layers, each
//     layer two levels below the last (the matvec's rescale plus the
//     multiplication's). Interleaves every dependency pattern the
//     replay client understands.
//   - EvalMod: the bootstrap sine-polynomial evaluation modeled
//     honestly — a pure chain of relinearizations, one per level.
//     Zero hoistable fan-out: the degenerate dependency-only case,
//     where a correct serving layer must coalesce *nothing*.
//
// Scenario(name) builds each library member at its canonical replay
// geometry (top level scenarioTop, so every scenario fits the
// towers-6 replay rings of CI's replays and the bench), except the
// bootstrap scenario, which keeps the paper's BTS2 geometry and
// exists for export/import golden coverage rather than replay.

import (
	"fmt"

	"ciflow/internal/params"
)

// PIR builds a PIR-style batched-lookup schedule: batches independent
// queries, each a hoist group of width masked-probe rotations (one
// shared query ciphertext) feeding one dependent combine rotation
// that folds the partial results, all at one level. Wide fan-out,
// depth 2: predicted ModUps = 2·batches, coalesced = batches·width.
func PIR(batches, width, level int) (*Schedule, error) {
	if batches < 1 || width < 2 {
		return nil, fmt.Errorf("workload: pir needs batches >= 1 and width >= 2, got %d, %d", batches, width)
	}
	b := &builder{name: fmt.Sprintf("pir-%dx%d", batches, width)}
	rots := make([]int, width)
	for i := range rots {
		rots[i] = i + 1
	}
	for q := 0; q < batches; q++ {
		probes := b.group(fmt.Sprintf("query%d probe", q), level, nil, rots)
		b.node(fmt.Sprintf("query%d combine", q), Rotate, width+1, level, probes)
	}
	return b.schedule()
}

// PrivateInference builds a private-inference pipeline of layers BSGS
// matvec layers (n1 babies, n2 giants — the examples/private_inference
// diagonal method) with one relinearization between consecutive
// layers. Layer l's rotations run at level top−2l and its relin one
// level below (the matvec consumes one level rescaling, the
// multiplication another), so the schedule needs top ≥ 2·layers−1.
func PrivateInference(layers, n1, n2, top int) (*Schedule, error) {
	if layers < 1 || n1 < 2 || n2 < 1 {
		return nil, fmt.Errorf("workload: private-inference needs layers >= 1, n1 >= 2, n2 >= 1, got %d, %d, %d",
			layers, n1, n2)
	}
	if top < 2*layers-1 {
		return nil, fmt.Errorf("workload: private-inference with %d layers needs top level >= %d, have %d",
			layers, 2*layers-1, top)
	}
	b := &builder{name: fmt.Sprintf("private-inference-%dx%dx%d", layers, n1, n2)}
	var deps []int
	level := top
	for l := 0; l < layers; l++ {
		out := b.bsgs(fmt.Sprintf("layer%d ", l), n1, n2, 1, level, deps)
		deps = []int{b.node(fmt.Sprintf("layer%d relin", l), Relin, 0, level-1, out)}
		level -= 2
	}
	return b.schedule()
}

// EvalMod builds the bootstrap modular-reduction polynomial as an
// honest relin chain: depth relinearizations, each depending on the
// previous, descending one level per node from top. No hoistable
// fan-out at all — the schedule predicts zero coalesces, and a
// serving layer that merges any of these logically sequential
// switches fails the exact-count gate.
func EvalMod(depth, top int) (*Schedule, error) {
	if depth < 1 {
		return nil, fmt.Errorf("workload: evalmod needs depth >= 1, got %d", depth)
	}
	if top < depth-1 {
		return nil, fmt.Errorf("workload: evalmod of depth %d needs top level >= %d, have %d", depth, depth-1, top)
	}
	b := &builder{name: fmt.Sprintf("evalmod-%d", depth)}
	var deps []int
	for i := 0; i < depth; i++ {
		deps = []int{b.node(fmt.Sprintf("evalmod%d", i), Relin, 0, top-i, deps)}
	}
	return b.schedule()
}

// scenarioTop is the canonical top level of the replayable library
// scenarios: level 5, so each fits a towers-6 replay ring
// (ckks.NewContext MaxLevel = towers−1) at any logn CI's replays and
// the bench use.
const scenarioTop = 5

// ScenarioNames lists the library scenarios in display order; every
// name has a committed golden file testdata/<name>.schedule.json.
func ScenarioNames() []string {
	return []string{"bootstrap-bts2", "matvec", "pir", "private-inference", "evalmod"}
}

// Scenario builds one named library scenario at its canonical
// geometry. All but bootstrap-bts2 replay on a towers-6 ring;
// bootstrap-bts2 is the paper's BTS2 pipeline at its own 2^16-slot,
// KL-level geometry (golden/export coverage — far too many levels for
// the replay rings).
func Scenario(name string) (*Schedule, error) {
	switch name {
	case "bootstrap-bts2":
		return BootstrapBTS(params.BTS2, 0)
	case "matvec":
		return Matvec(8, 4, scenarioTop)
	case "pir":
		return PIR(4, 16, scenarioTop)
	case "private-inference":
		return PrivateInference(3, 4, 4, scenarioTop)
	case "evalmod":
		return EvalMod(6, scenarioTop)
	default:
		return nil, fmt.Errorf("workload: unknown scenario %q (have %v)", name, ScenarioNames())
	}
}
