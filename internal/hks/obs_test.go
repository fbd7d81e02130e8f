package hks

import (
	"fmt"
	"slices"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// recorded lists the names of the entries with a nonzero count.
func recorded(entries []obs.HistogramSnapshot) []string {
	var names []string
	for _, hs := range entries {
		if hs.Count > 0 {
			names = append(names, hs.Name)
		}
	}
	return names
}

// TestEntryPointsProfiled runs each entry point with profiling on and
// asserts that it records every stage and kernel family its tiles run
// and nothing else — expand only where a compressed key is drawn, each
// stage binder only its own stage, and ApplyEvk, whose tiles run no
// NTT or BConv, no kernel at all: the tiles time themselves through one
// mechanism, so a sample dropped or misfiled there vanishes from every
// report — and that the outputs are bit-identical with profiling off:
// recording is additive instrumentation, never a fork in the
// arithmetic.
func TestEntryPointsProfiled(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	cevk, ok := evk.Compress()
	if !ok {
		t.Fatal("evk did not compress")
	}
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	ups := sw.ModUp(d)
	acc, _ := sw.ApplyEvk(ups, evk)
	e := engine.New(2)
	defer e.Close()

	pipeline := []string{"mod_up", "apply", "mod_down"}
	kernels := []string{"ntt", "bconv"}
	type entryPoint struct {
		name            string
		stages, kernels []string
		run             func() []*ring.Poly
	}
	pair := func(c0, c1 *ring.Poly) []*ring.Poly { return []*ring.Poly{c0, c1} }
	// A compressed key's replay streams its A-half out of the seeds in
	// the apply tiles, which time the drawing as the expand stage: one
	// row per pool width, the caller-only pool included.
	streamed := func(workers int) entryPoint {
		ew := engine.New(workers)
		t.Cleanup(ew.Close)
		return entryPoint{fmt.Sprintf("streamed replay/%d workers", workers),
			[]string{"mod_up", "apply", "expand", "mod_down"}, kernels, func() []*ring.Poly {
				return pair(replayParallel(sw, ew, dataflow.DC, d, cevk))
			}}
	}
	for _, tc := range []entryPoint{
		{"serial", pipeline, kernels, func() []*ring.Poly { return pair(sw.KeySwitch(d, evk)) }},
		{"mp", pipeline, kernels, func() []*ring.Poly { return pair(switchParallel(sw, e, dataflow.MP, d, evk)) }},
		{"dc", pipeline, kernels, func() []*ring.Poly { return pair(switchParallel(sw, e, dataflow.DC, d, evk)) }},
		{"oc", pipeline, kernels, func() []*ring.Poly { return pair(switchParallel(sw, e, dataflow.OC, d, evk)) }},
		{"hoisted replay", pipeline, kernels, func() []*ring.Poly {
			return pair(replayParallel(sw, e, dataflow.OC, d, evk))
		}},
		streamed(1), streamed(2), streamed(4),
		{"switch hoisted", pipeline, kernels, func() []*ring.Poly {
			c0s, c1s := sw.SwitchHoisted(d, []*Evk{evk, evk})
			return append(c0s, c1s...)
		}},
		{"mod up", []string{"mod_up"}, kernels, func() []*ring.Poly { return sw.ModUp(d) }},
		{"apply evk", []string{"apply"}, nil, func() []*ring.Poly { return pair(sw.ApplyEvk(ups, evk)) }},
		{"mod down", []string{"mod_down"}, kernels, func() []*ring.Poly { return []*ring.Poly{sw.ModDown(acc)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.Enable()
			defer obs.Disable()
			got := tc.run()
			snap := rec.Snapshot()
			obs.Disable()
			if stages := recorded(snap.Stages); !slices.Equal(stages, tc.stages) {
				t.Errorf("stages %v recorded, want %v", stages, tc.stages)
			}
			if ks := recorded(snap.Kernels); !slices.Equal(ks, tc.kernels) {
				t.Errorf("kernels %v recorded, want %v", ks, tc.kernels)
			}
			if !slices.EqualFunc(got, tc.run(), (*ring.Poly).Equal) {
				t.Fatal("profiled output differs from unprofiled")
			}
		})
	}
}
