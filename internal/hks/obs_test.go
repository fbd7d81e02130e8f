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

// snapshotHas reports whether the snapshot recorded the named
// stage/kernel under the named dataflow with a nonzero count.
func snapshotHas(entries []obs.HistogramSnapshot, name, df string) bool {
	for _, hs := range entries {
		if hs.Name == name && hs.Dataflow == df && hs.Count > 0 {
			return true
		}
	}
	return false
}

// TestEntryPointsProfiled runs each entry point with profiling on and
// asserts that every stage of its pipeline and both kernel families
// are recorded under its own dataflow label and nowhere else, and no
// other stage: expand only where a compressed key is drawn — the
// tiles time themselves through one mechanism, so a label dropped or
// misrouted there vanishes from every report — and that the outputs
// are bit-identical with profiling off: recording is additive
// instrumentation, never a fork in the arithmetic.
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
	e := engine.New(2)
	defer e.Close()

	pipeline := []string{"mod_up", "apply", "mod_down"}
	type entryPoint struct {
		name, label string
		stages      []string
		run         func() (c0, c1 *ring.Poly)
	}
	// A compressed key's replay streams its A-half out of the seeds in
	// the apply tiles, which time the drawing as the expand stage: one
	// row per pool width, the caller-only pool included.
	streamed := func(workers int) entryPoint {
		ew := engine.New(workers)
		t.Cleanup(ew.Close)
		return entryPoint{fmt.Sprintf("streamed replay/%d workers", workers), "dc",
			[]string{"mod_up", "expand", "apply", "mod_down"}, func() (*ring.Poly, *ring.Poly) {
				return replayParallel(sw, ew, dataflow.DC, d, cevk)
			}}
	}
	for _, tc := range []entryPoint{
		{"serial", "serial", pipeline, func() (*ring.Poly, *ring.Poly) { return sw.KeySwitch(d, evk) }},
		{"mp", "mp", pipeline, func() (*ring.Poly, *ring.Poly) { return switchParallel(sw, e, dataflow.MP, d, evk) }},
		{"dc", "dc", pipeline, func() (*ring.Poly, *ring.Poly) { return switchParallel(sw, e, dataflow.DC, d, evk) }},
		{"oc", "oc", pipeline, func() (*ring.Poly, *ring.Poly) { return switchParallel(sw, e, dataflow.OC, d, evk) }},
		{"hoisted replay", "oc", pipeline, func() (*ring.Poly, *ring.Poly) {
			return replayParallel(sw, e, dataflow.OC, d, evk)
		}},
		streamed(1), streamed(2), streamed(4),
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.Enable()
			defer obs.Disable()
			c0, c1 := tc.run()
			snap := rec.Snapshot()
			obs.Disable()
			for _, stage := range tc.stages {
				if !snapshotHas(snap.Stages, stage, tc.label) {
					t.Errorf("no %q stage under %q", stage, tc.label)
				}
			}
			for _, hs := range snap.Stages {
				if !slices.Contains(tc.stages, hs.Name) {
					t.Errorf("%q recorded, want only %v", hs.Name, tc.stages)
				}
			}
			for _, kernel := range []string{"ntt", "bconv"} {
				if !snapshotHas(snap.Kernels, kernel, tc.label) {
					t.Errorf("no %q kernel samples under %q", kernel, tc.label)
				}
			}
			for _, hs := range append(snap.Stages, snap.Kernels...) {
				if hs.Dataflow != tc.label {
					t.Errorf("%q recorded under %q, want only %q", hs.Name, hs.Dataflow, tc.label)
				}
			}
			u0, u1 := tc.run()
			if !c0.Equal(u0) || !c1.Equal(u1) {
				t.Fatal("profiled output differs from unprofiled")
			}
		})
	}
}
