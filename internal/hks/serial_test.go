package hks

import (
	"fmt"
	"slices"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

// runSerial is the schedule the serial entry points had before they
// ran graphs on engine.Inline(): the tiles of MP's walk that keep
// admits, in walk order, on the calling goroutine. It stays here as
// the oracle the serial graphs are held to, as it was but for the tile
// list it no longer caches on the state, and for the run scratch it
// borrows as a graph run does.
func (h *Hoisted) runSerial(keep func(dataflow.Tile) bool) {
	defer h.giveBack(h.borrow())
	for _, grp := range h.sw.plans[dataflow.MP].Groups {
		for _, t := range grp.Tiles {
			if run := h.tileFunc(t); run != nil && keep(t) {
				run()
			}
		}
	}
}

// keySwitchSerial is KeySwitch over runSerial: a serial hoist and one
// serial replay on one state.
func keySwitchSerial(sw *Switcher, d *ring.Poly, key KeyMaterial) (c0, c1 *ring.Poly) {
	h := sw.state(dataflow.MP)
	defer h.Release()
	h.d = d
	h.runSerial(dataflow.ModUpTile)
	c0, c1 = sw.R.NewPoly(sw.qBasis), sw.R.NewPoly(sw.qBasis)
	h.bind(key, c0, c1)
	h.runSerial(dataflow.ReplayTile)
	h.unbind()
	return c0, c1
}

// modUpSerial is ModUp over runSerial.
func modUpSerial(sw *Switcher, d *ring.Poly) []*ring.Poly {
	ups := make([]*ring.Poly, sw.Dnum)
	for j := range ups {
		ups[j] = sw.R.NewPoly(sw.dBasis)
		ups[j].IsNTT = true
	}
	h := sw.state(dataflow.MP)
	own := h.up
	h.up, h.d = rowTable(ups), d
	h.runSerial(dataflow.ModUpTile)
	h.up = own
	h.Release()
	for i, row := range d.Coeffs {
		copy(ups[i/sw.Alpha].Coeffs[i], row)
	}
	return ups
}

// applyEvkSerial is ApplyEvk over runSerial.
func applyEvkSerial(sw *Switcher, ups []*ring.Poly, evk *Evk) (c0, c1 *ring.Poly) {
	c0 = sw.R.NewPoly(sw.dBasis)
	c1 = sw.R.NewPoly(sw.dBasis)
	c0.IsNTT, c1.IsNTT = true, true
	h := sw.state(dataflow.MP)
	own := h.up
	h.up, h.d, h.acc, h.key = rowTable(ups), sw.ownTowers(ups), [2]*ring.Poly{c0, c1}, evk
	h.runSerial(func(t dataflow.Tile) bool { return t.Kind == dataflow.Reduce })
	h.up, h.acc, h.key = own, [2]*ring.Poly{&h.accs[0], &h.accs[1]}, nil
	h.Release()
	return c0, c1
}

// modDownSerial is ModDown over runSerial.
func modDownSerial(sw *Switcher, c *ring.Poly) *ring.Poly {
	out := sw.R.NewPoly(sw.qBasis)
	out.IsNTT = true
	h := sw.state(dataflow.MP)
	h.acc[0], h.out[0] = c, out
	h.runSerial(func(t dataflow.Tile) bool { return t.Kind >= dataflow.DownINTT && t.J == 0 })
	h.acc[0], h.out[0] = &h.accs[0], nil
	h.Release()
	return out
}

// TestSerialGraphsMatchWalk holds every serial entry point, now a graph
// on engine.Inline(), to runSerial on every golden shape with the key
// in either form: KeySwitch (MP's fused graph), a replay of a state
// hoisted inline under each dataflow (its own replay graph, inline),
// SwitchHoisted, and the stage binders ModUp, ApplyEvk and ModDown,
// which must also leave ModDown's input as it found it.
func TestSerialGraphsMatchWalk(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			r, s, sOld, sNew := testSetup(t, tc.n, tc.numQ, tc.qBits, tc.numP, tc.pBits)
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			evk := sw.GenEvk(s, sOld, sNew)
			d := s.Uniform(sw.QBasis())
			d.IsNTT = true
			for _, kf := range keyForms(t, evk) {
				want0, want1 := keySwitchSerial(sw, d, kf.key)
				check := func(path string, c0, c1 *ring.Poly) {
					t.Helper()
					if !c0.Equal(want0) || !c1.Equal(want1) {
						t.Errorf("%s with the %s key differs from the serial walk", path, kf.name)
					}
				}
				c0, c1 := sw.KeySwitch(d, kf.key)
				check("KeySwitch", c0, c1)
				for _, df := range engineDataflows {
					h := sw.HoistParallel(engine.Inline(), df, d)
					c0, c1 = sw.R.NewPoly(sw.qBasis), sw.R.NewPoly(sw.qBasis)
					h.SwitchParallelInto(engine.Inline(), kf.key, c0, c1)
					h.Release()
					check(fmt.Sprintf("%s hoist and replay inline", df), c0, c1)
				}
			}
			c0s, c1s := sw.SwitchHoisted(d, []*Evk{evk, evk})
			want0, want1 := keySwitchSerial(sw, d, evk)
			if !slices.EqualFunc(c0s, []*ring.Poly{want0, want0}, (*ring.Poly).Equal) || !slices.EqualFunc(c1s, []*ring.Poly{want1, want1}, (*ring.Poly).Equal) {
				t.Error("SwitchHoisted differs from the serial walk")
			}

			ups := sw.ModUp(d)
			if !slices.EqualFunc(ups, modUpSerial(sw, d), (*ring.Poly).Equal) {
				t.Error("ModUp differs from the serial walk")
			}
			a0, a1 := sw.ApplyEvk(ups, evk)
			w0, w1 := applyEvkSerial(sw, ups, evk)
			if !a0.Equal(w0) || !a1.Equal(w1) {
				t.Error("ApplyEvk differs from the serial walk")
			}
			in := a1.Copy()
			if !sw.ModDown(a1).Equal(modDownSerial(sw, a1)) {
				t.Error("ModDown differs from the serial walk")
			}
			if !a1.Equal(in) {
				t.Error("ModDown changed its input")
			}
		})
	}
}

// TestEngineSwitchZeroAlloc pins the engine paths' allocation
// discipline: on engine.New(2), a warm SwitchParallelInto and a warm
// replay of a hoisted state allocate nothing under every dataflow with
// the key in either form — RunGraph included, whose completion channel
// is made once per Graph.
func TestEngineSwitchZeroAlloc(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	e := engine.New(2)
	defer e.Close()
	r, s, sOld, sNew := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	c0, c1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
	for _, kf := range keyForms(t, evk) {
		for _, df := range engineDataflows {
			sw.SwitchParallelInto(e, df, d, kf.key, c0, c1) // warm the state, its graph and rows
			if allocs := testing.AllocsPerRun(10, func() {
				sw.SwitchParallelInto(e, df, d, kf.key, c0, c1)
			}); allocs != 0 {
				t.Errorf("warm %s SwitchParallelInto with the %s key allocates %v times per run, want 0", df, kf.name, allocs)
			}
			h := sw.HoistParallel(e, df, d)
			h.SwitchParallelInto(e, kf.key, c0, c1)
			if allocs := testing.AllocsPerRun(10, func() {
				h.SwitchParallelInto(e, kf.key, c0, c1)
			}); allocs != 0 {
				t.Errorf("warm %s hoisted replay with the %s key allocates %v times per run, want 0", df, kf.name, allocs)
			}
			h.Release()
		}
	}
}
