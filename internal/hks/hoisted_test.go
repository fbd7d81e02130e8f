package hks

import (
	"fmt"
	"sync"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/params"
	"ciflow/internal/ring"
)

func hoistedKeys(s *ring.Sampler, sw *Switcher, k int) []*Evk {
	full := sw.R.DBasis(sw.R.NumQ - 1)
	sNew := s.Ternary(full)
	evks := make([]*Evk, k)
	for i := range evks {
		evks[i] = sw.GenEvk(s, s.Ternary(full), sNew)
	}
	return evks
}

// TestSwitchHoistedBitExact asserts that hoisting — shared ModUp, per-
// key replay — produces outputs bit-exact with the per-rotation path
// (both serial KeySwitch and the engine-backed SwitchParallelInto), for
// every dataflow shape, across two parameter sets including an uneven
// digit partition.
func TestSwitchHoistedBitExact(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	for _, tc := range []struct {
		name                        string
		n, numQ, qBits, numP, pBits int
		level, dnum, k              int
	}{
		{"n64_dnum2", 64, 4, 30, 2, 31, 3, 2, 4},
		{"n32_uneven_digits", 32, 5, 30, 3, 31, 4, 2, 3},
		{"n64_dnum4_alpha1", 64, 4, 30, 1, 31, 3, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, s, _, _ := testSetup(t, tc.n, tc.numQ, tc.qBits, tc.numP, tc.pBits)
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			evks := hoistedKeys(s, sw, tc.k)
			d := s.Uniform(sw.QBasis())
			d.IsNTT = true

			want0 := make([]*ring.Poly, tc.k)
			want1 := make([]*ring.Poly, tc.k)
			for i, evk := range evks {
				want0[i], want1[i] = refKeySwitch(sw, d, evk)
			}

			// Serial hoisted path.
			c0s, c1s := sw.SwitchHoisted(d, evks)
			for i := range evks {
				if !c0s[i].Equal(want0[i]) || !c1s[i].Equal(want1[i]) {
					t.Fatalf("serial hoisted output %d differs from KeySwitch", i)
				}
			}

			// Engine-backed hoisted path, every dataflow shape.
			for _, df := range engineDataflows {
				t.Run(df.String(), func(t *testing.T) {
					g0 := make([]*ring.Poly, tc.k)
					g1 := make([]*ring.Poly, tc.k)
					for i := range g0 {
						g0[i] = r.NewPoly(sw.QBasis())
						g1[i] = r.NewPoly(sw.QBasis())
					}
					sw.SwitchHoistedParallelInto(e, df, d, evks, g0, g1)
					for i := range evks {
						if !g0[i].Equal(want0[i]) || !g1[i].Equal(want1[i]) {
							t.Fatalf("%s hoisted output %d differs from KeySwitch", df, i)
						}
					}
				})
			}
		})
	}
}

// TestHoistedStateReuse replays one Hoisted across keys repeatedly and
// re-hoists fresh inputs on pooled states, interleaving dataflows to
// catch cross-pool contamination.
func TestHoistedStateReuse(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	r, s, _, _ := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evks := hoistedKeys(s, sw, 3)
	c0 := r.NewPoly(sw.QBasis())
	c1 := r.NewPoly(sw.QBasis())
	for rep := 0; rep < 3; rep++ {
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		for _, df := range engineDataflows {
			h := sw.HoistParallel(e, df, d)
			for round := 0; round < 2; round++ { // replay the same state twice per key
				for i, evk := range evks {
					want0, want1 := refKeySwitch(sw, d, evk)
					h.SwitchParallelInto(e, evk, c0, c1)
					if !c0.Equal(want0) || !c1.Equal(want1) {
						t.Fatalf("rep %d %s round %d key %d: pooled replay differs", rep, df, round, i)
					}
				}
			}
			h.Release()
		}
	}
}

// TestHoistedSerialReplayZeroAlloc asserts the serial replay is
// allocation-free once the state is warm — the zero-alloc property a
// steady-state rotation fan-out relies on.
func TestHoistedSerialReplayZeroAlloc(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	r, s, _, _ := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := hoistedKeys(s, sw, 1)[0]
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	h := sw.HoistParallel(engine.Inline(), dataflow.MP, d)
	defer h.Release()
	c0 := r.NewPoly(sw.QBasis())
	c1 := r.NewPoly(sw.QBasis())
	h.SwitchParallelInto(engine.Inline(), evk, c0, c1) // warm converter scratch pools
	if allocs := testing.AllocsPerRun(10, func() {
		h.SwitchParallelInto(engine.Inline(), evk, c0, c1)
	}); allocs > 0 {
		t.Fatalf("serial hoisted replay allocates %v times per run, want 0", allocs)
	}
}

// TestHoistedConcurrent hammers one Switcher with concurrent hoisted
// switches over different inputs and dataflows; with -race this proves
// the hoisted state pools are data-race free.
func TestHoistedConcurrent(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	r, s, _, _ := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evks := hoistedKeys(s, sw, 2)

	const goroutines = 8
	type job struct {
		d            *ring.Poly
		want0, want1 []*ring.Poly
	}
	jobs := make([]job, goroutines)
	for i := range jobs {
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		j := job{d: d}
		for _, evk := range evks {
			w0, w1 := refKeySwitch(sw, d, evk)
			j.want0 = append(j.want0, w0)
			j.want1 = append(j.want1, w1)
		}
		jobs[i] = j
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			df := engineDataflows[i%len(engineDataflows)]
			c0 := r.NewPoly(sw.QBasis())
			c1 := r.NewPoly(sw.QBasis())
			for rep := 0; rep < 3; rep++ {
				h := sw.HoistParallel(e, df, jobs[i].d)
				for ki := range evks {
					h.SwitchParallelInto(e, evks[ki], c0, c1)
					if !c0.Equal(jobs[i].want0[ki]) || !c1.Equal(jobs[i].want1[ki]) {
						errs <- fmt.Errorf("goroutine %d rep %d key %d (%s): result differs", i, rep, ki, df)
						h.Release()
						return
					}
				}
				h.Release()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHoistedValidation covers the input checks of the hoisted path.
func TestHoistedValidation(t *testing.T) {
	r, s, _, _ := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := hoistedKeys(s, sw, 1)[0]
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}

	coeff := s.Uniform(sw.QBasis())
	mustPanic("coefficient-domain input", func() { sw.HoistParallel(engine.Inline(), dataflow.MP, coeff) })

	wrong := s.Uniform(sw.DBasis())
	wrong.IsNTT = true
	mustPanic("wrong basis", func() { sw.HoistParallel(engine.Inline(), dataflow.MP, wrong) })

	h := sw.HoistParallel(engine.Inline(), dataflow.MP, d)
	defer h.Release()
	short := &Evk{B: evk.B[:1], A: evk.A[:1]}
	c0 := r.NewPoly(sw.QBasis())
	c1 := r.NewPoly(sw.QBasis())
	mustPanic("short evk", func() { h.SwitchParallelInto(engine.Inline(), short, c0, c1) })
	mustPanic("aliased outputs", func() { h.SwitchParallelInto(engine.Inline(), evk, c0, c0) })
	bad := r.NewPoly(sw.DBasis())
	mustPanic("wrong output basis", func() { h.SwitchParallelInto(engine.Inline(), evk, bad, c1) })
	mustPanic("mismatched batch outputs", func() {
		sw.SwitchHoistedParallelInto(nil, dataflow.MP, d, []*Evk{evk}, nil, nil)
	})
}

// TestHoistedKeepsOnlyConvertedRows: a hoisted state's row table holds
// the rows the converters wrote and nothing else — dnum·|D| − ℓ rows,
// none at a digit's own tower, which its replays read from the input
// (paper Figure 1, red towers). On the benchmark shape (N=2^13, 6 Q
// and 3 P towers, dnum 3) that is 21 rows, not 27, under every
// dataflow, so also in a state drawn again from the pool.
func TestHoistedKeepsOnlyConvertedRows(t *testing.T) {
	r, s, _, _ := testSetup(t, 1<<13, 6, 40, 3, 41)
	sw, err := NewSwitcher(r, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	ell, nd := len(sw.QBasis()), len(sw.DBasis())
	if want := sw.Dnum*nd - ell; want != 21 {
		t.Fatalf("benchmark shape keeps %d rows, want 21", want)
	}
	for _, df := range engineDataflows {
		h := sw.HoistParallel(engine.Inline(), df, d)
		rows := 0
		for j := range h.up {
			rows += nonNil(h.up[j])
		}
		if rows != sw.Dnum*nd-ell {
			t.Errorf("%s hoist keeps %d rows, want dnum·|D| − ℓ = %d", df, rows, sw.Dnum*nd-ell)
		}
		for i := range ell {
			if h.up[i/sw.Alpha][i] != nil {
				t.Errorf("%s hoist keeps a row at digit %d's own tower %d", df, i/sw.Alpha, i)
			}
		}
		h.Release()
	}
}

// TestHoistedReplayRefusesInputAlias: a hoisted replay reads the
// digits' own towers from the hoisted input, so an output sharing its
// storage — the input itself or a view of its rows — is refused before
// any tile runs, as a per-rotation switch refuses it, and the input is
// left as it was.
func TestHoistedReplayRefusesInputAlias(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	orig := d.Copy()
	view := &ring.Poly{Basis: d.Basis, Coeffs: d.Coeffs, IsNTT: true}
	out := r.NewPoly(sw.QBasis())
	h := sw.HoistParallel(engine.Inline(), dataflow.MP, d)
	defer h.Release()
	for name, c := range map[string][2]*ring.Poly{
		"c0 is the input":    {d, out},
		"c1 is the input":    {out, d},
		"c0 views the input": {view, out},
		"c1 views the input": {out, view},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			h.SwitchParallelInto(engine.Inline(), evk, c[0], c[1])
		}()
	}
	if !d.Equal(orig) {
		t.Error("a refused replay changed the input")
	}
}

// TestOpCountsMatchParamsModel cross-validates the live-structure op
// counters against the paper's closed-form model in internal/params:
// a switcher and a Benchmark with the same shape must charge exactly
// the same weighted modular operations, so HoistedOpsSaved is (k−1)
// times the model's ModUp cost.
func TestOpCountsMatchParamsModel(t *testing.T) {
	for _, tc := range []struct {
		n, numQ, numP, level, dnum int
	}{
		{64, 4, 2, 3, 2},
		{32, 5, 3, 4, 2}, // uneven digit partition
		{64, 6, 2, 5, 3},
	} {
		r, err := ring.NewRingGenerated(tc.n, tc.numQ, 30, tc.numP, 31)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := NewSwitcher(r, tc.level, tc.dnum)
		if err != nil {
			t.Fatal(err)
		}
		logN := 0
		for m := tc.n; m > 1; m >>= 1 {
			logN++
		}
		b := params.Benchmark{Name: "live", LogN: logN, KL: tc.level + 1, KP: tc.numP, Dnum: tc.dnum}
		oc := b.Ops()
		modelModUp := params.ButterflyWeight*(oc.ModUpINTTButterflies+oc.ModUpNTTButterflies) +
			params.MulAccWeight*oc.ModUpBConvMulAcc
		if got := sw.ModUpOps(); got != modelModUp {
			t.Errorf("%+v: ModUpOps %d, params model %d", tc, got, modelModUp)
		}
		if got, want := sw.SwitchOps(), oc.WeightedTotal(); got != want {
			t.Errorf("%+v: SwitchOps %d, params WeightedTotal %d", tc, got, want)
		}
		if got, want := sw.HoistedOpsSaved(5), 4*modelModUp; got != want {
			t.Errorf("%+v: HoistedOpsSaved(5) %d, want %d", tc, got, want)
		}
		if s := sw.HoistedSpeedupModel(8); s <= 1 || s >= 8 {
			t.Errorf("%+v: implausible model speedup %g", tc, s)
		}
		if sw.HoistedSpeedupModel(1) != 1 {
			t.Errorf("%+v: k=1 model speedup must be 1", tc)
		}
	}
}

// TestHoistedSpeedupModelIsThePlans: the switcher's model is the one
// hoisting model, dataflow.Plan.HoistedSpeedup, on the Benchmark of its
// shape — here the benchmark's (N=2^13, 6 Q towers, 3 P towers, dnum 3)
// at its fan-out of 8, hks.hoist_model_x.
func TestHoistedSpeedupModelIsThePlans(t *testing.T) {
	r, err := ring.NewRingGenerated(1<<13, 6, 40, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitcher(r, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := params.Benchmark{Name: "bench", LogN: 13, KL: 6, KP: 3, Dnum: 3}
	if got, want := sw.HoistedSpeedupModel(8), dataflow.NewPlan(dataflow.MP, b, dataflow.Unbounded).HoistedSpeedup(8); got != want {
		t.Fatalf("HoistedSpeedupModel(8) = %v, the plan's %v", got, want)
	}
}

// heldScratch counts the rows a state points at besides its row table:
// run scratch (y, its accumulators, the ModDown and drawn rows) and the
// row headers its apply tiles set. Between runs it must be zero.
func heldScratch(h *Hoisted) int {
	held := nonNil(h.y)
	for p := range h.acc {
		held += nonNil(h.acc[p].Coeffs) + nonNil(h.yP[p])
	}
	for t := range h.drawn {
		held += nonNil(h.drawn[t]) + nonNil(h.upRows[t]) + nonNil(h.kbRows[t]) + nonNil(h.kaRows[t]) + nonNil(h.packedRows[t])
	}
	return held
}

// nonNil counts the rows of rows that are not nil.
func nonNil[T any](rows [][]T) int {
	n := 0
	for _, row := range rows {
		if row != nil {
			n++
		}
	}
	return n
}

// TestHoistedHoldsNoScratchBetweenRuns: a state keeps only its ModUp
// rows between graph runs. After a hoist, after every replay (inline and
// on an engine, with the key in either form) and after Release, it
// points at no run-scratch row and at no key row, so a stray tile
// panics instead of writing into another run's slab; and so does every
// state a per-rotation switch hands back to the pool.
func TestHoistedHoldsNoScratchBetweenRuns(t *testing.T) {
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
	empty := func(what string, h *Hoisted) {
		t.Helper()
		if n := heldScratch(h); n != 0 {
			t.Errorf("after %s the state holds %d scratch or key rows, want none", what, n)
		}
	}
	h := sw.HoistParallel(engine.Inline(), dataflow.MP, d)
	empty("a hoist", h)
	for _, kf := range keyForms(t, evk) {
		want0, want1 := sw.KeySwitch(d, kf.key)
		h.SwitchParallelInto(engine.Inline(), kf.key, c0, c1)
		empty("an inline replay with the "+kf.name+" key", h)
		h.SwitchParallelInto(e, kf.key, c0, c1)
		empty("an engine replay with the "+kf.name+" key", h)
		if !c0.Equal(want0) || !c1.Equal(want1) {
			t.Errorf("replay with the %s key differs from KeySwitch", kf.name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a ModDown tile run between runs did not panic")
			}
		}()
		h.downPrepTower(0, 0)
	}()
	h.Release()
	empty("Release", h)
	for _, kf := range keyForms(t, evk) {
		for _, df := range engineDataflows {
			sw.SwitchParallelInto(e, df, d, kf.key, c0, c1)
			pooled := sw.state(df)
			empty(fmt.Sprintf("a %s switch with the %s key", df, kf.name), pooled)
			pooled.Release()
		}
	}
}
