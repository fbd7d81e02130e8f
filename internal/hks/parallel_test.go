package hks

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// engineDataflows are the dataflow shapes SwitchParallelInto executes.
var engineDataflows = []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC, dataflow.OCF}

// TestSwitchParallelBitExact asserts the serial and the engine-backed
// switch, and a replay of a hoist on the engine, equal the
// whole-polynomial reference bit for bit, for every dataflow, across
// levels, digit counts, and uneven digit partitions, with the key dense
// and compressed.
func TestSwitchParallelBitExact(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	for _, tc := range []struct {
		name                        string
		n, numQ, qBits, numP, pBits int
		level, dnum                 int
	}{
		{"dnum2", 64, 4, 30, 2, 31, 3, 2},
		{"dnum4_alpha1", 64, 4, 30, 1, 31, 3, 4},
		{"dnum1_single_digit", 64, 2, 30, 3, 31, 1, 1},
		{"lower_level", 64, 6, 30, 2, 31, 3, 2},
		{"uneven_digits", 64, 5, 30, 3, 31, 4, 2},
		{"top_level_many_digits", 32, 6, 30, 2, 31, 5, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, s, sOld, sNew := testSetup(t, tc.n, tc.numQ, tc.qBits, tc.numP, tc.pBits)
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			evk := sw.GenEvk(s, sOld, sNew)
			d := s.Uniform(sw.QBasis())
			d.IsNTT = true
			want0, want1 := refKeySwitch(sw, d, evk)
			forms := keyForms(t, evk)
			for _, kf := range forms {
				if got0, got1 := sw.KeySwitch(d, kf.key); !got0.Equal(want0) || !got1.Equal(want1) {
					t.Fatalf("serial KeySwitch with the %s key differs from the reference", kf.name)
				}
			}
			for _, df := range engineDataflows {
				t.Run(df.String(), func(t *testing.T) {
					for _, kf := range forms {
						got0, got1 := switchParallel(sw, e, df, d, kf.key)
						if !got0.Equal(want0) || !got1.Equal(want1) {
							t.Fatalf("%s parallel switch with the %s key differs from the reference", df, kf.name)
						}
						got0, got1 = replayParallel(sw, e, df, d, kf.key)
						if !got0.Equal(want0) || !got1.Equal(want1) {
							t.Fatalf("%s hoisted replay of the %s key differs from the reference", df, kf.name)
						}
					}
				})
			}
		})
	}
}

// TestSwitchParallelStateReuse runs the same switcher repeatedly so
// every call after the first draws a pooled state, and interleaves
// dataflows to catch cross-pool contamination.
func TestSwitchParallelStateReuse(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	r, s, sOld, sNew := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	for rep := 0; rep < 3; rep++ {
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		want0, want1 := refKeySwitch(sw, d, evk)
		for _, df := range engineDataflows {
			got0, got1 := switchParallel(sw, e, df, d, evk)
			if !got0.Equal(want0) || !got1.Equal(want1) {
				t.Fatalf("rep %d %s: pooled state produced a different result", rep, df)
			}
		}
	}
}

// TestSwitchParallelIntoReuse asserts the zero-allocation entry point
// works with reused output polynomials.
func TestSwitchParallelIntoReuse(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	r, s, sOld, sNew := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	c0 := r.NewPoly(sw.QBasis())
	c1 := r.NewPoly(sw.QBasis())
	for rep := 0; rep < 3; rep++ {
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		want0, want1 := refKeySwitch(sw, d, evk)
		sw.SwitchParallelInto(e, dataflow.OC, d, evk, c0, c1)
		if !c0.Equal(want0) || !c1.Equal(want1) {
			t.Fatalf("rep %d: SwitchParallelInto differs from serial", rep)
		}
	}
}

// TestSwitchParallelConcurrent hammers one immutable Switcher from
// many goroutines mixing dataflows — the pattern a serving layer
// produces — and checks every result against the serial reference.
// Run with -race this also proves the state pools are data-race free.
func TestSwitchParallelConcurrent(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	r, s, sOld, sNew := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)

	const goroutines = 8
	type job struct {
		d            *ring.Poly
		want0, want1 *ring.Poly
	}
	jobs := make([]job, goroutines)
	for i := range jobs {
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		w0, w1 := refKeySwitch(sw, d, evk)
		jobs[i] = job{d, w0, w1}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			df := engineDataflows[i%len(engineDataflows)]
			for rep := 0; rep < 4; rep++ {
				g0, g1 := switchParallel(sw, e, df, jobs[i].d, evk)
				if !g0.Equal(jobs[i].want0) || !g1.Equal(jobs[i].want1) {
					errs <- fmt.Errorf("goroutine %d rep %d (%s): result differs", i, rep, df)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSwitchParallelNilEngine exercises the engine.Default() fallback.
func TestSwitchParallelNilEngine(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	want0, want1 := refKeySwitch(sw, d, evk)
	got0, got1 := switchParallel(sw, nil, dataflow.MP, d, evk)
	if !got0.Equal(want0) || !got1.Equal(want1) {
		t.Fatal("nil-engine SwitchParallelInto differs from serial")
	}
}

// TestSwitchParallelValidation covers the input checks, for key material
// of either form.
func TestSwitchParallelValidation(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	r, s, sOld, sNew := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}

	coeff := s.Uniform(sw.QBasis()) // not NTT domain
	mustPanic("coefficient-domain input", func() { switchParallel(sw, e, dataflow.MP, coeff, evk) })

	wrong := s.Uniform(sw.DBasis())
	wrong.IsNTT = true
	mustPanic("wrong basis", func() { switchParallel(sw, e, dataflow.MP, wrong, evk) })

	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	short := &Evk{B: evk.B[:1], A: evk.A[:1]}
	mustPanic("short evk", func() { switchParallel(sw, e, dataflow.MP, d, short) })

	mustPanic("unknown dataflow", func() { switchParallel(sw, e, dataflow.Dataflow(99), d, evk) })

	cevk, _ := evk.Compress()
	shortC := &CompressedEvk{B: cevk.B[:1], Seeds: cevk.Seeds, Basis: cevk.Basis, N: cevk.N}
	mustPanic("short compressed evk", func() { switchParallel(sw, e, dataflow.MP, d, shortC) })
	seedless := &CompressedEvk{B: cevk.B, Basis: cevk.Basis, N: cevk.N}
	mustPanic("compressed evk without seeds", func() { switchParallel(sw, e, dataflow.OC, d, seedless) })

	out := r.NewPoly(sw.QBasis())
	for _, kf := range keyForms(t, evk) {
		mustPanic("aliased outputs, "+kf.name, func() { sw.SwitchParallelInto(e, dataflow.MP, d, kf.key, out, out) })
		mustPanic("output aliasing input, "+kf.name, func() { sw.SwitchParallelInto(e, dataflow.MP, d, kf.key, d, out) })
	}
}

// TestWideModuliAllPathsAgree runs every execution path on rings with
// 60-bit Q and 61-bit P towers. Every other suite uses 30–41-bit
// moduli, where the lazy kernels' headroom (butterfly values below 4q,
// 128-bit accumulate sums) is never approached; here 4q sits just
// under 2^64. The paths and the reference share their kernels, so
// agreement alone would not catch a kernel that is wrong everywhere:
// the reference result is also held to the key-switch noise bound (and
// TestKeySwitchGolden pins these rings to recorded digests).
func TestWideModuliAllPathsAgree(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	for _, tc := range []struct {
		name          string
		n, numQ, numP int
		level, dnum   int
	}{
		{"dnum2", 64, 4, 2, 3, 2},
		{"dnum4_alpha1", 64, 4, 1, 3, 4},
		{"uneven_digits", 32, 5, 3, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, s, sOld, sNew := testSetup(t, tc.n, tc.numQ, 60, tc.numP, 61)
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			evk := sw.GenEvk(s, sOld, sNew)
			d := s.Uniform(sw.QBasis())
			d.IsNTT = true

			want0, want1 := refKeySwitch(sw, d, evk)
			errNorm := keySwitchError(r, sw, d, want0, want1, sOld, sNew)
			if errNorm.Sign() == 0 || errNorm.Cmp(new(big.Int).Lsh(big.NewInt(1), 20)) > 0 {
				t.Fatalf("reference key-switch error %v outside (0, 2^20]", errNorm)
			}
			check := func(path string, c0, c1 *ring.Poly) {
				t.Helper()
				if !c0.Equal(want0) || !c1.Equal(want1) {
					t.Fatalf("%s differs from the reference", path)
				}
			}
			c0s, c1s := sw.SwitchHoisted(d, []*Evk{evk})
			check("hoisted serial", c0s[0], c1s[0])
			for _, kf := range keyForms(t, evk) {
				c0, c1 := sw.KeySwitch(d, kf.key)
				check(kf.name+" serial", c0, c1)
				for _, df := range engineDataflows {
					c0, c1 = switchParallel(sw, e, df, d, kf.key)
					check(kf.name+" "+df.String(), c0, c1)
					c0, c1 = replayParallel(sw, e, df, d, kf.key)
					check(kf.name+" hoisted "+df.String(), c0, c1)
				}
			}
		})
	}
}

// TestApplyTilesZeroAlloc runs OC's tower tasks — the "oc" nodes of its
// fused graph — on a warm state: on-the-fly conversion of every
// non-bypass digit, then the apply tile every dataflow shares. The row
// headers handed to the accumulate kernel live in the state, and so do
// the rows a compressed key's A-half is drawn into once the state has
// bound one, so the tiles, and the task that strings them together,
// allocate nothing with the key in either form.
func TestApplyTilesZeroAlloc(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	st := sw.state(dataflow.OC, obs.DataflowSerial)
	st.d = d
	for i := 0; i < sw.ell(); i++ {
		st.prepTower(i)
	}
	var towers []func()
	for _, n := range graphNodes(st.schedule(whole)) {
		if n.name == "oc" {
			towers = append(towers, n.run)
		}
	}
	if len(towers) != len(sw.dBasis) {
		t.Fatalf("OC's fused graph has %d tower tasks, want %d", len(towers), len(sw.dBasis))
	}
	c0, c1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
	for _, kf := range keyForms(t, evk) {
		st.bind(kf.key, c0, c1)
		if allocs := testing.AllocsPerRun(10, func() {
			for _, tower := range towers {
				tower()
			}
		}); allocs != 0 {
			t.Fatalf("apply tiles with the %s key allocate %v times per run, want 0", kf.name, allocs)
		}
	}
}
