package hks

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// update regenerates the committed graph golden:
//
//	go test ./internal/hks -run TestFusedGraphShape -update
var update = flag.Bool("update", false, "rewrite testdata/graphs.golden")

// graphsBuilt counts the graphs a state has built so far.
func graphsBuilt(h *Hoisted) (n int) {
	for _, gs := range h.graphs {
		for _, g := range gs {
			if g != nil {
				n++
			}
		}
	}
	return n
}

// TestFusedGraphShape pins what the engine schedules on the benchmark
// shape (N=2^13, 6 Q towers, 3 P towers, dnum 3). The tile names and
// counts of a per-rotation switch were recorded at the commit before
// the pipelines were unified; they are read from the worker spans of a
// SwitchParallelInto run with obs's one tracer switch on, so they also
// pin that every task records its span. testdata/graphs.golden holds
// the node and edge sets of the fused, hoist and replay graphs of MP,
// DC and OC — every node by its tile name and the rows it writes, with
// the nodes it waits for — compared as sets: a builder may create
// nodes in another order, it may not add, drop or rewire one. The
// fused and MP sections were recorded before the graphs became a visit
// of the dataflow plan; OC's hoist and replay sections are its own
// plan's halves. The fused graphs are the paper's subject; a switch
// must not turn into hoist-then-replay, which has one barrier more.
// OCF's fused, hoist and replay graphs each have exactly OC's nodes and
// edges. The test also pins that construction is lazy: NewSwitcher
// pools no state, and a state builds a graph when it first runs it.
func TestFusedGraphShape(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 1<<13, 6, 40, 3, 41)
	sw, err := NewSwitcher(r, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sw.states.Get() != nil {
		t.Fatal("NewSwitcher pooled a state")
	}
	evk := sw.GenEvk(s, sOld, sNew)
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	want0, want1 := refKeySwitch(sw, d, evk)
	e := engine.New(2)
	defer e.Close()
	defer obs.DisableTracer()

	down := map[string]int{"down.prep": 6, "down.over": 8, "down.out": 12}
	var got bytes.Buffer
	blocks := map[dataflow.Dataflow][]string{}
	for _, tc := range []struct {
		df   dataflow.Dataflow
		want map[string]int
	}{
		{dataflow.MP, map[string]int{"modup.prep": 6, "modup.conv": 21, "apply": 9}},
		{dataflow.DC, map[string]int{"modup.digit": 3, "apply": 9}},
		{dataflow.OC, map[string]int{"modup.prep": 6, "oc": 9}},
		{dataflow.OCF, map[string]int{"modup.prep": 6, "oc": 9}},
	} {
		maps.Copy(tc.want, down)
		tr := obs.EnableTracer() // the one switch: a span per executed task
		switchParallel(sw, e, tc.df, d, evk)
		obs.DisableTracer()
		ran := map[string]int{}
		for _, sp := range tr.Spans() {
			ran[sp.Name]++
		}
		if !maps.Equal(ran, tc.want) {
			t.Errorf("%s ran tiles %v, want %v", tc.df, ran, tc.want)
		}
		h := newState(sw)
		h.df = tc.df
		if graphsBuilt(h) != 0 {
			t.Errorf("%s: a new state already has a graph", tc.df)
		}
		nodes := 0
		for _, n := range tc.want {
			nodes += n
		}
		if g := h.schedule(whole); g.Len() != nodes || graphsBuilt(h) != 1 {
			t.Errorf("%s fused graph has %d nodes, want %d, and must be the only graph built", tc.df, g.Len(), nodes)
		}

		// The three graphs by behaviour. Running a graph's nodes in
		// creation order is itself a schedule, so the outputs are
		// checked too.
		c0, c1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
		exact := func(what string) {
			t.Helper()
			if !c0.Equal(want0) || !c1.Equal(want1) {
				t.Errorf("%s %s graph, run node by node, differs from the reference", tc.df, what)
			}
		}
		h.d = d
		h.bind(evk, c0, c1)
		slab := h.borrow()
		fusedEdges := graphEdges(h, h.schedule(whole), h.probes(true, true))
		h.giveBack(slab)
		h.unbind()
		exact("fused")
		h = newState(sw)
		h.df = tc.df
		h.d = d
		slab = h.borrow()
		hoistEdges := graphEdges(h, h.schedule(modUp), h.probes(true, false))
		h.giveBack(slab)
		h.bind(evk, c0, c1)
		slab = h.borrow()
		replayEdges := graphEdges(h, h.schedule(replay), h.probes(false, true))
		h.giveBack(slab)
		h.unbind()
		exact("replay")
		var block []string
		for _, gr := range []struct {
			name  string
			lines []string
		}{{"fused", fusedEdges}, {"hoist", hoistEdges}, {"replay", replayEdges}} {
			block = append(block, fmt.Sprintf("== %s: %d nodes", gr.name, len(gr.lines)))
			block = append(block, gr.lines...)
		}
		blocks[tc.df] = block
		if tc.df != dataflow.OCF {
			fmt.Fprintf(&got, "==== %s\n%s\n", tc.df, strings.Join(block, "\n"))
		}
	}
	if !slices.Equal(blocks[dataflow.OCF], blocks[dataflow.OC]) {
		t.Errorf("OCF's graphs differ from OC's:\n%s\nwant\n%s",
			strings.Join(blocks[dataflow.OCF], "\n"), strings.Join(blocks[dataflow.OC], "\n"))
	}

	path := filepath.Join("testdata", "graphs.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for _, l := range gl {
			if !slices.Contains(wl, l) {
				t.Errorf("not in the golden: %s", l)
			}
		}
		for _, l := range wl {
			if !slices.Contains(gl, l) {
				t.Errorf("missing from the graphs: %s", l)
			}
		}
		t.Fatalf("%s: the engine graphs changed; -update only if the schedules were meant to", path)
	}
}

// TestStatePoolInterleaved hammers the one state pool of one Switcher:
// goroutines interleave per-rotation switches, hoists, and replays of
// different inputs across all three dataflows, with one CompressedEvk
// replayed from all of them beside dense keys, so a state serves as a
// fused switch in one use and as a hoisted state in the next, and binds
// either key form. Every output is checked against refKeySwitch; under
// -race this also proves the pool, the lazily built graphs and the
// per-tower rows a compressed key is drawn into are data-race free.
func TestStatePoolInterleaved(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	r, s, _, _ := testSetup(t, 32, 5, 30, 3, 31)
	sw, err := NewSwitcher(r, 4, 2) // uneven digits
	if err != nil {
		t.Fatal(err)
	}
	evks := hoistedKeys(s, sw, 2)
	cevk, ok := evks[1].Compress()
	if !ok {
		t.Fatal("evk did not compress")
	}

	const goroutines = 9
	type job struct {
		d            *ring.Poly
		want0, want1 [2]*ring.Poly
	}
	jobs := make([]job, goroutines)
	for i := range jobs {
		jobs[i].d = s.Uniform(sw.QBasis())
		jobs[i].d.IsNTT = true
		for k, evk := range evks {
			jobs[i].want0[k], jobs[i].want1[k] = refKeySwitch(sw, jobs[i].d, evk)
		}
	}
	dfs := []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC, dataflow.OCF}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jb := jobs[i]
			c0, c1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
			check := func(what string, k int) bool {
				if c0.Equal(jb.want0[k]) && c1.Equal(jb.want1[k]) {
					return true
				}
				errs <- fmt.Errorf("goroutine %d: %s differs from the reference", i, what)
				return false
			}
			for rep := 0; rep < 6; rep++ {
				df := dfs[(i+rep)%len(dfs)]
				switch (i + rep) % 3 {
				case 0: // per-rotation, engine and serial
					sw.SwitchParallelInto(e, df, jb.d, evks[0], c0, c1)
					if !check("fused "+df.String(), 0) {
						return
					}
					c0, c1 = sw.KeySwitch(jb.d, evks[1])
					if !check("serial", 1) {
						return
					}
				case 1: // hoist, then dense replays on the engine and the caller
					h := sw.HoistParallel(e, df, jb.d)
					h.SwitchParallelInto(e, evks[0], c0, c1)
					ok := check("hoisted "+df.String(), 0)
					h.SwitchParallelInto(engine.Inline(), evks[1], c0, c1)
					ok = ok && check("hoisted serial replay", 1)
					h.Release()
					if !ok {
						return
					}
				case 2: // the compressed key fused, then hoisted and replayed beside a dense key
					sw.SwitchParallelInto(e, df, jb.d, cevk, c0, c1)
					if !check("fused compressed "+df.String(), 1) {
						return
					}
					h := sw.HoistParallel(e, df, jb.d)
					h.SwitchParallelInto(e, cevk, c0, c1)
					ok := check("compressed "+df.String(), 1)
					h.SwitchParallelInto(e, evks[0], c0, c1)
					ok = ok && check("dense after compressed", 0)
					h.SwitchParallelInto(engine.Inline(), cevk, c0, c1)
					ok = ok && check("compressed serial replay", 1)
					h.Release()
					if !ok {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// poolRetains reports whether a sync.Pool hands back what was just put
// into it. The race detector makes Put drop a quarter of its items at
// random, and then nothing that draws from a pool can be pinned to an
// allocation count.
func poolRetains() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}

// TestKeySwitchAllocs pins the serial path's allocation discipline now
// that it runs on the pooled state: once warm, KeySwitch allocates its
// two output polynomials and nothing else, and a compressed key, whose
// A-half the apply tiles draw into the run's slab, allocates what a
// dense one does.
func TestKeySwitchAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	r, s, sOld, sNew := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	var out *ring.Poly // keeps NewPoly's result on the heap, as KeySwitch's are
	outputs := 2 * testing.AllocsPerRun(10, func() { out = r.NewPoly(sw.QBasis()) })
	_ = out
	for _, kf := range keyForms(t, evk) {
		sw.KeySwitch(d, kf.key) // warm the state pool, its rows and converter scratch
		if allocs := testing.AllocsPerRun(10, func() { sw.KeySwitch(d, kf.key) }); allocs != outputs {
			t.Fatalf("warm KeySwitch with the %s key allocates %v times per run, want %v (two output polynomials)",
				kf.name, allocs, outputs)
		}
	}
}

// TestWrongLevelKeyRejected: a key generated at another level has the
// right digit count but polynomials over another basis. The Check
// functions must refuse it with an error, and every panicking entry
// point must panic with that reason — not with an index fault from
// inside a tile, which on an engine worker is all a caller would see.
func TestWrongLevelKeyRejected(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	r, s, sOld, sNew := testSetup(t, 32, 6, 30, 2, 31)
	sw, err := NewSwitcher(r, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	swLow, err := NewSwitcher(r, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	low := swLow.GenEvk(s, sOld, sNew)
	lowC, ok := low.Compress()
	if !ok {
		t.Fatal("evk did not compress")
	}
	good := sw.GenEvk(s, sOld, sNew)
	coeff := &Evk{B: good.B, A: append([]*ring.Poly(nil), good.A...)}
	coeff.A[1] = good.A[1].Copy()
	coeff.A[1].IsNTT = false

	for name, err := range map[string]error{
		"CheckEvk":             sw.CheckEvk(low),
		"CheckCompressed":      sw.CheckCompressed(lowC),
		"CheckMaterial dense":  sw.CheckMaterial(low),
		"CheckMaterial packed": sw.CheckMaterial(lowC),
	} {
		if err == nil || !strings.Contains(err.Error(), "basis") {
			t.Errorf("%s on a level-2 key at level 5: got %v, want a basis error", name, err)
		}
	}
	if err := sw.CheckEvk(coeff); err == nil || !strings.Contains(err.Error(), "NTT") {
		t.Errorf("CheckEvk on a coefficient-domain digit: got %v, want an NTT-domain error", err)
	}
	if err := sw.CheckEvk(&Evk{B: good.B, A: make([]*ring.Poly, sw.Dnum)}); err == nil {
		t.Error("CheckEvk accepted nil digits")
	}

	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	c0, c1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
	h := sw.HoistParallel(engine.Inline(), dataflow.MP, d)
	defer h.Release()
	for name, f := range map[string]func(){
		"KeySwitch":                             func() { sw.KeySwitch(d, low) },
		"SwitchParallelInto":                    func() { sw.SwitchParallelInto(e, dataflow.OC, d, low, c0, c1) },
		"inline Hoisted.SwitchParallelInto":     func() { h.SwitchParallelInto(engine.Inline(), low, c0, c1) },
		"Hoisted.SwitchParallelInto":            func() { h.SwitchParallelInto(e, low, c0, c1) },
		"compressed KeySwitch":                  func() { sw.KeySwitch(d, lowC) },
		"compressed SwitchParallelInto":         func() { sw.SwitchParallelInto(e, dataflow.OC, d, lowC, c0, c1) },
		"compressed Hoisted.SwitchParallelInto": func() { h.SwitchParallelInto(e, lowC, c0, c1) },
		"ApplyEvk":                              func() { sw.ApplyEvk(sw.ModUp(d), low) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "basis") {
					t.Errorf("%s with a wrong-level key: recovered %q, want the basis message", name, msg)
				}
			}()
			f()
		}()
	}
}
