package hks

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

// Expand(Compress(evk)) must reproduce the generated key bit for bit,
// and the two forms' footprints must satisfy the pinned relation:
// compressed = the B-half at ⌈bits(q_t)/8⌉ bytes per residue + 32
// bytes of seed per digit.
func TestCompressRoundTrip(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 32, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	c, ok := evk.Compress()
	if !ok {
		t.Fatal("generated evk did not compress")
	}
	got := c.Expand(r)
	for j := range evk.B {
		if !got.B[j].Equal(evk.B[j]) {
			t.Fatalf("digit %d B differs after compress/expand", j)
		}
		if !got.A[j].Equal(evk.A[j]) {
			t.Fatalf("digit %d A differs after compress/expand", j)
		}
	}
	if again, ok := got.Compress(); !ok || !reflect.DeepEqual(again, c) {
		t.Fatal("the expanded key does not compress back to the same packed key")
	}

	// dnum 2 × 2 halves × 6 towers × N 32 × 8 bytes, and
	// dnum 2 × (6 towers × N 32 × 4 bytes of a 30/31-bit residue + 32).
	const wantDense, wantComp = 6144, 1600
	if evk.SizeBytes() != wantDense || c.DenseSizeBytes() != wantDense {
		t.Fatalf("dense footprint %d/%d, want %d", evk.SizeBytes(), c.DenseSizeBytes(), wantDense)
	}
	if c.SizeBytes() != wantComp {
		t.Fatalf("compressed footprint %d, want %d", c.SizeBytes(), wantComp)
	}
	if c.SizeBytes() >= evk.SizeBytes() {
		t.Fatal("compression did not shrink the key")
	}

	// A key without seeds (legacy/hand-built) must refuse to compress.
	if _, ok := (&Evk{B: evk.B, A: evk.A}).Compress(); ok {
		t.Fatal("seedless evk compressed")
	}

	// CheckMaterial accepts both forms and rejects digit mismatches.
	if err := sw.CheckMaterial(evk); err != nil {
		t.Fatal(err)
	}
	if err := sw.CheckMaterial(c); err != nil {
		t.Fatal(err)
	}
	sw4, err := NewSwitcher(r, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw4.CheckMaterial(c); err == nil {
		t.Fatal("digit-count mismatch accepted")
	}
	if err := sw.CheckMaterial(nil); err == nil {
		t.Fatal("nil material accepted")
	}
}

// A compressed key streams its A-half out of the seeds in the apply
// tiles, into rows the hoisted state keeps per tower. One hoisted
// state, replayed against the compressed key, then the dense key, then
// the compressed key again — serially and on the engine — must match
// KeySwitch every time: rows drawn for one replay may not leak into the
// next, whichever form the next binds.
func TestSwitchStreamedBitExact(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 32, 6, 30, 3, 31)
	sw, err := NewSwitcher(r, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	evk := sw.GenEvk(s, sOld, sNew)
	c, ok := evk.Compress()
	if !ok {
		t.Fatal("evk did not compress")
	}
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	want0, want1 := refKeySwitch(sw, d, evk)

	e := engine.New(4)
	defer e.Close()
	for _, df := range engineDataflows {
		h := sw.HoistParallel(e, df, d)
		for i, key := range []KeyMaterial{c, evk, c} {
			g0, g1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
			h.SwitchParallelInto(e, key, g0, g1)
			if !g0.Equal(want0) || !g1.Equal(want1) {
				t.Fatalf("%v replay %d: SwitchParallelInto differs from KeySwitch", df, i)
			}
			h.SwitchInto(key, g0, g1)
			if !g0.Equal(want0) || !g1.Equal(want1) {
				t.Fatalf("%v replay %d: SwitchInto differs from KeySwitch", df, i)
			}
		}
		h.Release()
	}
}

// A hoisted replay of a compressed key must panic (not corrupt) on
// digit-structure and aliasing misuse, serially and on the engine,
// matching the dense replay's checks.
func TestSwitchStreamedChecks(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 32, 4, 30, 2, 31)
	sw2, _ := NewSwitcher(r, 3, 2)
	sw4, _ := NewSwitcher(r, 3, 4)
	c, _ := sw4.GenEvk(s, sOld, sNew).Compress()
	d := s.Uniform(sw2.QBasis())
	d.IsNTT = true
	h := sw2.Hoist(d)
	defer h.Release()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	c0 := r.NewPoly(sw2.QBasis())
	c1 := r.NewPoly(sw2.QBasis())
	mustPanic("digit mismatch", func() { h.SwitchParallelInto(nil, c, c0, c1) })
	mustPanic("digit mismatch, serial", func() { h.SwitchInto(c, c0, c1) })
	c2, _ := sw2.GenEvk(s, sOld, sNew).Compress()
	mustPanic("aliased outputs", func() { h.SwitchParallelInto(nil, c2, c0, c0) })
	mustPanic("aliased outputs, serial", func() { h.SwitchInto(c2, c0, c0) })
}

// A warm HoistParallel → SwitchParallelInto → Release cycle with a
// compressed key allocates no polynomial row: the A-half is drawn into
// the pooled state's rows, the state comes out of the switcher's pool.
// What a cycle does allocate — the engine's completion channels — is a
// few hundred bytes, so the pin is on bytes, with a ring large enough
// that one row (8 KiB) dwarfs them. It runs on one P, like
// testing.AllocsPerRun: a sync.Pool keeps one slot per P private, and
// a goroutine that moved between Put and Get would miss it.
func TestStreamedCycleAllocatesNoRows(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	r, s, sOld, sNew := testSetup(t, 1024, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := sw.GenEvk(s, sOld, sNew).Compress()
	if !ok {
		t.Fatal("evk did not compress")
	}
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	e := engine.New(2)
	defer e.Close()
	c0, c1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
	cycle := func() {
		h := sw.HoistParallel(e, dataflow.OC, d)
		h.SwitchParallelInto(e, c, c0, c1)
		h.Release()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycle() // warm: the state, its graphs, its drawn rows
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	row := uint64(r.N * 8)
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / runs; perCycle >= row {
		t.Fatalf("warm compressed replay cycle allocates %d bytes in %d allocations, want under one %d-byte row",
			perCycle, (after.Mallocs-before.Mallocs)/runs, row)
	}
}

// Replays of different compressed keys over one switcher, from several
// goroutines at once — some hoisted states released without ever being
// replayed, the way a failed request leaves one. The drawn rows live in
// pooled states that move between goroutines, so a state released
// while its rows were still being drawn or read would hand another
// goroutine's replay the wrong key: every output is compared with the
// whole-polynomial reference.
func TestStreamedReleaseConcurrent(t *testing.T) {
	r, s, sOld, sNew := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(2)
	defer e.Close()
	const goroutines, rounds = 6, 8
	d := s.Uniform(sw.QBasis())
	d.IsNTT = true
	type job struct {
		c            *CompressedEvk
		want0, want1 *ring.Poly
	}
	jobs := make([]job, goroutines)
	for i := range jobs {
		evk := sw.GenEvk(s, sOld, sNew)
		jobs[i].c, _ = evk.Compress()
		jobs[i].want0, jobs[i].want1 = refKeySwitch(sw, d, evk)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i, jb := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c0, c1 := r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
			for round := 0; round < rounds; round++ {
				abandoned := sw.HoistParallel(e, dataflow.DC, d)
				h := sw.HoistParallel(e, dataflow.MP, d)
				abandoned.Release()
				h.SwitchParallelInto(e, jb.c, c0, c1)
				h.Release()
				if !c0.Equal(jb.want0) || !c1.Equal(jb.want1) {
					errs <- fmt.Errorf("goroutine %d round %d: compressed replay differs from the reference", i, round)
					return
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
