package hks

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

func TestSwitcherPool(t *testing.T) {
	r, err := ring.NewRingGenerated(32, 4, 40, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSwitcherPool(r, 2)
	if sw, _ := p.Switcher(0); sw.R != r {
		t.Fatal("pooled switcher is not over the pool's ring")
	}

	sw3, err := p.Switcher(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw3.QBasis())-1 != 3 || sw3.Dnum != 2 {
		t.Fatalf("level 3 switcher: level %d dnum %d, want 3/2", len(sw3.QBasis())-1, sw3.Dnum)
	}
	if again, _ := p.Switcher(3); again != sw3 {
		t.Fatal("switcher not memoized")
	}

	// dnum clamps to level+1 at low levels.
	sw0, err := p.Switcher(0)
	if err != nil {
		t.Fatal(err)
	}
	if sw0.Dnum != 1 {
		t.Fatalf("level 0 dnum %d, want clamp to 1", sw0.Dnum)
	}

	for _, bad := range []int{-1, r.NumQ} {
		if _, err := p.Switcher(bad); err == nil {
			t.Errorf("level %d accepted", bad)
		}
	}
}

// TestSwitcherPoolConcurrentColdLevels hammers the memoization path
// the serving layer leans on: many goroutines resolving many distinct
// levels, every level cold, each goroutine touching the levels in a
// different order. This exercises the entry-creation race (several
// goroutines installing the slot for one level), construction outside
// the map lock (a cold level's NewSwitcher running while other levels
// are being installed and read), and the read-mostly fast path — all
// under -race. Every goroutine must observe the identical instance
// per level, with the low-level dnum clamp applied.
func TestSwitcherPoolConcurrentColdLevels(t *testing.T) {
	r, err := ring.NewRingGenerated(32, 8, 40, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSwitcherPool(r, 3)
	const (
		workers = 16
		levels  = 8
		rounds  = 4
	)
	// Level 3 (four towers over three digits) leaves an empty digit:
	// construction fails there, and the pool memoizes the error —
	// every goroutine must observe it, consistently, without poisoning
	// the neighbouring levels.
	const badLevel = 3
	got := make([][]*Switcher, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		got[w] = make([]*Switcher, levels)
		go func(w int) {
			defer wg.Done()
			// Revisit every level a few times, starting at a
			// different offset per goroutine so first-use
			// construction is contended on every level by several
			// goroutines at once.
			for i := 0; i < rounds*levels; i++ {
				l := (w + i) % levels
				sw, err := p.Switcher(l)
				if l == badLevel {
					if err == nil {
						t.Errorf("level %d: empty digit accepted", l)
						return
					}
					continue
				}
				if err != nil {
					t.Errorf("level %d: %v", l, err)
					return
				}
				if got[w][l] == nil {
					got[w][l] = sw
				} else if got[w][l] != sw {
					t.Errorf("level %d: instance changed between calls", l)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for l := 0; l < levels; l++ {
		if l == badLevel {
			continue
		}
		sw := got[0][l]
		if sw == nil {
			t.Fatalf("level %d never resolved", l)
		}
		if len(sw.QBasis())-1 != l {
			t.Fatalf("level %d switcher reports level %d", l, len(sw.QBasis())-1)
		}
		wantDnum := 3
		if l+1 < wantDnum {
			wantDnum = l + 1 // clamp: no more digits than active towers
		}
		if sw.Dnum != wantDnum {
			t.Fatalf("level %d dnum %d, want %d", l, sw.Dnum, wantDnum)
		}
		for w := 1; w < workers; w++ {
			if got[w][l] != sw {
				t.Fatalf("level %d: goroutines observed distinct instances", l)
			}
		}
	}
}

// TestSwitcherPoolConcurrent races many goroutines on one level: all
// must observe the identical switcher (one construction).
func TestSwitcherPoolConcurrent(t *testing.T) {
	r, err := ring.NewRingGenerated(32, 4, 40, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSwitcherPool(r, 2)
	const n = 8
	got := make([]*Switcher, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sw, err := p.Switcher(2)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = sw
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Switcher calls built distinct instances")
		}
	}
}

// TestOneSlabAcrossLevels pins that run scratch scales with the runs in
// flight, not with states or levels: with GC paused, a sequential sweep
// of switches over levels 5…1 of one SwitcherPool, per-rotation and
// hoisted, allocates exactly one slab — its rows, and with a
// compressed key its drawn rows — and so does the sweep back up, whose
// first run is at the lowest level, because slabs are sized for the
// ring's top level. Every level's state is warm; the slab pool starts
// each sweep empty. It runs on one P, as testing.AllocsPerRun does: a
// sync.Pool keeps one slot per P private.
func TestOneSlabAcrossLevels(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r, s, sOld, sNew := testSetup(t, 1024, 6, 30, 3, 31)
	const dnum = 2
	p := NewSwitcherPool(r, dnum)
	type level struct {
		sw     *Switcher
		keys   []keyForm
		d      *ring.Poly
		c0, c1 *ring.Poly
	}
	var down []level // levels 5…1
	for l := 5; l >= 1; l-- {
		sw, err := p.Switcher(l)
		if err != nil {
			t.Fatal(err)
		}
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		down = append(down, level{sw, keyForms(t, sw.GenEvk(s, sOld, sNew)), d, r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())})
	}
	up := slices.Clone(down)
	slices.Reverse(up)
	sweep := func(levels []level, form int) {
		for _, lv := range levels {
			key := lv.keys[form].key
			lv.sw.SwitchParallelInto(engine.Inline(), dataflow.OC, lv.d, key, lv.c0, lv.c1)
			h := lv.sw.HoistParallel(engine.Inline(), dataflow.MP, lv.d)
			h.SwitchParallelInto(engine.Inline(), key, lv.c0, lv.c1)
			h.Release()
		}
	}
	for form := range down[0].keys {
		sweep(down, form) // warm every level's states, graphs and converter scratch
	}
	rowsSlab, drawnSlab := uint64(slabLen(r)*8), uint64(r.N*(r.NumQ+r.NumP)*dnum*8)
	for form, kf := range down[0].keys {
		want := rowsSlab
		if _, ok := kf.key.(*CompressedEvk); ok {
			want += drawnSlab
		}
		for _, tc := range []struct {
			name   string
			levels []level
		}{{"5…1", down}, {"1…5", up}} {
			for slabs.Get() != nil {
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sweep(tc.levels, form)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got < want || got >= want+min(rowsSlab, drawnSlab) {
				t.Errorf("a sweep over levels %s with the %s key allocates %d bytes in %d allocations, want one slab, %d bytes",
					tc.name, kf.name, got, after.Mallocs-before.Mallocs, want)
			}
		}
	}
}

// TestSlabsSharedAcrossLevelsConcurrent runs hoisted and per-rotation
// switches at several levels of one ring at once, with dense and
// compressed keys, on a 2-worker engine: every level's runs borrow
// from the one slab pool, so a slab handed back while a tile still
// used it, or carved at one level and read at another, shows as a
// result that differs from KeySwitch (and, under -race, as a race).
func TestSlabsSharedAcrossLevelsConcurrent(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	r, s, sOld, sNew := testSetup(t, 64, 6, 30, 3, 31)
	p := NewSwitcherPool(r, 2)
	type job struct {
		sw           *Switcher
		name         string
		key          KeyMaterial
		d            *ring.Poly
		want0, want1 *ring.Poly
	}
	var jobs []job
	for _, l := range []int{5, 3, 1} {
		sw, err := p.Switcher(l)
		if err != nil {
			t.Fatal(err)
		}
		d := s.Uniform(sw.QBasis())
		d.IsNTT = true
		for _, kf := range keyForms(t, sw.GenEvk(s, sOld, sNew)) {
			want0, want1 := sw.KeySwitch(d, kf.key)
			jobs = append(jobs, job{sw, fmt.Sprintf("level %d %s", l, kf.name), kf.key, d, want0, want1})
		}
	}
	const goroutines, rounds = 6, 4
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds * len(jobs) {
				jb := jobs[(g+i)%len(jobs)]
				df := engineDataflows[(g+i)%len(engineDataflows)]
				var c0, c1 *ring.Poly
				if (g+i)%2 == 0 {
					c0, c1 = switchParallel(jb.sw, e, df, jb.d, jb.key)
				} else {
					c0, c1 = replayParallel(jb.sw, e, df, jb.d, jb.key)
				}
				if !c0.Equal(jb.want0) || !c1.Equal(jb.want1) {
					t.Errorf("%s %s switch differs from KeySwitch", jb.name, df)
					return
				}
			}
		}()
	}
	wg.Wait()
}
