package hks

import (
	"sync"
	"testing"

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
	if sw3.Level != 3 || sw3.Dnum != 2 {
		t.Fatalf("level 3 switcher: level %d dnum %d, want 3/2", sw3.Level, sw3.Dnum)
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
		if sw.Level != l {
			t.Fatalf("level %d switcher reports level %d", l, sw.Level)
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
