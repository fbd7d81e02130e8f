package bconv

import (
	"testing"

	"ciflow/internal/ring"
)

func parallelSetup(t *testing.T) (*ring.Ring, *Converter, *ring.Poly) {
	t.Helper()
	r, err := ring.NewRingGenerated(64, 4, 30, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(r, r.QBasis(3), r.PBasis())
	if err != nil {
		t.Fatal(err)
	}
	s := ring.NewSampler(r, 5)
	in := s.Uniform(c.src)
	return r, c, in
}

func TestTilesComposeToConvert(t *testing.T) {
	// yScaleRow + ConvertTowerFromY (internal/hks schedules the second
	// as a tile on the engine and folds the first, by its YScale
	// constant, into its INTT) must reproduce Convert column by column;
	// adding Overshoot + ConvertExactTowerFromY must reproduce
	// ConvertExact.
	r, c, in := parallelSetup(t)
	n := r.N

	// The ŷ rows, then the overshoot row the exact tiles read.
	y := make([][]uint64, len(c.src)+1)
	for i := range y {
		y[i] = make([]uint64, n)
	}
	for i := range c.src {
		c.yScaleRow(i, in.Coeffs[i], y[i])
	}

	want := r.NewPoly(c.Dst())
	c.Convert(in, want)
	got := make([]uint64, n)
	for j := range c.Dst() {
		c.ConvertTowerFromY(y, j, got)
		for k := 0; k < n; k++ {
			if got[k] != want.Coeffs[j][k] {
				t.Fatalf("tile dst %d coeff %d: %d != %d", j, k, got[k], want.Coeffs[j][k])
			}
		}
	}

	// Chunked overshoot must agree with a single pass.
	u := y[len(c.src)]
	c.Overshoot(y, 0, n)
	uWhole := append([]uint64(nil), u...)
	clear(u)
	c.Overshoot(y, 0, n/2)
	c.Overshoot(y, n/2, n)
	for k := range u {
		if u[k] != uWhole[k] {
			t.Fatalf("chunked overshoot differs at %d", k)
		}
	}

	wantEx := r.NewPoly(c.Dst())
	c.ConvertExact(in, wantEx)
	for j := range c.Dst() {
		c.ConvertExactTowerFromY(y, j, got)
		for k := 0; k < n; k++ {
			if got[k] != wantEx.Coeffs[j][k] {
				t.Fatalf("exact tile dst %d coeff %d: %d != %d", j, k, got[k], wantEx.Coeffs[j][k])
			}
		}
	}
}

func TestConvertScratchReuseIsClean(t *testing.T) {
	// Back-to-back conversions through the pooled scratch must not
	// leak state between calls.
	r, c, in := parallelSetup(t)
	s := ring.NewSampler(r, 9)
	in2 := s.Uniform(c.src)

	a := r.NewPoly(c.Dst())
	b := r.NewPoly(c.Dst())
	c.Convert(in, a)
	c.Convert(in2, b)
	fresh := r.NewPoly(c.Dst())
	c.Convert(in2, fresh)
	if !b.Equal(fresh) {
		t.Fatal("scratch reuse changed conversion result")
	}
}

// TestTilesZeroAlloc pins the per-tower tiles to zero allocations:
// their Shoup constants and accumulate bound are precomputed in New,
// and the ŷ rows go to the kernel as the caller's slice.
func TestTilesZeroAlloc(t *testing.T) {
	r, c, in := parallelSetup(t)
	y := make([][]uint64, len(c.src)+1)
	for i := range y {
		y[i] = make([]uint64, r.N)
	}
	dst := make([]uint64, r.N)
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range c.src {
			c.yScaleRow(i, in.Coeffs[i], y[i])
		}
		c.Overshoot(y, 0, r.N)
		for j := range c.Dst() {
			c.ConvertTowerFromY(y, j, dst)
			c.ConvertExactTowerFromY(y, j, dst)
		}
	}); allocs != 0 {
		t.Fatalf("conversion tiles allocate %v times per run, want 0", allocs)
	}
}
