package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 0.90, false, 0},
		{100, 0.90, true, 90},
		{101, 0.90, true, 91},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.90, false, 0},
	} {
		v, ok := percentile(ramp(c.n), c.p)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median(ramp(5)); got != 3 {
		t.Errorf("odd count: got %g, want 3", got)
	}
	if got := median(ramp(6)); got != 3.5 {
		t.Errorf("even count: got %g, want 3.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: got %g, want 0", got)
	}
	xs := ramp(4)
	median(xs)
	if xs[0] != 4 {
		t.Error("median reordered its argument")
	}
}

// One stalled slice moves the whole-window rate but not the sliced
// median, and the operation that closes the window lands in the last
// slice.
func TestSlicedRate(t *testing.T) {
	const window = 10 * time.Second
	var samples []sample
	for s := 0; s < 10; s++ {
		if s == 4 {
			continue // a stall: nothing completes in the fifth second
		}
		for k := 0; k < 20; k++ {
			end := time.Duration(s)*time.Second + time.Duration(k+1)*50*time.Millisecond
			samples = append(samples, sample{end: end, switches: 8})
		}
	}
	// The closing operation completes at exactly the window's end.
	if last := samples[len(samples)-1]; last.end != window {
		t.Fatalf("test set-up: last sample ends at %v", last.end)
	}
	if got := slicedRate(samples, window, 10); got != 160 {
		t.Errorf("sliced rate %g, want 160 switches/s", got)
	}
	total := 0
	for _, s := range samples {
		total += s.switches
	}
	if mean := float64(total) / window.Seconds(); mean != 144 {
		t.Errorf("whole-window rate %g, want 144", mean)
	}
	if got := slicedRate(nil, 0, 10); got != 0 {
		t.Errorf("empty window: got %g", got)
	}
}

// The same seed gives serve_unshared the same request sequence; each
// client draws its own.
func TestRotationDrawRepeats(t *testing.T) {
	draw := func(seed int64, client int) []int {
		rng := rotationDraw(seed, client)
		out := make([]int, 200)
		for i := range out {
			out[i] = nextRotation(rng)
			if out[i] < 1 || out[i] > unsharedKeys {
				t.Fatalf("rotation %d outside [1,%d]", out[i], unsharedKeys)
			}
		}
		return out
	}
	same := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(draw(7, 0), draw(7, 0)) {
		t.Error("same seed and client gave different sequences")
	}
	if same(draw(7, 0), draw(7, 1)) {
		t.Error("two clients drew the same sequence")
	}
	if same(draw(7, 0), draw(8, 0)) {
		t.Error("two seeds drew the same sequence")
	}
}
