package rpu

import (
	"math"
	"testing"
)

func TestDefaultConfig(t *testing.T) {
	// 128 lanes x 1.7 GHz / 4 cycles = 54.4 G weighted modops/s.
	if got := ModopsPerSec(1); math.Abs(got-54.4e9) > 1 {
		t.Fatalf("baseline MODOPS = %g, want 54.4e9", got)
	}
}

func TestModopsScaling(t *testing.T) {
	base := ModopsPerSec(1)
	for _, s := range []float64{2, 4, 8, 16} {
		if got := ModopsPerSec(s); math.Abs(got-base*s) > 1 {
			t.Fatalf("scale %gx: got %g", s, got)
		}
	}
}

func TestAreaModelMatchesPaperPoints(t *testing.T) {
	// The two published anchor points: 392 MB -> 401.85 mm^2 and
	// 32 MB -> 41.85 mm^2 (paper §VI-B).
	if got := AreaMM2(392 << 20); math.Abs(got-401.85) > 0.01 {
		t.Errorf("392MB area = %.2f, want 401.85", got)
	}
	if got := AreaMM2(32 << 20); math.Abs(got-41.85) > 0.01 {
		t.Errorf("32MB area = %.2f, want 41.85", got)
	}
}
