package analysis

import (
	"strings"
	"testing"

	"ciflow/internal/params"
)

func TestHoistedModUpFractionRange(t *testing.T) {
	for _, b := range params.All() {
		f := HoistedModUpFraction(b)
		if f <= 0 || f >= 1 {
			t.Errorf("%s: ModUp fraction %g out of (0,1)", b.Name, f)
		}
	}
}

func TestHoistedSpeedupMonotone(t *testing.T) {
	b := params.ARK
	prev := HoistedSpeedup(b, 1)
	if prev != 1 {
		t.Fatalf("k=1 speedup %g, want 1", prev)
	}
	for _, k := range []int{2, 4, 8, 16} {
		s := HoistedSpeedup(b, k)
		if s <= prev {
			t.Fatalf("speedup not increasing at k=%d: %g <= %g", k, s, prev)
		}
		prev = s
	}
	// The speedup is bounded by 1/(1−f), the Amdahl limit of hoisting.
	limit := 1 / (1 - HoistedModUpFraction(b))
	if prev >= limit {
		t.Fatalf("k=16 speedup %g exceeds Amdahl limit %g", prev, limit)
	}
}

func TestFormatHoisting(t *testing.T) {
	out := Hoisting(params.BTS3, []int{2, 8}).Text()
	for _, want := range []string{"BTS3", "speedup", "ops saved"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Errorf("unexpected row count:\n%s", out)
	}
}
