package analysis

import (
	"strings"
	"testing"

	"ciflow/internal/params"
)

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
