package trace

import (
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	b := NewBuilder()
	l := b.Load("ld:in.0", 100)
	c := b.Compute("p1.intt", 500, l)
	b.Store("st:out.0", 100, c)
	var sb strings.Builder
	if err := b.Program().WriteDOT(&sb, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "t0 -> t1", "t1 -> t2", "shape=box", "shape=ellipse"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTTruncates(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 20; i++ {
		b.Load("ld:x", 1)
	}
	var sb strings.Builder
	if err := b.Program().WriteDOT(&sb, 5); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "t5 ") {
		t.Error("truncation did not apply")
	}
}
