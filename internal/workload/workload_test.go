package workload

import (
	"reflect"
	"strings"
	"testing"

	"ciflow/internal/params"
	"ciflow/internal/serve"
)

func TestFanoutCounts(t *testing.T) {
	s, err := Fanout(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c.Switches != 12 || c.Rotations != 12 || c.Relins != 0 {
		t.Fatalf("fanout counts %+v", c)
	}
	if c.ModUps != 3 || c.ModUpsUnhoisted != 12 || c.HoistGroups != 3 || c.Coalesced != 12 {
		t.Fatalf("fanout ModUp counts %+v", c)
	}
	if c.Depth != 1 {
		t.Fatalf("fanout depth %d, want 1 (no dependencies)", c.Depth)
	}
	if c.MaxWidth != 4 {
		t.Fatalf("fanout max width %d", c.MaxWidth)
	}
	// Bursts share rotation amounts 1..4 at one level.
	if c.DistinctKeys != 4 {
		t.Fatalf("fanout distinct keys %d", c.DistinctKeys)
	}
	if got := c.CoalescingFactor(); got != 4 {
		t.Fatalf("fanout coalescing factor %f", got)
	}
}

func TestMatvecCounts(t *testing.T) {
	s, err := Matvec(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	// 3 babies (one group) + 3 giant singletons.
	if c.Switches != 6 || c.ModUps != 4 || c.HoistGroups != 1 || c.Coalesced != 3 {
		t.Fatalf("matvec counts %+v", c)
	}
	// Giants depend on all babies: depth 2.
	if c.Depth != 2 {
		t.Fatalf("matvec depth %d", c.Depth)
	}
	// Keys: rotations 1,2,3 and 4,8,12.
	if c.DistinctKeys != 6 {
		t.Fatalf("matvec distinct keys %d", c.DistinctKeys)
	}
	if got := c.HoistCoalescingFactor(); got != 3 {
		t.Fatalf("matvec hoist coalescing %f", got)
	}
}

func TestBootstrapShape(t *testing.T) {
	// logSlots 4, radix 4 -> 2 stages per half, levels 5..1.
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 4, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	// Each stage: chunk 2 -> r=4, n1=2, n2=2: 1 baby + 1 giant.
	// 4 stages x 2 + 1 relin = 9 switches.
	if c.Switches != 9 || c.Relins != 1 || c.Rotations != 8 {
		t.Fatalf("bootstrap counts %+v", c)
	}
	// Levels 5,4 (CtS), 3 (relin), 2,1 (StC): 2 switches per DFT
	// stage, one for the relin.
	want := map[int]uint64{5: 2, 4: 2, 3: 1, 2: 2, 1: 2}
	for _, lc := range c.PerLevel {
		if want[lc.Level] != lc.Switches {
			t.Fatalf("level %d has %d switches, want %d", lc.Level, lc.Switches, want[lc.Level])
		}
		delete(want, lc.Level)
	}
	if len(want) != 0 {
		t.Fatalf("levels missing from PerLevel: %v", want)
	}
	// The chain is strictly sequential here (width-1 groups feeding
	// width-1 giants): depth = switches.
	if c.Depth != 9 {
		t.Fatalf("bootstrap depth %d", c.Depth)
	}
	// StC rotation amounts mirror CtS negated.
	var pos, neg int
	for _, n := range s.Nodes {
		if n.Kind != Rotate {
			continue
		}
		if n.Rot > 0 {
			pos++
		} else if n.Rot < 0 {
			neg++
		} else {
			t.Fatalf("rotation node %d with amount 0", n.ID)
		}
	}
	if pos != 4 || neg != 4 {
		t.Fatalf("rotation signs: %d positive, %d negative", pos, neg)
	}
}

func TestBootstrapWideStagesHoist(t *testing.T) {
	// logSlots 8, radix 16 -> 2 stages per half, each chunk 4:
	// n1=4, n2=4 -> 3 babies (hoist group) + 3 giants per stage.
	s, err := Bootstrap(BootstrapParams{LogSlots: 8, Radix: 16, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c.Switches != 4*6+1 {
		t.Fatalf("switches %d", c.Switches)
	}
	if c.HoistGroups != 4 || c.Coalesced != 12 || c.MaxWidth != 3 {
		t.Fatalf("hoist shape %+v", c)
	}
	// Per stage: 1 baby ModUp + 3 giant ModUps; plus the relin.
	if c.ModUps != 4*4+1 {
		t.Fatalf("ModUps %d", c.ModUps)
	}
	// Rotation indices stay inside the slot range.
	for _, n := range s.Nodes {
		if n.Rot >= 1<<8 || n.Rot <= -(1<<8) {
			t.Fatalf("rotation %d out of slot range", n.Rot)
		}
	}
}

func TestBootstrapAutoRadix(t *testing.T) {
	// 6 levels available: auto must pick a radix whose stage count
	// fits 2*stages+1 <= 6, i.e. 2 stages per half.
	s, err := Bootstrap(BootstrapParams{LogSlots: 13, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if len(c.PerLevel) != 5 {
		t.Fatalf("auto radix used %d levels, want 5", len(c.PerLevel))
	}
	if c.HoistGroups == 0 {
		t.Fatal("auto radix produced no hoistable fan-out")
	}
	// Tight budget: 3 levels force one stage per half.
	s, err = Bootstrap(BootstrapParams{LogSlots: 6, Top: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Counts().PerLevel); got != 3 {
		t.Fatalf("single-stage bootstrap used %d levels", got)
	}
}

// The schedule records the radix actually built: auto-fit resolves 0
// and an over-wide request clamps to one full-width stage.
func TestBootstrapEffectiveRadix(t *testing.T) {
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 4, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Radix != 4 {
		t.Fatalf("radix %d, want 4", s.Radix)
	}
	s, err = Bootstrap(BootstrapParams{LogSlots: 4, Radix: 64, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Radix != 16 || !strings.Contains(s.Name, "r16") {
		t.Fatalf("over-wide radix not clamped: radix %d name %q", s.Radix, s.Name)
	}
	s, err = Bootstrap(BootstrapParams{LogSlots: 8, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Radix != 16 {
		t.Fatalf("auto radix recorded %d, want 16", s.Radix)
	}
	if m, err := Matvec(4, 2, 1); err != nil || m.Radix != 0 {
		t.Fatalf("non-bootstrap schedule carries radix %d", m.Radix)
	}
}

func TestBootstrapBTS(t *testing.T) {
	for n := 1; n <= 3; n++ {
		b, err := BTSBenchmark(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := BootstrapBTS(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := s.Counts()
		if c.Relins != 1 || c.HoistGroups == 0 || c.Depth < 9 {
			t.Fatalf("%s canonical schedule implausible: %+v", b.Name, c)
		}
		// The canonical geometry covers all 2^16 slots within the KL
		// levels of the set.
		if top := c.PerLevel[0].Level; top != b.KL-1 {
			t.Fatalf("%s starts at level %d, want %d", b.Name, top, b.KL-1)
		}
		if !strings.Contains(s.Name, b.Name) {
			t.Fatalf("schedule name %q", s.Name)
		}
	}
	if _, err := BTSBenchmark(4); err == nil {
		t.Fatal("BTSBenchmark(4) accepted")
	}
}

func TestGeneratorErrors(t *testing.T) {
	cases := map[string]func() error{
		"fanout-steps":    func() error { _, err := Fanout(0, 4, 1); return err },
		"fanout-width":    func() error { _, err := Fanout(1, 0, 1); return err },
		"matvec-n1":       func() error { _, err := Matvec(1, 2, 1); return err },
		"matvec-n2":       func() error { _, err := Matvec(2, 0, 1); return err },
		"bootstrap-slots": func() error { _, err := Bootstrap(BootstrapParams{LogSlots: 0, Top: 5}); return err },
		"bootstrap-levels": func() error {
			_, err := Bootstrap(BootstrapParams{LogSlots: 4, Top: 1})
			return err
		},
		"bootstrap-radix-odd": func() error {
			_, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 3, Top: 9})
			return err
		},
		"bootstrap-radix-budget": func() error {
			// Radix 2 needs 4 stages per half: 9 levels > 6.
			_, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 2, Top: 5})
			return err
		},
	}
	for name, f := range cases {
		if f() == nil {
			t.Errorf("%s: invalid parameters accepted", name)
		}
	}
}

// TestValidateRejects corrupts a valid schedule one invariant at a
// time and asserts both the rejection and its message — the same
// precise errors an importer of hand-written JSON sees, so they must
// name the offending node and the broken rule, not just fail.
func TestValidateRejects(t *testing.T) {
	ok, err := Matvec(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mutate := map[string]struct {
		f    func(s *Schedule)
		want string
	}{
		"dup-id":       {func(s *Schedule) { s.Nodes[1].ID = 0 }, "node at index 1 has ID 0"},
		"gapped-id":    {func(s *Schedule) { s.Nodes[1].ID = 7 }, "node at index 1 has ID 7"},
		"fwd-dep":      {func(s *Schedule) { s.Nodes[0].Deps = []int{2} }, "must be an earlier node"},
		"self-dep":     {func(s *Schedule) { s.Nodes[1].Deps = []int{1} }, "must be an earlier node"},
		"dangling-dep": {func(s *Schedule) { s.Nodes[1].Deps = []int{42} }, "depends on 42 (must be an earlier node)"},
		"neg-level":    {func(s *Schedule) { s.Nodes[2].Level = -1 }, "negative level"},
		"level-up":     {func(s *Schedule) { s.Nodes[3].Level = 9 }, "at lower level"},
		"group-split":  {func(s *Schedule) { s.Nodes[1].Group = 1 }, "dense and consecutive"},
		"group-skip":   {func(s *Schedule) { s.Nodes[3].Group = 5 }, "dense and consecutive"},
		"group-mix":    {func(s *Schedule) { s.Nodes[1].Level = 2 }, "level/kind/deps differ"},
		"relin-rot":    {func(s *Schedule) { s.Nodes[3].Kind = Relin }, "carries rotation"},
		"bad-kind":     {func(s *Schedule) { s.Nodes[0].Kind = Kind(9) }, "unknown kind"},
	}
	for name, m := range mutate {
		s := &Schedule{Name: ok.Name, Nodes: append([]Node(nil), ok.Nodes...)}
		for i := range s.Nodes {
			s.Nodes[i].Deps = append([]int(nil), s.Nodes[i].Deps...)
		}
		m.f(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: corrupted schedule validated", name)
		} else if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, m.want)
		}
	}
	if err := (&Schedule{Name: "empty"}).Validate(); err == nil || !strings.Contains(err.Error(), "has no nodes") {
		t.Errorf("empty schedule: %v", err)
	}
	// A negative group on the first node must error, not panic (the
	// group-continuation case would otherwise index Nodes[-1]).
	neg := &Schedule{Name: "neg", Nodes: []Node{{ID: 0, Group: -1}}}
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "dense and consecutive") {
		t.Errorf("negative first group: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Rotate.String() != "rotate" || Relin.String() != "relin" {
		t.Fatal("kind names")
	}
	if !strings.Contains(Kind(7).String(), "7") {
		t.Fatal("unknown kind rendering")
	}
}

// The canonical BTS schedules must fit their own parameter sets —
// guard the derivation against params drift.
func TestBootstrapBTSLevels(t *testing.T) {
	for _, b := range []params.Benchmark{params.BTS1, params.BTS2, params.BTS3} {
		s, err := BootstrapBTS(b, 16)
		if err != nil {
			t.Fatalf("%s at radix 16: %v", b.Name, err)
		}
		for _, n := range s.Nodes {
			if n.Level < 0 || n.Level >= b.KL {
				t.Fatalf("%s node %d at level %d outside [0,%d)", b.Name, n.ID, n.Level, b.KL)
			}
		}
	}
}

// TestBootstrapPerLevelModUps pins the per-level ModUp prediction the
// cluster layer cross-validates server-side: with radix 16 the CtS
// and StC halves each run one 4x4 BSGS stage (3 babies sharing one
// hoisted ModUp, 3 giants each their own), and the relin sits alone
// on the middle level.
func TestBootstrapPerLevelModUps(t *testing.T) {
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	want := []serve.LevelStats{
		{Level: 3, Switches: 6, ModUps: 4, Coalesced: 3},
		{Level: 2, Switches: 1, ModUps: 1},
		{Level: 1, Switches: 6, ModUps: 4, Coalesced: 3},
	}
	if !reflect.DeepEqual(c.PerLevel, want) {
		t.Fatalf("per-level prediction %+v, want %+v", c.PerLevel, want)
	}
	var sw, mu uint64
	for _, lc := range c.PerLevel {
		sw += lc.Switches
		mu += lc.ModUps
	}
	if sw != uint64(c.Switches) || mu != uint64(c.ModUps) {
		t.Fatalf("per-level sums %d/%d vs totals %d/%d", sw, mu, c.Switches, c.ModUps)
	}
}
