package workload

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/serve"
)

// testService stands up a service for the one tenant "t0" over a tiny
// ring, configured for a replay of s.
func testService(t *testing.T, s *Schedule, towers, dnum int) (*serve.Service, *ckks.Context, *serve.SeedKeySource, func()) {
	t.Helper()
	return ringService(t, s, 32, towers, dnum, "t0")
}

// ringService is testService over a ring of degree n for the given
// tenants.
func ringService(t *testing.T, s *Schedule, n, towers, dnum int, tenants ...string) (*serve.Service, *ckks.Context, *serve.SeedKeySource, func()) {
	t.Helper()
	cctx, err := ckks.NewContext(n, towers, 40, 3, 41, dnum)
	if err != nil {
		t.Fatal(err)
	}
	chains, err := serve.NewSeedKeySource(cctx, tenants, false)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(2)
	cfg := ReplayServiceConfig(s)
	cfg.Engine = e
	svc, err := serve.New(cctx.Switchers(), chains, cfg)
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	return svc, cctx, chains, func() {
		svc.Close()
		e.Close()
	}
}

func replayOnce(t *testing.T, s *Schedule, df dataflow.Dataflow) *ReplayResult {
	t.Helper()
	svc, cctx, chains, stop := testService(t, s, 4, 2)
	defer stop()
	res, err := Replay(context.Background(), svc, cctx.Switchers(), chains, cctx.R,
		s, ReplayConfig{Tenant: "t0", Dataflow: df, Seed: 7, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertExact(t *testing.T, res *ReplayResult) {
	t.Helper()
	if !res.CountsExact {
		t.Fatalf("measured counters drifted from the schedule: %v", res.Mismatches)
	}
	if !res.Checked || !res.BitExact {
		t.Fatalf("serial reference check failed: checked=%v bitExact=%v %v",
			res.Checked, res.BitExact, res.Mismatches)
	}
	if res.DepViolations != 0 {
		t.Fatalf("%d dependency-order violations", res.DepViolations)
	}
}

// TestCompareBooks: the one comparison of measured books with a
// schedule's prediction, judged on hand-built books — exact at one and
// at two replays, as a delta between snapshots, and naming what differs
// when a total, a predicted level, or a level the schedule never
// reaches is off.
func TestCompareBooks(t *testing.T) {
	s, err := PrivateInference(2, 3, 2, 3) // levels 3..0: 3/1/3/1 switches
	if err != nil {
		t.Fatal(err)
	}
	// books is what n exact replays of s leave behind.
	books := func(n uint64) serve.Stats {
		p := s.Counts()
		st := serve.Stats{Served: n * uint64(p.Switches), ModUps: n * uint64(p.ModUps),
			Groups: n * uint64(p.ModUps), Coalesced: n * uint64(p.Coalesced)}
		for _, l := range p.PerLevel {
			st.PerLevel = append(st.PerLevel, serve.LevelStats{Level: l.Level,
				Switches: n * uint64(l.Switches), ModUps: n * uint64(l.ModUps), Coalesced: n * uint64(l.Coalesced)})
		}
		return st
	}
	edit := func(st serve.Stats, f func(*serve.Stats)) serve.Stats {
		st.PerLevel = append([]serve.LevelStats(nil), st.PerLevel...)
		f(&st)
		return st
	}
	for _, tc := range []struct {
		name          string
		before, after serve.Stats
		times         int
		want          []string // one substring per expected mismatch, in order
	}{
		{name: "one replay", after: books(1), times: 1},
		{name: "two tenants", after: books(2), times: 2},
		{name: "a delta of two on books that held one", before: books(1), after: books(3), times: 2},
		{name: "nothing served", times: 1, want: []string{
			"served switches: measured 0, schedule predicts 8", "mod_ups: measured 0", "groups: measured 0", "coalesced: measured 0",
			"level 3 switches", "level 3 mod_ups", "level 3 coalesced", "level 2 switches", "level 2 mod_ups",
			"level 1 switches", "level 1 mod_ups", "level 1 coalesced", "level 0 switches", "level 0 mod_ups"}},
		{name: "two tenants' books held to one", after: books(2), times: 1, want: []string{
			"served switches: measured 16, schedule predicts 8", "mod_ups: measured 12, schedule predicts 6",
			"groups: measured 12", "coalesced: measured 8, schedule predicts 4",
			"level 3 switches: measured 6, schedule predicts 3", "level 3 mod_ups", "level 3 coalesced", "level 2 switches", "level 2 mod_ups",
			"level 1 switches", "level 1 mod_ups", "level 1 coalesced", "level 0 switches", "level 0 mod_ups"}},
		{name: "a group split at level 1", times: 2,
			after: edit(books(2), func(st *serve.Stats) {
				st.ModUps++
				st.Groups++
				st.Coalesced -= 2
				st.PerLevel[2].ModUps++
				st.PerLevel[2].Coalesced -= 2
			}),
			want: []string{"mod_ups: measured 13, schedule predicts 12", "groups: measured 13", "coalesced: measured 6, schedule predicts 8",
				"level 1 mod_ups: measured 5, schedule predicts 4 (nodes at this level: ", "level 1 coalesced: measured 2, schedule predicts 4"}},
		{name: "a level served elsewhere", times: 1,
			after: edit(books(1), func(st *serve.Stats) {
				st.PerLevel[3].Level = 7
			}),
			want: []string{"level 0 switches: measured 0, schedule predicts 1", "level 0 mod_ups: measured 0, schedule predicts 1",
				"level 7: measured 1 switches / 1 mod_ups / 0 coalesced, schedule predicts none"}},
	} {
		got := s.CompareBooks(tc.before, tc.after, tc.times)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d mismatches %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: mismatch %d is %q, want it to say %q", tc.name, i, got[i], w)
			}
		}
	}
}

func TestReplayBootstrap(t *testing.T) {
	// Ring N=32 (16 slots), 4 towers: one DFT stage per half at
	// levels 3 and 1, relin at 2 — 3 babies + 3 giants per stage.
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, s, dataflow.MP)
	assertExact(t, res)
	p := s.Counts()
	if res.Served != uint64(p.Switches) || res.ModUps != uint64(p.ModUps) {
		t.Fatalf("measured served=%d modUps=%d, predicted %+v", res.Served, res.ModUps, p)
	}
	// The baby fan-outs must actually coalesce: factor inside hoist
	// groups above 1, and with exact counts there were zero coalesces
	// outside them.
	if res.HoistCoalescingFactor <= 1 {
		t.Fatalf("hoist coalescing factor %.2f", res.HoistCoalescingFactor)
	}
}

func TestReplayMatvec(t *testing.T) {
	s, err := Matvec(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, s, dataflow.OC)
	assertExact(t, res)
	if res.Coalesced != 3 || res.ModUps != 3 {
		t.Fatalf("matvec measured coalesced=%d modUps=%d", res.Coalesced, res.ModUps)
	}
}

func TestReplayFanout(t *testing.T) {
	s, err := Fanout(3, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, s, dataflow.DC)
	assertExact(t, res)
	if res.Coalesced != 12 {
		t.Fatalf("fanout coalesced %d, want 12", res.Coalesced)
	}
}

// A multi-level chain: levels descend along the dependency edges, so
// derived inputs are restricted to sub-bases and each level routes to
// its own switcher.
func TestReplayLevelDescent(t *testing.T) {
	b := &builder{name: "descent"}
	top := b.group("top", 3, nil, []int{1, 2})
	mid := b.node("mid", Rotate, 3, 2, top)
	b.group("bottom", 1, []int{mid}, []int{1, 2, 4})
	s, err := b.schedule()
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, s, dataflow.MP)
	assertExact(t, res)
	if res.ModUps != 3 {
		t.Fatalf("level-descent ModUps %d, want 3", res.ModUps)
	}
}

// Replays on one schedule are deterministic: same seed, same keys,
// bit-exact across dataflows (the dataflow shapes scheduling, never
// values).
func TestReplayDataflowsAgree(t *testing.T) {
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, df := range []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC} {
		assertExact(t, replayOnce(t, s, df))
	}
}

func TestReplayRejectsInvalidSchedule(t *testing.T) {
	s, err := Fanout(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Nodes[1].Group = 9
	svc, cctx, chains, stop := testService(t, s, 4, 2)
	defer stop()
	if _, err := Replay(context.Background(), svc, cctx.Switchers(), chains, cctx.R,
		s, ReplayConfig{Tenant: "t0"}); err == nil {
		t.Fatal("invalid schedule replayed")
	}
}

func TestReplayCancelled(t *testing.T) {
	s, err := Fanout(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	svc, cctx, chains, stop := testService(t, s, 4, 2)
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, svc, cctx.Switchers(), chains, cctx.R,
		s, ReplayConfig{Tenant: "t0"}); err == nil {
		t.Fatal("cancelled replay succeeded")
	}
}

// Exact counts do not depend on how the service groups Submits: every
// hoist group is one SubmitGroup call, which serve runs as one ModUp,
// never split, never merged and never joined, and without waiting for
// more. "hour window" replays a bootstrap, whose groups are all narrow
// and arrive in dependent waves that a Submit loop would let meet;
// "batch of one" replays one fan-out group of 65 rotations, run whole.
func TestReplayGroupsIgnoreBatching(t *testing.T) {
	boot, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Fanout(1, 65, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		s        *Schedule
		minWidth int
	}{
		{"hour window", boot, 2},
		{"batch of one", wide, 65},
	} {
		t.Run(tc.name, func(t *testing.T) {
			widest := 0
			for _, g := range tc.s.Groups() {
				widest = max(widest, len(g))
			}
			if widest < tc.minWidth {
				t.Fatalf("widest hoist group has %d members, want at least %d", widest, tc.minWidth)
			}
			svc, cctx, chains, stop := testService(t, tc.s, 4, 2)
			defer stop()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := Replay(ctx, svc, cctx.Switchers(), chains, cctx.R,
				tc.s, ReplayConfig{Tenant: "t0", Dataflow: dataflow.OC, Seed: 7, Check: true})
			if err != nil {
				t.Fatal(err)
			}
			assertExact(t, res)
		})
	}
}

// TestReplayGoldens imports every committed scenario file and replays
// it with the serial reference on: the import must be the library's
// schedule node for node — levels, groups and every dependency edge —
// and the replay of it must be exact per level, bit-exact, and in
// dependency order. Each runs on the smallest ring that has its
// levels (bootstrap-bts2 keeps the paper's 40).
func TestReplayGoldens(t *testing.T) {
	paths, err := filepath.Glob(goldenPath("*"))
	if err != nil || len(paths) != len(ScenarioNames()) {
		t.Fatalf("goldens %v (%v), want one per scenario %v", paths, err, ScenarioNames())
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".schedule.json")
		t.Run(name, func(t *testing.T) {
			want, err := Scenario(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ImportFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s.Nodes, want.Nodes) {
				t.Fatalf("%s imports to a different DAG than Scenario(%q) builds", path, name)
			}
			towers := 0
			for _, n := range s.Nodes {
				towers = max(towers, n.Level+1)
			}
			// One tower per digit is the digit count valid at every
			// level of a ring of any height.
			svc, cctx, chains, stop := testService(t, s, towers, towers)
			defer stop()
			res, err := Replay(context.Background(), svc, cctx.Switchers(), chains, cctx.R,
				s, ReplayConfig{Tenant: "t0", Seed: 7, Check: true})
			if err != nil {
				t.Fatal(err)
			}
			assertExact(t, res)
			if !reflect.DeepEqual(res.Predicted, want.Counts()) {
				t.Fatalf("replayed against %+v, the library predicts %+v", res.Predicted, want.Counts())
			}
		})
	}
}
