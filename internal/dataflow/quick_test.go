package dataflow

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"ciflow/internal/params"
)

// TestRandomConfigurations fuzzes the schedule generators across
// randomized HKS parameterizations and memory sizes. Every accepted
// configuration must produce a structurally valid program whose op
// count matches the analytic model and whose traffic is at least
// compulsory; rejections must come back as errors, never panics.
func TestRandomConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	accepted := 0
	for trial := 0; trial < 300; trial++ {
		b := params.Benchmark{
			Name: "fuzz",
			LogN: 12 + rng.Intn(6), // 2^12 .. 2^17
			KL:   1 + rng.Intn(48),
			KP:   rng.Intn(29),
			Dnum: 1 + rng.Intn(6),
		}
		if b.Dnum > b.KL {
			b.Dnum = b.KL
		}
		memTowers := int64(4 + rng.Intn(200))
		cfg := Config{
			Bench:          b,
			DataMemBytes:   memTowers * b.TowerBytes(),
			EvkOnChip:      rng.Intn(2) == 0,
			KeyCompression: rng.Intn(2) == 0,
		}
		df := AllDataflows()[rng.Intn(3)]

		s, err := func() (s *Schedule, err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d (%s %+v, mem=%d towers): panic %v", trial, df, b, memTowers, r)
				}
			}()
			return Generate(df, cfg)
		}()
		if err != nil {
			continue
		}
		accepted++
		if _, err := s.Run(1, 1); err != nil {
			t.Fatalf("trial %d (%s %+v): invalid program: %v", trial, df, b, err)
		}
		if _, _, ops := volume(s.Tasks); ops != b.Ops().WeightedTotal() {
			t.Fatalf("trial %d (%s %+v): ops %d != %d", trial, df, b, ops, b.Ops().WeightedTotal())
		}
		if s.Traffic.LoadBytes < b.InputBytes() {
			t.Fatalf("trial %d (%s): loads %d below compulsory input %d", trial, df, s.Traffic.LoadBytes, b.InputBytes())
		}
		if s.Traffic.StoreBytes < b.OutputBytes() {
			t.Fatalf("trial %d (%s): stores %d below compulsory output %d", trial, df, s.Traffic.StoreBytes, b.OutputBytes())
		}
		if cfg.EvkOnChip && s.Traffic.EvkBytes != 0 {
			t.Fatalf("trial %d: evk traffic with on-chip keys", trial)
		}
		if !cfg.EvkOnChip {
			want := b.EvkBytes()
			if cfg.KeyCompression {
				want /= 2
			}
			if s.Traffic.EvkBytes != want {
				t.Fatalf("trial %d: evk traffic %d, want %d", trial, s.Traffic.EvkBytes, want)
			}
		}
	}
	if accepted < 50 {
		t.Fatalf("only %d of 300 fuzz configurations were schedulable; fuzzer too strict", accepted)
	}
}

// TestPlanProperties checks, over random shapes and budgets and for all
// four dataflows, what makes a walk a dataflow of HKS rather than some
// other computation: every tile of the shape appears exactly once, every
// row is written before it is read and never read after the walk freed
// it, and the tiles' operations sum to the model's total. DC with one
// digit is MP's walk, and with nothing to fit every output tower is
// finished by the pass that starts it.
func TestPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 400; trial++ {
		b := params.Benchmark{Name: "fuzz", LogN: 10 + rng.Intn(6), KL: 1 + rng.Intn(40), KP: 1 + rng.Intn(20), Dnum: 1 + rng.Intn(6)}
		b.Dnum = min(b.Dnum, b.KL)
		if b.Validate() != nil {
			continue
		}
		budget := int64(max(b.KP, b.Alpha()) + 4 + rng.Intn(120))
		if trial%4 == 0 {
			budget = Unbounded
		}
		chunks := (b.N() + OverChunk - 1) / OverChunk
		want := map[Kind]int{INTT: b.KL, Apply: b.Dnum * (b.KL + b.KP), Reduce: b.KL + b.KP,
			DownINTT: 2 * b.KP, DownOver: 2 * chunks, DownOut: 2 * b.KL}
		for j := 0; j < b.Dnum; j++ {
			want[Conv] += b.Beta(j)
			want[NTT] += b.Beta(j)
		}
		for _, df := range []Dataflow{MP, DC, OC, OCF} {
			p := NewPlan(df, b, budget)
			type id struct {
				k    Kind
				j, t int
			}
			seen := map[id]bool{}
			count := map[Kind]int{}
			live := map[Row]bool{}
			for i := 0; i < b.KL; i++ {
				live[inRow(i)] = true
			}
			var ops int64
			unfinished, passes := 0, 0
			for _, grp := range p.Groups {
				if grp.Name == "oc" && grp.Tiles[len(grp.Tiles)-1].Kind != Reduce {
					unfinished++
				}
				if grp.Pin != nil {
					passes++
				}
				for _, tl := range grp.Tiles {
					if seen[id{tl.Kind, tl.J, tl.T}] {
						t.Fatalf("trial %d %s %+v budget %d: tile %v(%d,%d) twice", trial, df, b, budget, tl.Kind, tl.J, tl.T)
					}
					seen[id{tl.Kind, tl.J, tl.T}] = true
					count[tl.Kind]++
					ops += tl.Cost()
					for _, op := range tl.Ops {
						reads := op.Reads
						if tl.Acc {
							reads = append([]Row{op.Write}, reads...)
						}
						for _, r := range reads {
							if !live[r] {
								t.Fatalf("trial %d %s %+v budget %d: %v(%d,%d) reads %v, which is not written or was freed",
									trial, df, b, budget, tl.Kind, tl.J, tl.T, r)
							}
						}
						live[op.Write] = true
					}
					for _, r := range tl.Frees {
						delete(live, r)
					}
				}
			}
			if !maps.Equal(count, want) {
				t.Fatalf("trial %d %s %+v budget %d: tiles %v, want %v", trial, df, b, budget, count, want)
			}
			if ops != b.Ops().WeightedTotal() {
				t.Fatalf("trial %d %s %+v budget %d: tile ops %d, model %d", trial, df, b, budget, ops, b.Ops().WeightedTotal())
			}
			for r := range live { // inputs and results are the caller's; OC leaves an input row to the residency policy
				if r.Kind != RowIn && r.Kind != RowOut && r.Kind != RowOv {
					t.Fatalf("trial %d %s %+v budget %d: %v is never freed", trial, df, b, budget, r)
				}
			}
			if budget == Unbounded {
				// One pass per section: Section 1 of each digit, Section 2,
				// and for OCF ModDown's P1; none under MP and DC.
				want := map[Dataflow]int{OC: b.Dnum + 1, OCF: b.Dnum + 2}[df]
				if unfinished > 0 || (p.Walk != df && b.Dnum > 1) || passes != want {
					t.Fatalf("trial %d %s %+v unbounded: walk %s, %d passes, %d towers left unfinished by a pass",
						trial, df, b, p.Walk, passes, unfinished)
				}
			}
		}
		if b.Dnum == 1 && !reflect.DeepEqual(NewPlan(DC, b, budget).Groups, NewPlan(MP, b, budget).Groups) {
			t.Fatalf("trial %d %+v: DC with one digit is not MP's walk", trial, b)
		}
	}
	// OCF is OC's walk when the P rows do not fit beside a digit pass.
	if p := NewPlan(OCF, params.BTS1, 32<<20/params.BTS1.TowerBytes()); p.Walk != OC {
		t.Fatalf("BTS1 at 32 MiB: OCF walks %s, want the OC fallback", p.Walk)
	}
	if p := NewPlan(OCF, params.ARK, 32<<20/params.ARK.TowerBytes()); p.Walk != OCF {
		t.Fatalf("ARK at 32 MiB: OCF walks %s, want the fusion", p.Walk)
	}
}

// TestMachineMisusePanics pins the machine's fail-fast contract: the
// generators rely on these panics to catch scheduling bugs at
// generation time.
func TestMachineMisusePanics(t *testing.T) {
	x, y, big, nope, fresh := inRow(0), inttRow(0), inRow(1), inRow(2), inttRow(1)
	expectPanic := func(name string, f func(m *machine)) {
		t.Helper()
		m := newMachine(1<<20, false, false)
		m.announceDRAM(x, 1<<10)
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f(m)
	}
	expectPanic("load unknown tile", func(m *machine) { m.load(nope) })
	expectPanic("double load", func(m *machine) { m.load(x); m.load(x) })
	expectPanic("capacity overflow", func(m *machine) {
		m.announceDRAM(big, 2<<20)
		m.load(big)
	})
	expectPanic("read non-resident", func(m *machine) {
		m.compute("k", 1, []Row{x}, y, 8)
	})
	expectPanic("store non-resident", func(m *machine) { m.store(x) })
	expectPanic("free non-resident", func(m *machine) { m.free(x, true) })
	expectPanic("free dirty without store", func(m *machine) {
		m.load(x)
		m.compute("k", 1, []Row{x}, x, 0) // dirty now
		m.free(x, false)
	})
	expectPanic("announce twice", func(m *machine) { m.announceDRAM(x, 8) })
	expectPanic("load with no DRAM copy", func(m *machine) {
		m.compute("k", 1, nil, fresh, 8)
		m.free(fresh, true)
		// "fresh" was discarded entirely; recreate a record-less load.
		m.load(fresh)
	})
}

// TestAntiDependencyThroughFreedSpace verifies that a load reusing
// freed space waits for the previous occupant's last use.
func TestAntiDependencyThroughFreedSpace(t *testing.T) {
	m := newMachine(1<<10, false, false) // room for exactly one 1 KiB tile
	a, b := inRow(0), inRow(1)
	m.announceDRAM(a, 1<<10)
	m.announceDRAM(b, 1<<10)
	m.load(a)
	use := m.compute("k", 10, []Row{a}, a, 0)
	m.store(a)
	m.free(a, false)
	ld := m.load(b)
	deps := m.tasks[ld].Deps
	found := false
	for _, d := range deps {
		if d >= use {
			found = true
		}
	}
	if !found {
		t.Fatalf("load of b (deps %v) does not wait for a's last use (task %d)", deps, use)
	}
}
