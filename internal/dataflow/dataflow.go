// Package dataflow writes down the hybrid key-switching algorithm under
// the three dataflows the paper proposes (§IV) — Max-Parallel (MP),
// Digit-Centric (DC) and Output-Centric (OC) — and this repository's
// OCF extension, generates their RPU schedules and runs them.
//
// A dataflow is written once, as a Plan (plan.go): an ordered walk over
// typed tiles that name the rows they read and write. All plans of a
// shape hold the same tiles — the total weighted op count always equals
// params.Ops().WeightedTotal() — but they order and group the work
// differently, which changes what can stay in the on-chip data memory
// and therefore how many bytes cross the DRAM interface. Generate
// visits the plan with the residency machine (emit.go, machine.go) to
// turn that into a Schedule: its task list of loads, stores and kernels
// and its traffic — the paper's entire story (Table II). Schedule.Run
// (run.go) turns the task list into runtime at one DRAM bandwidth and
// one compute rate (Figures 4–9). internal/hks visits the same plan to
// build the task graphs the engine executes.
package dataflow

import (
	"fmt"
	"strings"

	"ciflow/internal/params"
)

// Dataflow selects the scheduling strategy.
type Dataflow int

const (
	// MP is the Max-Parallel baseline: stage by stage over all towers
	// (Cheetah/HEAX style, paper §IV-A).
	MP Dataflow = iota
	// DC is Digit-Centric: one digit at a time through all ModUp
	// stages (MAD style, paper §IV-B).
	DC
	// OC is Output-Centric: one output tower at a time, the paper's
	// contribution (§IV-C).
	OC
	// OCF is this repository's extension: Output-Centric with the
	// ModDown conversion fused into Section 1, so finished output
	// towers never round-trip through DRAM. Falls back to OC when the
	// ModDown towers do not fit alongside a Section 1 digit pass.
	OCF
)

// list is the one list of dataflows: the paper's three in paper order,
// then this repository's extension, each with the paper dataflow it is
// an order of. String, Parse, Valid, Names and Paper all read it.
var list = [...]struct {
	name  string
	paper Dataflow
}{MP: {"MP", MP}, DC: {"DC", DC}, OC: {"OC", OC}, OCF: {"OCF", OC}}

// String names the dataflow as in the paper.
func (d Dataflow) String() string {
	if d.Valid() {
		return list[d].name
	}
	return fmt.Sprintf("Dataflow(%d)", int(d))
}

// Valid reports whether d is one of the listed dataflows — the check
// for a value that arrived in a request or a frame.
func (d Dataflow) Valid() bool { return d >= 0 && int(d) < len(list) }

// Paper returns the paper's dataflow d belongs to: d itself, or OC for
// the OCF extension, whose measurements are reported beside OC's.
func (d Dataflow) Paper() Dataflow { return list[d].paper }

// Parse resolves a dataflow by name, in any letter case.
func Parse(name string) (Dataflow, error) {
	for d, e := range list {
		if strings.EqualFold(name, e.name) {
			return Dataflow(d), nil
		}
	}
	return 0, fmt.Errorf("unknown dataflow %q (want %s)", name, Names())
}

// Names lists every dataflow as Parse accepts it, for help texts and
// error messages: "mp, dc, oc, ocf".
func Names() string {
	var sb strings.Builder
	for d, e := range list {
		if d > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strings.ToLower(e.name))
	}
	return sb.String()
}

// AllDataflows returns the paper's three dataflows, MP, DC, OC, in
// paper order.
func AllDataflows() []Dataflow { return []Dataflow{MP, DC, OC} }

// Config parameterizes schedule generation.
type Config struct {
	Bench params.Benchmark
	// DataMemBytes is the on-chip memory available for inputs and
	// intermediates (32 MB in the paper's evaluations).
	DataMemBytes int64
	// EvkOnChip pre-loads evaluation keys into dedicated SRAM (the
	// paper's 392 MB configuration); when false they stream from DRAM.
	EvkOnChip bool
	// KeyCompression halves streamed evk bytes (paper §IV-D ablation).
	KeyCompression bool
}

// Traffic is the DRAM byte accounting of one schedule.
type Traffic struct {
	LoadBytes  int64 // data loads (inputs, spills, reloads)
	StoreBytes int64 // data stores (spills, outputs)
	EvkBytes   int64 // streamed evaluation keys (0 when on-chip)
}

// TotalBytes returns all DRAM traffic including streamed keys.
func (t Traffic) TotalBytes() int64 { return t.LoadBytes + t.StoreBytes + t.EvkBytes }

// Schedule is a generated HKS program plus its traffic accounting.
type Schedule struct {
	Dataflow Dataflow
	Cfg      Config
	// Tasks is the program in creation order, which is also the order
	// each queue issues its tasks in.
	Tasks   []Task
	Traffic Traffic
}

// ArithmeticIntensity returns weighted modular operations per DRAM
// byte (paper Table II's AI column).
func (s *Schedule) ArithmeticIntensity() float64 {
	total := s.Traffic.TotalBytes()
	if s.Cfg.EvkOnChip {
		// The paper's AI is defined for the streaming configuration;
		// with resident keys, count the one-time key footprint like
		// Table II does by construction (keys still cross DRAM once).
		total += s.Cfg.Bench.EvkBytes()
	}
	if total == 0 {
		return 0
	}
	return float64(s.Cfg.Bench.Ops().WeightedTotal()) / float64(total)
}

// Generate builds the schedule for one dataflow and configuration.
func Generate(df Dataflow, cfg Config) (*Schedule, error) {
	if err := cfg.Bench.Validate(); err != nil {
		return nil, err
	}
	if cfg.Bench.KP < 1 {
		// hks.NewSwitcher refuses a ring without P towers too: there is
		// no ModDown, and no Section 2 for the output-centric walks.
		return nil, fmt.Errorf("dataflow: %s has no P towers; hybrid key switching needs at least one", cfg.Bench.Name)
	}
	tb := cfg.Bench.TowerBytes()
	minTowers := int64(cfg.Bench.KP) + 4
	if mt := int64(cfg.Bench.Alpha()) + 4; mt > minTowers {
		minTowers = mt
	}
	if cfg.DataMemBytes < minTowers*tb {
		return nil, fmt.Errorf("dataflow: %s needs at least %d towers (%d bytes) of on-chip memory, have %d",
			cfg.Bench.Name, minTowers, minTowers*tb, cfg.DataMemBytes)
	}
	if !df.Valid() {
		return nil, fmt.Errorf("dataflow: unknown dataflow %d", int(df))
	}
	g := &gen{
		cfg:  cfg,
		plan: NewPlan(df, cfg.Bench, cfg.DataMemBytes/tb),
		m:    newMachine(cfg.DataMemBytes, cfg.EvkOnChip, cfg.KeyCompression),
		tb:   tb,
	}
	g.emit()
	var got int64
	for _, t := range g.m.tasks {
		got += t.Ops
	}
	if want := cfg.Bench.Ops().WeightedTotal(); got != want {
		return nil, fmt.Errorf("dataflow: %s op count %d differs from model %d (dataflow must not change work)",
			df, got, want)
	}
	return &Schedule{Dataflow: df, Cfg: cfg, Tasks: g.m.tasks, Traffic: g.m.traffic}, nil
}
