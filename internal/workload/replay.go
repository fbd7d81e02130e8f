package workload

// The dependency-aware replay client: drive internal/serve with a
// schedule, respecting the DAG. A hoist group is submitted only after
// every predecessor's result has landed — and then whole, in one
// SubmitGroup call, so the service runs it as exactly one group. A
// node's input polynomial is *derived from its predecessors' outputs*
// (the sum of their c1 results, restricted to the node's level basis),
// so the replay cannot cheat the dependencies: submitting a node early
// would use an input that does not exist yet, and the serial reference
// check would catch any service that reordered the work.
//
// Because a group is one call and derived inputs carry fresh values,
// the measured serve counters must match the schedule's Counts()
// exactly — one ModUp per group, zero coalesces outside hoist groups —
// whatever the timing, which Replay asserts and reports.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"ciflow/internal/dataflow"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

// Server is the serving surface Replay drives: group submission and
// the measured counters. *serve.Service implements it directly; the
// cluster router's per-tenant views implement it over the wire, which
// is how one replay client asserts the identical exact-count
// invariants against one process or a sharded fabric.
type Server interface {
	GroupSubmitter
	Submit(ctx context.Context, req serve.Request) (<-chan serve.Result, error)
	Stats() serve.Stats
}

// GroupSubmitter submits one whole hoist group in a single call. All
// requests of the group share one Input, and the transport may exploit
// that — the cluster wire protocol ships the input polynomial once per
// group frame, the network-level counterpart of the paper's hoisting
// argument (one ModUp shared by a rotation fan-out). Implementations
// must deliver one result channel per request, in order, and must run
// the group as one: a single Decompose+ModUp, shared with no other
// call's requests.
type GroupSubmitter interface {
	SubmitGroup(ctx context.Context, reqs []serve.Request) ([]<-chan serve.Result, error)
}

// ReplayConfig tunes one schedule replay.
type ReplayConfig struct {
	// Tenant is the keyspace every request is addressed to.
	Tenant string
	// Dataflow schedules the hoist and replay graphs (zero value: MP).
	Dataflow dataflow.Dataflow
	// Seed feeds the sampler for root-group inputs; the serial
	// reference check re-derives the identical inputs from it.
	Seed int64
	// Check re-executes the schedule serially (direct hks.KeySwitch
	// per node, same derived inputs, same keys) and compares every
	// output bit for bit. Without it the replay hands every result
	// pair back to r's pool once done with it (ring.PutPoly), so the
	// server must draw them from that pool, as serve.Service and the
	// cluster router do.
	Check bool
}

// ReplayResult reports one replay: the schedule's predictions, the
// measured serve.Stats deltas, and the exactness verdicts.
type ReplayResult struct {
	Predicted Counts        `json:"predicted"`
	Wall      time.Duration `json:"wall_ns"`

	// Measured deltas of the service counters across the replay.
	Served    uint64 `json:"served"`
	ModUps    uint64 `json:"mod_ups"`
	Groups    uint64 `json:"groups"`
	Coalesced uint64 `json:"coalesced"`

	// PerLevel is the measured per-level switch/ModUp delta, validated
	// level by level against Predicted.PerLevel (the server-side
	// cross-check of the schedule's level mix).
	PerLevel []serve.LevelStats `json:"per_level,omitempty"`

	// CountsExact is true when every measured counter equals its
	// prediction; Mismatches lists the offenders otherwise.
	CountsExact bool     `json:"counts_exact"`
	Mismatches  []string `json:"mismatches,omitempty"`

	// HoistCoalescingFactor is the coalescing factor inside hoist
	// groups (coalesced requests per hoist-group ModUp); with exact
	// counts it equals the predicted Counts.HoistCoalescingFactor.
	HoistCoalescingFactor float64 `json:"hoist_coalescing_factor"`

	// DepViolations counts results that landed before one of their
	// predecessors' results — always 0 for a dependency-respecting
	// replay (the client gates submission on predecessors, so a
	// violation would mean the bookkeeping itself is broken).
	DepViolations int `json:"dep_violations"`

	// Checked/BitExact report the serial reference comparison
	// (BitExact is vacuously true when Check was off).
	Checked  bool `json:"checked"`
	BitExact bool `json:"bit_exact"`
}

// ReplayServiceConfig returns the serve.Config a replay of s needs:
// DefaultLevel 0, so schedule levels are taken literally (serve routes
// a zero Request.Level to the default). Exact counts need nothing
// else — Replay submits every hoist group whole, and serve runs such a
// group as it was submitted: never split, merged or joined. Callers
// set Engine (and may raise KeyBudget for key-hungry bootstrap
// schedules).
func ReplayServiceConfig(*Schedule) serve.Config {
	return serve.Config{DefaultLevel: 0}
}

// replayer carries one replay's bookkeeping.
type replayer struct {
	s       *Schedule
	svc     Server
	cfg     ReplayConfig
	r       *ring.Ring
	sampler *ring.Sampler
	basis   map[int]ring.Basis // level -> B_level

	groups  [][]int
	inputs  []*ring.Poly // group -> its submitted input
	results []serve.Result

	// deriveInput's per-tower operands, reused from group to group.
	rows  [][]uint64
	salts []uint64

	depViolations int
}

// Replay executes s against svc, which must be otherwise idle (the
// measured counters are deltas of svc.Stats() around the replay) and
// configured per ReplayServiceConfig, handing every hoist group over
// whole. switchers resolves the levels'
// bases (and, with cfg.Check, runs the serial reference); keys is
// only used by the reference and must resolve the same key material
// the server loads (ckks key-chain memoization — or, across a wire,
// deterministic seed-derived chains — makes the comparison
// meaningful). r is the server's ring; cfg.Seed makes the run
// reproducible.
func Replay(ctx context.Context, svc Server, switchers serve.SwitcherSource, keys serve.KeySource, r *ring.Ring, s *Schedule, cfg ReplayConfig) (*ReplayResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	groups := s.Groups()
	rp := &replayer{
		s: s, svc: svc, cfg: cfg, r: r,
		sampler: ring.NewSampler(r, cfg.Seed),
		basis:   map[int]ring.Basis{},
		groups:  groups,
		inputs:  make([]*ring.Poly, len(groups)),
		results: make([]serve.Result, len(s.Nodes)),
	}
	for _, n := range s.Nodes {
		if _, ok := rp.basis[n.Level]; ok {
			continue
		}
		sw, err := switchers.Switcher(n.Level)
		if err != nil {
			return nil, fmt.Errorf("workload: no switcher at level %d: %w", n.Level, err)
		}
		rp.basis[n.Level] = sw.QBasis()
	}

	before := svc.Stats()
	start := time.Now()
	if err := rp.run(ctx); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	after := svc.Stats()

	res := &ReplayResult{
		Predicted: s.Counts(),
		Wall:      wall,
		Served:    after.Served - before.Served,
		ModUps:    after.ModUps - before.ModUps,
		Groups:    after.Groups - before.Groups,
		Coalesced: after.Coalesced - before.Coalesced,
		PerLevel:  perLevelDelta(before.PerLevel, after.PerLevel),

		Mismatches:    s.CompareBooks(before, after, 1),
		DepViolations: rp.depViolations,
		BitExact:      true,
	}
	res.CountsExact = len(res.Mismatches) == 0
	if res.Predicted.HoistGroups > 0 {
		res.HoistCoalescingFactor = float64(res.Coalesced) / float64(res.Predicted.HoistGroups)
	}

	if cfg.Check {
		res.Checked = true
		if err := rp.checkSerial(switchers, keys); err != nil {
			res.BitExact = false
			res.Mismatches = append(res.Mismatches, err.Error())
		}
	}
	return res, nil
}

// CompareBooks compares what a serving layer's books gained between two
// snapshots with times × what s predicts — times replays of s, by as
// many tenants — and names every counter that differs: the four totals,
// each predicted level's slice, then any level the schedule does not
// reach. Nil means the books are exact. A per-level mismatch names the
// schedule nodes running at the diverging level, so it points at the
// stage that was split or merged instead of one aggregate number. This
// is the one comparison of measured books with Counts: Replay runs it
// on its own tenant's books (times 1), `ciflow serve` on the
// fabric-wide ones (zero before, times = tenants).
func (s *Schedule) CompareBooks(before, after serve.Stats, times int) []string {
	pred, n := s.Counts(), uint64(times)
	var out []string
	exact := func(what string, measured, predicted uint64, where string) {
		if measured != n*predicted {
			out = append(out, fmt.Sprintf("%s: measured %d, schedule predicts %d%s", what, measured, n*predicted, where))
		}
	}
	exact("served switches", after.Served-before.Served, uint64(pred.Switches), "")
	exact("mod_ups", after.ModUps-before.ModUps, uint64(pred.ModUps), "")
	exact("groups", after.Groups-before.Groups, uint64(pred.ModUps), "")
	exact("coalesced", after.Coalesced-before.Coalesced, uint64(pred.Coalesced), "")
	measured := perLevelDelta(before.PerLevel, after.PerLevel)
	for _, p := range pred.PerLevel {
		var m serve.LevelStats
		if i := slices.IndexFunc(measured, func(ls serve.LevelStats) bool { return ls.Level == p.Level }); i >= 0 {
			m = measured[i]
			measured = slices.Delete(measured, i, i+1)
		}
		where := fmt.Sprintf(" (nodes at this level: %s)", s.describeLevel(p.Level))
		exact(fmt.Sprintf("level %d switches", p.Level), m.Switches, p.Switches, where)
		exact(fmt.Sprintf("level %d mod_ups", p.Level), m.ModUps, p.ModUps, where)
		exact(fmt.Sprintf("level %d coalesced", p.Level), m.Coalesced, p.Coalesced, where)
	}
	for _, m := range measured {
		out = append(out, fmt.Sprintf("level %d: measured %d switches / %d mod_ups / %d coalesced, schedule predicts none",
			m.Level, m.Switches, m.ModUps, m.Coalesced))
	}
	return out
}

// deriveInput computes one group's shared input polynomial: root
// groups draw from sample, derived groups sum the predecessors' c1
// outputs (via the c1 accessor, restricted to this node's possibly
// lower level) scaled by a per-group constant — per tower one
// multiply-sum, Σ c1·salt mod q, into a polynomial drawn from the
// ring's pool. The scaling matters: sibling groups sharing one
// predecessor set (a BSGS stage's giants, whose inner sums differ only
// by plaintext diagonals the replay does not model) must carry
// *distinct values*, not merely distinct storage, so the
// zero-coalescing-outside-hoist-groups invariant holds against any
// bit-exact executor, not just one that groups by pointer identity.
// The live replay and the serial reference both go through this one
// function, so the two sides cannot drift.
func (rp *replayer) deriveInput(gi int, c1 func(id int) *ring.Poly, sample func(ring.Basis) *ring.Poly) *ring.Poly {
	n0 := rp.s.Nodes[rp.groups[gi][0]]
	qb := rp.basis[n0.Level]
	if len(n0.Deps) == 0 {
		p := sample(qb)
		p.IsNTT = true
		return p
	}
	p := rp.r.GetPoly(qb)
	p.IsNTT = true
	for i, t := range qb {
		m := rp.r.Mods[t]
		rp.rows, rp.salts = rp.rows[:0], rp.salts[:0]
		salt := m.Reduce(groupSalt(gi))
		for _, d := range n0.Deps {
			row := c1(d).Tower(t)
			if row == nil {
				panic(fmt.Sprintf("workload: node %d's output has no tower %d for group %d", d, t, gi))
			}
			rp.rows, rp.salts = append(rp.rows, row), append(rp.salts, salt)
		}
		m.MulSumScalars(p.Coeffs[i], rp.rows, rp.salts, m.Q)
	}
	return p
}

// groupInput is deriveInput over the live replay's served results.
func (rp *replayer) groupInput(gi int) *ring.Poly {
	return rp.deriveInput(gi,
		func(id int) *ring.Poly { return rp.results[id].C1 },
		rp.sampler.Uniform)
}

// groupSalt is the per-group input scaling constant; ≥ 2 so even the
// first derived group differs from the raw predecessor sum.
func groupSalt(gi int) uint64 { return uint64(gi) + 2 }

// perLevelDelta subtracts two serve per-level snapshots, keeping the
// descending level order of the after snapshot.
func perLevelDelta(before, after []serve.LevelStats) []serve.LevelStats {
	prev := map[int]serve.LevelStats{}
	for _, ls := range before {
		prev[ls.Level] = ls
	}
	var out []serve.LevelStats
	for _, ls := range after {
		d := serve.LevelStats{
			Level:     ls.Level,
			Switches:  ls.Switches - prev[ls.Level].Switches,
			ModUps:    ls.ModUps - prev[ls.Level].ModUps,
			Coalesced: ls.Coalesced - prev[ls.Level].Coalesced,
		}
		if d.Switches != 0 || d.ModUps != 0 || d.Coalesced != 0 {
			out = append(out, d)
		}
	}
	return out
}

// describeLevel summarizes the schedule nodes running at one level as
// compact "first-last (stage)" runs — the context a per-level count
// mismatch message carries so the offending stage is named, not just
// the level number.
func (s *Schedule) describeLevel(level int) string {
	var parts []string
	runStart, runEnd := -1, -1
	label := ""
	flush := func() {
		if runStart < 0 {
			return
		}
		if runStart == runEnd {
			parts = append(parts, fmt.Sprintf("%d (%s)", runStart, label))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d (%s)", runStart, runEnd, label))
		}
	}
	for _, n := range s.Nodes {
		if n.Level != level {
			continue
		}
		l := n.Stage
		if l == "" {
			l = n.Kind.String()
		}
		if runStart >= 0 && n.ID == runEnd+1 && l == label {
			runEnd = n.ID
			continue
		}
		flush()
		runStart, runEnd, label = n.ID, n.ID, l
	}
	flush()
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

type nodeDone struct {
	id  int
	res serve.Result
}

func (rp *replayer) submitGroup(ctx context.Context, gi int, ch chan<- nodeDone) error {
	in := rp.groupInput(gi)
	rp.inputs[gi] = in
	ids := rp.groups[gi]
	reqs := make([]serve.Request, len(ids))
	for i, id := range ids {
		n := rp.s.Nodes[id]
		reqs[i] = serve.Request{
			Input: in, Rot: n.Rot, Dataflow: rp.cfg.Dataflow,
			Tenant: rp.cfg.Tenant, Level: n.Level,
		}
	}
	rcs, err := rp.svc.SubmitGroup(ctx, reqs)
	if err != nil {
		return fmt.Errorf("workload: submit group %d (%s): %w", gi, rp.s.Nodes[ids[0]].Stage, err)
	}
	for i, id := range ids {
		go func() { ch <- nodeDone{id: id, res: <-rcs[i]} }()
	}
	return nil
}

// run drives the event loop: root groups first, then each group the
// moment its last predecessor completes.
//
// Without the serial check nothing reads a polynomial once its last
// reader is done, so each goes back to the ring's pool then, for the
// next wave to draw: a result's c0 on arrival; its c1 once the last
// dependent group has derived its input from it (a sink's on arrival);
// a derived input after its group's last result, when no queued
// request can still hold it. Root inputs came from the sampler, not
// the pool, and are not handed back (see ring.PutPoly).
func (rp *replayer) run(ctx context.Context) error {
	remaining := make([]int, len(rp.groups))
	undelivered := make([]int, len(rp.groups)) // group -> results still due
	waiters := map[int][]int{}                 // node ID -> dependent group indices
	for gi, g := range rp.groups {
		deps := rp.s.Nodes[g[0]].Deps
		remaining[gi], undelivered[gi] = len(deps), len(g)
		for _, d := range deps {
			waiters[d] = append(waiters[d], gi)
		}
	}
	recycle := !rp.cfg.Check
	readers := make([]int, len(rp.s.Nodes)) // node ID -> groups yet to derive from its c1
	for id, gs := range waiters {
		readers[id] = len(gs)
	}
	// Buffered for every node so in-flight completion forwarders can
	// never leak, even on an early error return.
	ch := make(chan nodeDone, len(rp.s.Nodes))
	submit := func(gi int) error {
		if err := rp.submitGroup(ctx, gi, ch); err != nil {
			return err
		}
		for _, d := range rp.s.Nodes[rp.groups[gi][0]].Deps {
			if readers[d]--; recycle && readers[d] == 0 {
				rp.r.PutPoly(rp.results[d].C1)
			}
		}
		return nil
	}
	for gi := range rp.groups {
		if remaining[gi] == 0 {
			if err := submit(gi); err != nil {
				return err
			}
		}
	}
	completed := make([]bool, len(rp.s.Nodes))
	for n := len(rp.s.Nodes); n > 0; n-- {
		var d nodeDone
		select {
		case <-ctx.Done():
			return ctx.Err()
		case d = <-ch:
		}
		if d.res.Err != nil {
			return fmt.Errorf("workload: node %d (%s): %w", d.id, rp.s.Nodes[d.id].Stage, d.res.Err)
		}
		for _, dep := range rp.s.Nodes[d.id].Deps {
			if !completed[dep] {
				rp.depViolations++
			}
		}
		completed[d.id] = true
		rp.results[d.id] = d.res
		for _, gi := range waiters[d.id] {
			remaining[gi]--
			if remaining[gi] == 0 {
				if err := submit(gi); err != nil {
					return err
				}
			}
		}
		if !recycle {
			continue
		}
		rp.r.PutPoly(d.res.C0)
		if len(waiters[d.id]) == 0 {
			rp.r.PutPoly(d.res.C1)
		}
		gi := rp.s.Nodes[d.id].Group
		if undelivered[gi]--; undelivered[gi] == 0 && len(rp.s.Nodes[d.id].Deps) > 0 {
			rp.r.PutPoly(rp.inputs[gi])
		}
	}
	return nil
}

// checkSerial re-executes the schedule with direct per-node
// hks.KeySwitch calls — same seed, same input derivation, same keys —
// and compares every served output bit for bit. Passing proves both
// value correctness and dependency order: a service that served a
// node before its predecessors existed could not have produced the
// derived input's switch result.
func (rp *replayer) checkSerial(switchers serve.SwitcherSource, keys serve.KeySource) error {
	ref := ring.NewSampler(rp.r, rp.cfg.Seed)
	c1s := make([]*ring.Poly, len(rp.s.Nodes))
	var bad []string
	for gi, g := range rp.groups {
		n0 := rp.s.Nodes[g[0]]
		in := rp.deriveInput(gi,
			func(id int) *ring.Poly { return c1s[id] },
			ref.Uniform)
		sw, err := switchers.Switcher(n0.Level)
		if err != nil {
			return err
		}
		for _, id := range g {
			n := rp.s.Nodes[id]
			mat, err := keys.Key(serve.KeyID{Tenant: rp.cfg.Tenant, Rot: n.Rot, Level: n.Level})
			if err != nil {
				return fmt.Errorf("workload: reference key for node %d: %w", id, err)
			}
			c0, c1 := sw.KeySwitch(in, mat)
			c1s[id] = c1
			if !c0.Equal(rp.results[id].C0) || !c1.Equal(rp.results[id].C1) {
				// Name the node fully — stage, kind, rotation, level — so
				// a bit-exactness failure localizes to a schedule position
				// without cross-referencing the DAG by hand.
				bad = append(bad, fmt.Sprintf("%d (%s: %s rot %d at level %d)",
					id, n.Stage, n.Kind, n.Rot, n.Level))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("workload: served outputs differ from serial replay at node(s) %s",
			strings.Join(bad, "; "))
	}
	return nil
}
