// Package workload represents key-switch traffic as typed schedule
// DAGs and replays them against the internal/serve service.
//
// The serving layer's reuse machinery — hoisted-state coalescing,
// key caching, per-tenant dispatch — was built under an independent
// fan-out load: every request ready the moment it is issued, every
// fan-out on one shared input. Real CKKS workloads are not shaped
// like that. The paper's heaviest key-switch mix, CKKS bootstrapping,
// is long *dependent* chains of CoeffToSlot/SlotToCoeff stages
// interleaved with wide hoistable rotation fan-outs: a stage's
// baby-step rotations can share one Decompose+ModUp, but its
// giant-step rotations each consume a distinct inner sum (no sharing
// possible), and the next stage cannot start until the current one
// finishes. Whether coalescing wins anything under that dependency
// pressure is a property of the schedule's *shape*, not of any single
// switch — which is exactly the dataflow argument this repository
// reproduces, lifted from one key switch to a whole schedule.
//
// A Schedule is a DAG of key switches. Each Node is one rotation or
// one multiplication relinearization at an explicit ciphertext level,
// with explicit data dependencies (Deps) and a hoist-group assignment
// (Group): nodes of one group consume the same input polynomial and
// may legally share one hoisted ModUp. Generators (generate.go) build
// three shapes:
//
//   - Bootstrap: CoeffToSlot/SlotToCoeff rotation schedules with
//     radix-split rotation indices and one level consumed per stage,
//     derived from the BTS1–3 parameter sets (or scaled onto a
//     smaller replay ring);
//   - Matvec: one baby-step/giant-step diagonal matrix-vector
//     product — a hoistable baby fan-out feeding dependent giant
//     singletons;
//   - Fanout: the serving layer's original independent fan-out
//     bursts, as the degenerate (dependency-free) case.
//
// Counts() predicts, from the DAG alone, exactly what a correct
// serving layer must measure: key switches per level, ModUp
// executions with hoisting (one per group) and without (one per
// node), and the coalesced-request count. The replay client
// (replay.go) drives internal/serve respecting the DAG — a node is
// submitted only after its predecessors' results land, hoist groups
// are submitted together so the coalescer can merge them — and the
// measured serve.Stats deltas must equal these predictions *exactly*;
// any drift means the service either coalesced logically sequential
// work (a correctness hazard) or failed to coalesce a hoistable group
// (a performance regression). `ciflow schedule` prints a schedule's
// shape and predictions; `ciflow serve -workload ...` replays it.
package workload

import (
	"fmt"
	"sort"
)

// Kind is the operation class of a schedule node. Both kinds cost one
// hybrid key switch; they differ in which evaluation key they consume
// (a rotation key vs the s²→s relinearization key).
type Kind int

const (
	// Rotate is a slot rotation: one key switch under a rotation key.
	Rotate Kind = iota
	// Relin is a ciphertext multiplication's relinearization: one key
	// switch under the relinearization key. The replay client models
	// it as a switch under the identity-automorphism key (Rot 0),
	// which has the identical cost shape at the hks layer.
	Relin
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Rotate:
		return "rotate"
	case Relin:
		return "relin"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one key switch of a schedule. Nodes are identified by their
// index in Schedule.Nodes; dependencies always point at lower IDs, so
// a schedule is acyclic by construction.
type Node struct {
	// ID is the node's index in Schedule.Nodes.
	ID int `json:"id"`
	// Kind selects rotation vs relinearization.
	Kind Kind `json:"kind"`
	// Rot is the rotation amount (Rotate nodes; 0 for Relin).
	Rot int `json:"rot"`
	// Level is the ciphertext level the switch runs at.
	Level int `json:"level"`
	// Deps lists the nodes whose outputs this node's input is derived
	// from; empty for root nodes. All members of one hoist group carry
	// identical Deps — they consume the same input.
	Deps []int `json:"deps,omitempty"`
	// Group is the hoist-group index. Members of one group share one
	// input polynomial and may share one hoisted ModUp; singleton
	// groups get their own ModUp. Group IDs are dense, ascending, and
	// members are consecutive in Schedule.Nodes.
	Group int `json:"group"`
	// Stage is a human label ("CtS0 baby", "giant", ...), for reports.
	Stage string `json:"stage,omitempty"`
}

// Schedule is a dependency DAG of key switches, in topological order.
// Construct through the generators in generate.go (or assemble Nodes
// directly and Validate).
type Schedule struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	// Radix is the effective per-stage DFT radix of a bootstrap
	// schedule (after auto-fit or clamping); 0 for other shapes.
	Radix int `json:"radix,omitempty"`
}

// Groups returns the hoist groups as slices of node IDs, indexed by
// group ID. Validate guarantees members are consecutive and groups
// densely numbered.
func (s *Schedule) Groups() [][]int {
	var groups [][]int
	for _, n := range s.Nodes {
		if n.Group == len(groups) {
			groups = append(groups, nil)
		}
		groups[n.Group] = append(groups[n.Group], n.ID)
	}
	return groups
}

// Validate checks the DAG invariants the replay client and the count
// predictions rely on: IDs match positions, dependencies point
// backwards (acyclicity), levels never increase along an edge (a
// node's input must be derivable from its predecessors' outputs by
// basis restriction), and hoist groups are dense, consecutive runs of
// nodes sharing identical Deps, Level and Kind.
func (s *Schedule) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("workload: schedule %q has no nodes", s.Name)
	}
	nextGroup := 0
	for i, n := range s.Nodes {
		if n.ID != i {
			return fmt.Errorf("workload: node at index %d has ID %d", i, n.ID)
		}
		if n.Level < 0 {
			return fmt.Errorf("workload: node %d at negative level %d", i, n.Level)
		}
		if n.Kind != Rotate && n.Kind != Relin {
			return fmt.Errorf("workload: node %d has unknown kind %d", i, int(n.Kind))
		}
		if n.Kind == Relin && n.Rot != 0 {
			return fmt.Errorf("workload: relin node %d carries rotation %d", i, n.Rot)
		}
		for _, d := range n.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("workload: node %d depends on %d (must be an earlier node)", i, d)
			}
			if s.Nodes[d].Level < n.Level {
				return fmt.Errorf("workload: node %d at level %d depends on node %d at lower level %d",
					i, n.Level, d, s.Nodes[d].Level)
			}
		}
		switch {
		case n.Group == nextGroup:
			nextGroup++
		case n.Group == nextGroup-1 && i > 0:
			// Continuing the current group: members must be exact
			// replicas but for the rotation amount.
			prev := s.Nodes[i-1]
			if prev.Group != n.Group {
				return fmt.Errorf("workload: group %d is not consecutive at node %d", n.Group, i)
			}
			if n.Level != prev.Level || n.Kind != prev.Kind || !equalDeps(n.Deps, prev.Deps) {
				return fmt.Errorf("workload: node %d does not match its hoist group %d (level/kind/deps differ)",
					i, n.Group)
			}
		default:
			return fmt.Errorf("workload: node %d has group %d, want %d or %d (groups must be dense and consecutive)",
				i, n.Group, nextGroup-1, nextGroup)
		}
	}
	return nil
}

func equalDeps(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LevelCount is one level's slice of a schedule's predicted counts:
// key switches at the level, hoisted Decompose+ModUp executions (one
// per hoist group running at the level), and requests served out of
// shared hoisted state (the summed width of the level's hoist groups
// with at least two members). The replay client cross-validates these
// against the service's own per-level counters (serve.Stats.PerLevel),
// so the level mix — not just the totals — must survive any serving
// layer between client and executor.
type LevelCount struct {
	Level     int `json:"level"`
	Switches  int `json:"switches"`
	ModUps    int `json:"mod_ups"`
	Coalesced int `json:"coalesced,omitempty"`
}

// Counts are the exact operation counts a schedule predicts for any
// correct executor: the replay client asserts the measured serve
// counters equal these, field for field.
type Counts struct {
	// Switches is the total key switches (nodes); a serving layer's
	// Served delta must equal it.
	Switches int `json:"switches"`
	// Rotations and Relins partition Switches by kind.
	Rotations int `json:"rotations"`
	Relins    int `json:"relins"`
	// ModUps is the Decompose+ModUp executions with hoisting: exactly
	// one per hoist group (singletons included). serve.Stats.ModUps
	// and serve.Stats.Groups deltas must both equal it.
	ModUps int `json:"mod_ups"`
	// ModUpsUnhoisted is the count without hoisting: one per switch.
	ModUpsUnhoisted int `json:"mod_ups_unhoisted"`
	// HoistGroups counts the groups with at least two members — the
	// fan-outs where coalescing must fire.
	HoistGroups int `json:"hoist_groups"`
	// Coalesced is the number of requests served out of shared hoisted
	// state: the summed size of all hoist groups (width ≥ 2). The
	// serve.Stats.Coalesced delta must equal it — more means the
	// service merged logically sequential steps, fewer means a
	// hoistable fan-out was split.
	Coalesced int `json:"coalesced"`
	// MaxWidth is the widest hoist group.
	MaxWidth int `json:"max_width"`
	// Depth is the longest dependency chain, in key switches — the
	// schedule's critical path when every switch takes unit time.
	Depth int `json:"depth"`
	// DistinctKeys is the number of distinct (kind, rotation, level)
	// evaluation keys the schedule touches — the key-cache working set.
	DistinctKeys int `json:"distinct_keys"`
	// PerLevel is the switch count per ciphertext level, descending
	// from the top level.
	PerLevel []LevelCount `json:"per_level"`
}

// CoalescingFactor is the predicted served-requests-per-ModUp ratio of
// the whole schedule under hoisting.
func (c Counts) CoalescingFactor() float64 {
	if c.ModUps == 0 {
		return 0
	}
	return float64(c.Switches) / float64(c.ModUps)
}

// HoistCoalescingFactor is the predicted coalescing factor *inside*
// hoist groups: coalesced requests per hoist-group ModUp. This is the
// number `ciflow serve -check` requires to stay above 1 — across chain
// steps it must contribute nothing.
func (c Counts) HoistCoalescingFactor() float64 {
	if c.HoistGroups == 0 {
		return 0
	}
	return float64(c.Coalesced) / float64(c.HoistGroups)
}

// Counts computes the schedule's predictions. The schedule must be
// valid (see Validate).
func (s *Schedule) Counts() Counts {
	c := Counts{
		Switches:        len(s.Nodes),
		ModUpsUnhoisted: len(s.Nodes),
	}
	type key struct {
		kind  Kind
		rot   int
		level int
	}
	keys := map[key]struct{}{}
	perLevel := map[int]int{}
	depth := make([]int, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.Kind == Relin {
			c.Relins++
		} else {
			c.Rotations++
		}
		keys[key{n.Kind, n.Rot, n.Level}] = struct{}{}
		perLevel[n.Level]++
		depth[i] = 1
		for _, d := range n.Deps {
			if depth[d]+1 > depth[i] {
				depth[i] = depth[d] + 1
			}
		}
		if depth[i] > c.Depth {
			c.Depth = depth[i]
		}
	}
	perLevelMod := map[int]int{}
	perLevelCoal := map[int]int{}
	for _, g := range s.Groups() {
		c.ModUps++
		gl := s.Nodes[g[0]].Level // group members share one level
		perLevelMod[gl]++
		if len(g) > c.MaxWidth {
			c.MaxWidth = len(g)
		}
		if len(g) >= 2 {
			c.HoistGroups++
			c.Coalesced += len(g)
			perLevelCoal[gl] += len(g)
		}
	}
	c.DistinctKeys = len(keys)
	levels := make([]int, 0, len(perLevel))
	for l := range perLevel {
		levels = append(levels, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	for _, l := range levels {
		c.PerLevel = append(c.PerLevel, LevelCount{
			Level: l, Switches: perLevel[l], ModUps: perLevelMod[l], Coalesced: perLevelCoal[l],
		})
	}
	return c
}

// builder assembles schedules for the generators; it keeps group IDs
// dense and node IDs positional by construction.
type builder struct {
	name  string
	nodes []Node
}

// group appends one hoist group of len(rots) rotation nodes sharing
// deps at level, returning the new node IDs.
func (b *builder) group(stage string, level int, deps []int, rots []int) []int {
	g := b.nextGroup()
	ids := make([]int, len(rots))
	for i, rot := range rots {
		ids[i] = len(b.nodes)
		b.nodes = append(b.nodes, Node{
			ID: ids[i], Kind: Rotate, Rot: rot, Level: level,
			Deps: deps, Group: g, Stage: stage,
		})
	}
	return ids
}

// bsgs appends one baby-step/giant-step stage at level: a hoist group
// of n1−1 baby rotations (amounts j·step, 0 < j < n1) on deps, then
// n2−1 giant singletons (amounts j·n1·step, 0 < j < n2), each
// depending on every baby — each giant consumes its own inner sum, so
// no two may share hoisted state. The nodes are labelled prefix+"baby"
// and prefix+"giant". It returns the stage's output nodes: the giants,
// or the babies when there are none.
func (b *builder) bsgs(prefix string, n1, n2, step, level int, deps []int) []int {
	rots := make([]int, n1-1)
	for i := range rots {
		rots[i] = (i + 1) * step
	}
	out := b.group(prefix+"baby", level, deps, rots)
	if n2 == 1 {
		return out
	}
	giants := make([]int, n2-1)
	for i := range giants {
		giants[i] = b.node(prefix+"giant", Rotate, (i+1)*n1*step, level, out)
	}
	return giants
}

// node appends one singleton-group node.
func (b *builder) node(stage string, kind Kind, rot, level int, deps []int) int {
	id := len(b.nodes)
	b.nodes = append(b.nodes, Node{
		ID: id, Kind: kind, Rot: rot, Level: level,
		Deps: deps, Group: b.nextGroup(), Stage: stage,
	})
	return id
}

func (b *builder) nextGroup() int {
	if len(b.nodes) == 0 {
		return 0
	}
	return b.nodes[len(b.nodes)-1].Group + 1
}

// schedule validates and returns the assembled schedule.
func (b *builder) schedule() (*Schedule, error) {
	s := &Schedule{Name: b.name, Nodes: b.nodes}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
