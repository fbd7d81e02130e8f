package dataflow

import "fmt"

// The RPU back-end of a Plan: the walk's tiles visited with the
// residency machine. The plan fixes the order, the kernels, their
// operands and where rows die; what this file adds is each dataflow's
// residency policy — what to keep on chip and what to spill when a tile
// has written a row — which is where the dataflows' DRAM traffic
// (Table II) comes from.

// gen carries one generation's state.
type gen struct {
	cfg  Config
	plan *Plan
	m    *machine
	tb   int64 // bytes of one tower

	// reserve is the free space below which a finished row is spilled
	// instead of kept: room for the largest set a later stage pins, plus
	// transients.
	reserve int64

	tile func(Tile) // the walk's residency policy: mp, dc or oc

	keepIn, keepINTT bool  // MP: the input rows (for P4's bypass) and the INTT rows (for P2) fit beside the working towers
	muLeft           int64 // DC: converted rows of the current digit that may still stay on chip
	muDigit          int   // DC: the digit muLeft was sized for
	need             int64 // OC: the space the current pass asked for
}

// emit picks and sizes the walk's residency policy and visits the plan.
// A group that pins rows has room made for them first.
func (g *gen) emit() {
	b, towers := g.plan.Bench, g.cfg.DataMemBytes/g.tb
	for t := 0; t < b.KL; t++ {
		g.m.announceDRAM(inRow(t), g.tb)
	}
	g.tile = g.oc
	switch g.plan.Walk {
	case MP:
		// Room for any later stage's pinned set: a digit's INTT rows at
		// P2, the dnum partial products at P5, the P rows at ModDown.
		g.reserve = int64(max(b.KP, 2*b.Dnum, b.Alpha())+8) * g.tb
		g.keepINTT = int64(b.KL+2) <= towers
		g.keepIn = int64(2*b.KL+2) <= towers
		g.tile = g.mp
	case DC:
		// Keeping stage outputs must never starve a later digit, which
		// pins up to 2α input and INTT rows and wants room for the β-wide
		// expansion, nor ModDown's P rows.
		g.reserve = int64(max(2*b.Alpha()+b.Beta(b.Dnum-1), b.KP)+8) * g.tb
		g.muDigit = -1
		g.tile = g.dc
	case OC:
		// Finished sums stay for ModDown while the widest pass still to
		// come keeps its room (§IV-C: "we prioritize storing towers related
		// to [P0]_B and [P1]_B").
		widest := b.KP
		for _, grp := range g.plan.Groups {
			widest = max(widest, len(grp.Pin))
		}
		g.reserve = int64(widest+4) * g.tb
	case OCF:
		g.reserve = int64(b.Alpha()+6) * g.tb
	}
	groups := g.plan.Groups
	for i := 0; i < len(groups); i++ {
		if groups[i].Pin != nil {
			i += g.pin(groups[i:])
		}
		g.group(groups[i])
	}
}

// group visits one group's tiles. An output-centric pass that leaves
// its tower unfinished — the group ends in an Apply, not the closing
// Reduce — sends the partial sums to DRAM.
func (g *gen) group(grp Group) {
	for _, t := range grp.Tiles {
		g.tile(t)
	}
	if last := grp.Tiles[len(grp.Tiles)-1]; last.Kind == Apply && g.plan.Walk.Paper() == OC {
		for _, op := range last.Ops {
			g.m.spill(op.Write)
		}
	}
}

// run emits t's kernels. Each kernel's operands are made resident
// first — an accumulator too, if it was spilled — and an Apply streams
// its key tower. Finished output rows go straight to DRAM; every other
// written row is shown to wrote, the dataflow's spill policy. The rows
// the tile frees are released when it is through.
func (g *gen) run(t Tile, wrote func(Row)) {
	m := g.m
	ek := -1
	if t.Kind == Apply {
		m.ensure(t.Ops[0].Reads[0])
		ek = m.streamEvk(fmt.Sprintf("%d.%d", t.J, t.T), 2*g.tb)
	}
	for _, op := range t.Ops {
		if op.Name == "" {
			continue // not an RPU kernel
		}
		for _, r := range op.Reads {
			m.ensure(r)
		}
		if t.Acc {
			m.ensure(op.Write)
		}
		m.compute(op.Name, op.Cost, op.Reads, op.Write, g.tb, ek)
		if op.Write.Kind == RowOut {
			m.spill(op.Write)
		} else if wrote != nil {
			wrote(op.Write)
		}
		if op.Last {
			g.release(op.Reads)
		}
	}
	g.release(t.Frees)
}

// release frees those of rows that are on chip. A row that was spilled
// keeps its DRAM copy (an input row always has one); any other is dead
// and discarded.
func (g *gen) release(rows []Row) {
	for _, r := range rows {
		if g.m.resident(r) {
			g.m.free(r, !g.m.get(r).inDRAM)
		}
	}
}

func (g *gen) spill(r Row) { g.m.spillUnless(r, g.reserve) }

// mp is Max-Parallel's policy: stage outputs — above all the BConv
// expansion of P2 and the partial products of P4 — stay on chip only
// while reserve stays free, so with a small memory they stream through
// DRAM (the paper's 675 MB working-set observation for BTS3). The INTT
// rows and the inputs stay across stages when they all fit.
func (g *gen) mp(t Tile) {
	switch t.Kind {
	case INTT:
		g.run(t, func(w Row) {
			if !g.keepINTT {
				g.m.spill(w)
			}
			if !g.keepIn {
				g.m.spill(t.Ops[0].Reads[0]) // clean: the DRAM copy is the input
			}
		})
	case NTT, Apply, Reduce:
		g.run(t, g.spill)
	default:
		g.run(t, nil)
	}
}

// dc is Digit-Centric's policy: a digit's INTT rows never leave the
// chip, but its expansion spills once the space left after the INTTs is
// used up, and the sums round-trip through DRAM between digits ("sent
// off-chip to minimize on-chip memory requirements") — which is why DC
// converges to MP on the large benchmarks.
func (g *gen) dc(t Tile) {
	m := g.m
	switch t.Kind {
	case INTT:
		g.run(t, func(Row) {
			// Keep the NTT-domain digit for P4's bypass beside its INTT
			// when both fit; otherwise reload it there.
			if int64(2*g.plan.Bench.DigitWidths()[t.J]+4)*g.tb > g.cfg.DataMemBytes {
				m.spill(t.Ops[0].Reads[0])
			}
		})
	case Conv:
		if t.J != g.muDigit {
			g.muDigit, g.muLeft = t.J, max(m.freeTowers(g.tb)-4, 0)
		}
		g.run(t, func(w Row) {
			if g.muLeft--; g.muLeft < 0 {
				m.spill(w)
			}
		})
	case NTT:
		// A spilled row makes a DRAM round trip here (the DC inefficiency
		// the paper calls out); one that stayed is transformed in place.
		if m.resident(t.Ops[0].Write) {
			g.run(t, nil)
		} else {
			g.run(t, g.spill)
		}
	case Apply:
		g.run(t, g.spill)
	default:
		g.run(t, nil)
	}
}

// oc is the Output-Centric policy, for OC and OCF: everything without
// reuse streams — key towers, converted rows, finished output towers —
// and only the sums wait, for ModDown, if there is room.
func (g *gen) oc(t Tile) {
	m, ocf := g.m, g.plan.Walk == OCF
	switch in := t.Ops[0].Reads[0]; {
	case t.Kind == INTT:
		// Keep the clean input row for its bypass when memory is plentiful.
		g.run(t, func(Row) { m.spillUnless(in, g.need+4*g.tb) })
		return
	case t.Kind == Conv:
		// A later pass of this tower starts by fetching its partial sums
		// back.
		for p := 0; p < 2; p++ {
			if sum := accRow(p, t.T); m.stored(sum) {
				m.load(sum)
			}
		}
	case t.Kind == Apply && in.Kind == RowIn:
		// After a bypass the clean input row stays, memory permitting, for
		// an INTT still to come; OCF has its space spoken for.
		g.run(t, nil)
		if ocf {
			m.spill(in)
		} else {
			m.spillUnless(in, g.reserve+8*g.tb)
		}
		return
	case t.Kind == Reduce && (!ocf || t.T >= g.plan.Bench.KL):
		// A finished sum waits for ModDown if it can — except OCF's Q sums,
		// which the ModDown tiles that follow consume.
		for _, op := range t.Ops {
			g.spill(op.Write)
		}
	}
	g.run(t, nil)
}

// pin opens a pass of the OC walks at groups[0] and returns how many of
// the groups it has visited itself. For a pass over INTT rows it evicts
// until the missing ones fit beside one tower's working set — clean
// input rows first, then other digits' INTT rows, stored on their first
// eviction so that a later pass reloads instead of recomputing (the op
// count must not depend on the dataflow) — and then brings the pinned
// rows on chip in tower order: reloaded if stored, computed otherwise by
// the INTT groups the walk put first in the pass. For OCF's pass over
// ModDown's P rows it only trims the INTT residency to leave them room;
// the tiles fetch what they read.
func (g *gen) pin(groups []Group) (visited int) {
	m, kl, pin := g.m, g.plan.Bench.KL, groups[0].Pin
	if len(pin) > 0 && pin[0].Kind == RowAcc {
		for t := 0; t < kl; t++ {
			if r := inttRow(t); m.resident(r) && !m.fits(int64(len(pin)+6)*g.tb) {
				m.spill(r)
			}
		}
		return 0
	}
	want, missing := map[Row]bool{}, 0
	for _, r := range pin {
		want[r] = true
		if !m.resident(r) {
			missing++
		}
	}
	g.need = int64(missing+4) * g.tb
	for t := 0; t < kl && !m.fits(g.need); t++ {
		if m.resident(inRow(t)) {
			m.spill(inRow(t))
		}
	}
	for t := 0; t < kl && !m.fits(g.need); t++ {
		if r := inttRow(t); m.resident(r) && !want[r] {
			m.spill(r)
		}
	}
	for _, r := range pin {
		if m.stored(r) {
			m.load(r)
		} else if !m.resident(r) {
			g.group(groups[visited])
			visited++
		}
	}
	return visited
}
