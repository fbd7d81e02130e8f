package workload

// Schedule generators. Three shapes, in increasing dependency
// pressure:
//
//   - Fanout: the serving layer's original load — independent bursts
//     of rotations on distinct inputs. No dependencies at all; every
//     burst is a hoist group. The degenerate case.
//   - Matvec: one baby-step/giant-step diagonal matrix-vector
//     product. The baby rotations are a classic hoistable fan-out
//     (one shared input), but each giant rotation consumes its own
//     inner sum, so the giants are dependent singletons: coalescing
//     helps the first half of the operation and is structurally
//     impossible in the second.
//   - Bootstrap: CKKS bootstrapping's CoeffToSlot/SlotToCoeff
//     pipeline — a chain of homomorphic DFT stages, each one a BSGS
//     matvec, each consuming a ciphertext level, with one
//     EvalMod-style relinearization between the halves. This is the
//     paper's heaviest key-switch mix: long dependent chains
//     interleaved with wide hoisted fan-outs.
//
// Bootstrapping shape. A radix-2^k DFT stage over 2^logSlots slots
// needs the rotations {±j·stride : 0 < j < 2^k} at stride 2^(sum of
// earlier chunks); evaluated with baby-step/giant-step (n1 = 2^⌈k/2⌉
// babies, n2 = 2^⌊k/2⌋ giants) that is n1−1 hoistable baby rotations
// plus n2−1 dependent giant rotations per stage. CoeffToSlot runs the
// stages at ascending strides, SlotToCoeff mirrors them back down
// with negated rotation amounts (the inverse transform), and every
// stage's rescale consumes one ciphertext level — so a schedule needs
// 2·stages + 1 levels. BootstrapBTS derives the canonical schedule of
// a paper BTS parameter set at its own geometry (2^16 slots, KL
// levels); Bootstrap scales the same construction onto any smaller
// replay ring.

import (
	"fmt"

	"ciflow/internal/params"
)

// Fanout builds the degenerate dependency-free schedule: steps
// independent bursts, each a hoist group of width rotations (amounts
// 1..width) on its own input at one level. Predicted ModUps = steps,
// coalesced = steps×width: the shape `ciflow serve`'s original load
// generator has always exercised.
func Fanout(steps, width, level int) (*Schedule, error) {
	if steps < 1 || width < 1 {
		return nil, fmt.Errorf("workload: fanout needs steps and width >= 1, got %d, %d", steps, width)
	}
	b := &builder{name: fmt.Sprintf("fanout-%dx%d", steps, width)}
	rots := make([]int, width)
	for i := range rots {
		rots[i] = i + 1
	}
	for s := 0; s < steps; s++ {
		b.group(fmt.Sprintf("burst%d", s), level, nil, rots)
	}
	return b.schedule()
}

// Matvec builds one baby-step/giant-step diagonal matvec at a level:
// a hoist group of n1−1 baby rotations (amounts 1..n1−1) on the input
// vector, then n2−1 giant rotations (amounts j·n1), each a singleton
// depending on all babies — its input is that giant's inner sum, so
// no two giants may share hoisted state. The classic diagonal-method
// linear transform covering an n1·n2-dimensional matrix.
func Matvec(n1, n2, level int) (*Schedule, error) {
	if n1 < 2 || n2 < 1 {
		return nil, fmt.Errorf("workload: matvec needs n1 >= 2 and n2 >= 1, got %d, %d", n1, n2)
	}
	b := &builder{name: fmt.Sprintf("matvec-%dx%d", n1, n2)}
	b.bsgs("", n1, n2, 1, level, nil)
	return b.schedule()
}

// BootstrapParams configures a bootstrapping-shaped schedule.
type BootstrapParams struct {
	// LogSlots is log2 of the slot count the DFT stages must cover —
	// for a replay ring of degree 2^logN, logN−1.
	LogSlots int
	// Radix is the per-stage DFT radix (a power of two); 0 picks the
	// smallest radix ≥ 16 whose stage count fits the level budget.
	Radix int
	// Top is the level the first CoeffToSlot stage runs at; stages
	// descend one level each, with the relinearization between the
	// halves, so the schedule needs levels Top … Top−2·stages.
	Top int
	// Bottom is the lowest level the schedule may reach (usually 0).
	Bottom int
}

// autoRadix picks the smallest radix (≥ 16, to keep stages wide
// enough to hoist) whose CtS/StC stage count fits the level budget.
func autoRadix(logSlots, budget int) (int, error) {
	for chunk := 4; chunk <= logSlots; chunk++ {
		stages := (logSlots + chunk - 1) / chunk
		if 2*stages+1 <= budget {
			return 1 << chunk, nil
		}
	}
	if budget >= 3 { // a single stage per half always fits 3 levels
		return 1 << logSlots, nil
	}
	return 0, fmt.Errorf("workload: bootstrap needs at least 3 levels, have %d", budget)
}

// splitChunks distributes logSlots over stages near-evenly, widest
// stage first (the real pipelines put the large radix at the top of
// the modulus chain where levels are cheapest).
func splitChunks(logSlots, stages int) []int {
	chunks := make([]int, stages)
	for i := range chunks {
		chunks[i] = logSlots / stages
		if i < logSlots%stages {
			chunks[i]++
		}
	}
	return chunks
}

// bsgsSplit splits a 2^k-diagonal stage into n1 babies and n2 giants
// with n1·n2 = 2^k and n1 ≥ n2.
func bsgsSplit(k int) (n1, n2 int) {
	return 1 << ((k + 1) / 2), 1 << (k / 2)
}

// Bootstrap generates the CoeffToSlot → relinearize → SlotToCoeff
// schedule for the given geometry. Each DFT stage is a BSGS matvec
// (see the file comment); CtS stages ascend in stride, StC stages
// mirror them with negated amounts, and every stage consumes one
// level. The relinearization between the halves stands in for the
// EvalMod polynomial evaluation's dominant key switch.
func Bootstrap(p BootstrapParams) (*Schedule, error) {
	if p.LogSlots < 1 {
		return nil, fmt.Errorf("workload: bootstrap needs logSlots >= 1, got %d", p.LogSlots)
	}
	if p.Bottom < 0 || p.Top < p.Bottom {
		return nil, fmt.Errorf("workload: bootstrap levels top %d / bottom %d invalid", p.Top, p.Bottom)
	}
	budget := p.Top - p.Bottom + 1
	radix := p.Radix
	if radix == 0 {
		var err error
		if radix, err = autoRadix(p.LogSlots, budget); err != nil {
			return nil, err
		}
	}
	chunk := 0
	for 1<<chunk < radix {
		chunk++
	}
	if 1<<chunk != radix || chunk < 1 {
		return nil, fmt.Errorf("workload: bootstrap radix %d must be a power of two >= 2", radix)
	}
	if chunk > p.LogSlots {
		// A radix wider than the slot count degenerates to one
		// full-width stage; radix below records what is actually
		// built, not what was asked for.
		chunk = p.LogSlots
	}
	radix = 1 << chunk
	stages := (p.LogSlots + chunk - 1) / chunk
	if 2*stages+1 > budget {
		return nil, fmt.Errorf("workload: bootstrap at radix %d needs %d levels (2x%d stages + relin), have %d",
			radix, 2*stages+1, stages, budget)
	}
	chunks := splitChunks(p.LogSlots, stages)

	b := &builder{name: fmt.Sprintf("bootstrap-2^%d-r%d", p.LogSlots, radix)}
	level := p.Top

	// stage emits one BSGS DFT stage (builder.bsgs) and descends a
	// level. It returns the stage's output nodes — what the next
	// stage's input is derived from.
	stage := func(label string, k, step int, deps []int) []int {
		n1, n2 := bsgsSplit(k)
		out := b.bsgs(label+" ", n1, n2, step, level, deps)
		level--
		return out
	}

	// CoeffToSlot: strides ascend with the cumulative radix split.
	var deps []int
	stride := 1
	for s, k := range chunks {
		deps = stage(fmt.Sprintf("CtS%d", s), k, stride, deps)
		stride <<= k
	}

	// EvalMod stand-in: one relinearization on the combined CtS output.
	deps = []int{b.node("EvalMod relin", Relin, 0, level, deps)}
	level--

	// SlotToCoeff: the inverse transform — mirrored stage order,
	// descending strides, negated rotation amounts.
	for s := stages - 1; s >= 0; s-- {
		stride >>= chunks[s]
		deps = stage(fmt.Sprintf("StC%d", s), chunks[s], -stride, deps)
	}
	sched, err := b.schedule()
	if err != nil {
		return nil, err
	}
	sched.Radix = radix
	return sched, nil
}

// BTSBenchmark resolves a -bts flag value (1..3) to the paper's BTS
// parameter set.
func BTSBenchmark(n int) (params.Benchmark, error) {
	switch n {
	case 1:
		return params.BTS1, nil
	case 2:
		return params.BTS2, nil
	case 3:
		return params.BTS3, nil
	default:
		return params.Benchmark{}, fmt.Errorf("workload: -bts %d out of range [1,3]", n)
	}
}

// BootstrapBTS generates the canonical bootstrapping schedule of one
// of the paper's BTS parameter sets at its own geometry: 2^(logN−1)
// slots and the full KL-level modulus chain. This is the schedule
// `ciflow schedule -workload bootstrap` prints and prices; the serve
// replay scales the same construction to its (much smaller) ring via
// Bootstrap.
func BootstrapBTS(b params.Benchmark, radix int) (*Schedule, error) {
	s, err := Bootstrap(BootstrapParams{
		LogSlots: b.LogN - 1,
		Radix:    radix,
		Top:      b.KL - 1,
		Bottom:   0,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", b.Name, err)
	}
	s.Name = fmt.Sprintf("bootstrap-%s", b.Name)
	return s, nil
}
