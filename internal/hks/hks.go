// Package hks implements the hybrid key-switching (HKS) algorithm of
// Han–Ki in its full-RNS form — the computation whose dataflow CiFlow
// analyzes (paper §III).
//
// Key switching converts a ciphertext component d that is decryptable
// under a secret s′ into a pair (c0, c1) decryptable under s, using a
// pre-computed evaluation key. The RNS pipeline follows paper Figure 1:
//
//	ModUp   P1 INTT      — all ℓ towers to the coefficient domain
//	        P2 BConv     — each digit extended from α to β towers
//	        P3 NTT       — extended towers back to evaluation domain
//	        P4 Apply Key — point-wise multiply with evk digits
//	        P5 Reduce    — sum the dnum partial products
//	ModDown P1 INTT      — the K P-towers of both output polys
//	        P2 BConv     — basis conversion from P to Q_ℓ
//	        P3 NTT       — converted towers back to evaluation domain
//	        P4 Sum&Scale — subtract and multiply by P⁻¹
//
// The pipeline exists once, as a set of per-tower tiles over one pooled
// execution state (tiles.go). The paper's subject is the order those
// tiles run in, and so is the rest of the package: the schedules of
// schedule.go — each a visit of a dataflow's plan (internal/dataflow),
// the walk the RPU model visits too, built once into an engine.Graph —
// and the entry points that run one (switch.go), all bit-exact with
// one another. Every entry point runs its graph through RunGraph on an
// engine; serial is not a path of its own but engine.Inline(), which
// runs every node on the calling goroutine:
//
//	SwitchParallelInto          one fused task graph per switch on an
//	                            engine, shaped MP, DC, OC or OCF
//	KeySwitch                   MP's fused graph on engine.Inline(),
//	                            into fresh outputs
//	HoistParallel               ModUp alone, df's hoist graph on an
//	                            engine: the converted rows, kept in
//	                            the returned Hoisted beside its input
//	Hoisted.SwitchParallelInto  ApplyKey+ModDown against one key: the
//	                            state's replay graph on an engine
//	SwitchHoistedParallelInto   one hoist and its replays in one call;
//	                            SwitchHoisted is MP's on engine.Inline(),
//	                            into fresh outputs
//	ModUp, ApplyEvk, ModDown    MP's graph over one stage on the
//	                            caller, into fresh polynomials (ModUp
//	                            also copies the own towers in), so the
//	                            dataflow generators in internal/dataflow
//	                            can be validated stage by stage
//
// Every entry point that takes one key takes KeyMaterial: a dense Evk
// or a seed-compressed CompressedEvk, whose A-half the apply tiles draw
// from its seeds as they need it (compressed.go). The graphs do not
// depend on the key's form.
//
// A Switcher is immutable after construction and safe for concurrent
// use; the execution states are pooled on it, so steady-state switching
// allocates nothing on the hot path. Hoisting is how the layers above
// amortize fan-out: ckks.Evaluator's diagonal method rotates one
// ciphertext many ways over a single hoisted state, and internal/serve
// coalesces concurrent *requests* on one ciphertext onto a shared
// Hoisted the same way. A hoisted state's graphs are its dataflow's
// plan cut in two: the ModUp half runs once, the replay half once per
// key. As in the plan, a digit's own towers bypass ModUp (paper
// Figure 1, red towers): the state keeps only the rows the converters
// wrote, and its replays read the own towers from the input, which
// must stay unchanged until Release. SwitchOps/ModUpOps count that
// plan's weighted modular operations, backing the HoistedOpsSaved
// reuse model that bench prints (hks.hoist_model_x) beside the
// measured hks.hoist_speedup_x.
package hks

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"ciflow/internal/bconv"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/ntt"
	"ciflow/internal/params"
	"ciflow/internal/ring"
)

// Switcher holds the precomputed state for hybrid key switching at a
// fixed level ℓ = len(QBasis())−1 with a fixed digit count. Immutable
// after construction; safe for concurrent use.
type Switcher struct {
	R     *ring.Ring
	Dnum  int // number of digits Q_ℓ is decomposed into
	Alpha int // towers per digit, ⌈(ℓ+1)/dnum⌉

	qBasis ring.Basis // B_ℓ
	pBasis ring.Basis // C
	dBasis ring.Basis // D_ℓ = B_ℓ ∪ C

	digits    []ring.Basis       // tower indices per digit
	upConv    []*bconv.Converter // digit towers -> complement in D_ℓ
	downConv  *bconv.Converter   // P -> Q_ℓ
	gadget    [][]uint64         // gadget factor per digit per D_ℓ tower
	pInvModQ  []uint64           // P^-1 mod q_i, aligned with qBasis
	pInvShoup []uint64           // Shoup constants of pInvModQ
	// The ŷ constant of each Q tower (its digit's converter) and each
	// P tower (ModDown's), folded into the tower's INTT (ntt.Scaled).
	upScale, downScale []ntt.Scale

	// Index maps between each digit's converter destinations and the
	// extended basis, shared by every execution state.
	convDstIdx [][]int // [digit][converter dst idx] -> dBasis idx
	dstIdxOf   [][]int // [digit][dBasis idx] -> converter dst idx or -1

	// Each dataflow's walk over this shape with nothing pinned
	// (internal/dataflow), which every schedule visits (schedule.go).
	plans [dataflow.OCF + 1]*dataflow.Plan

	// Key generation's run states (keygen.go: each a graph and one
	// key's Gaussian integers), and the A- and B-row of one (digit,
	// tower) task of a key generated packed.
	keygens, genRows sync.Pool

	// Pooled execution states (tiles.go): one pool, because a state's
	// rows do not depend on the dataflow it last ran under, only its
	// cached graphs do. Filled on demand, never here.
	states sync.Pool

	// drawnSlab is the length of a run slab's drawn rows (tiles.go):
	// |D|·dnum rows at the ring's top level, for the digit count the
	// switcher was asked for, which a SwitcherPool keeps for every
	// level, so one warm slab fits every level's run.
	drawnSlab int
}

// NewSwitcher prepares hybrid key switching over r at the given level
// (0-based: level+1 Q towers are active) with dnum digits. The ring
// must carry at least one P tower and P must exceed every digit
// product for the noise analysis to hold.
func NewSwitcher(r *ring.Ring, level, dnum int) (*Switcher, error) {
	return newSwitcher(r, level, dnum, dnum)
}

// newSwitcher is NewSwitcher sizing its slabs' drawn rows for slabDnum
// digits.
func newSwitcher(r *ring.Ring, level, dnum, slabDnum int) (*Switcher, error) {
	if level < 0 || level >= r.NumQ {
		return nil, fmt.Errorf("hks: level %d out of range [0,%d)", level, r.NumQ)
	}
	if r.NumP == 0 {
		return nil, fmt.Errorf("hks: ring has no P towers")
	}
	ell := level + 1
	if dnum < 1 || dnum > ell {
		return nil, fmt.Errorf("hks: dnum %d out of range [1,%d]", dnum, ell)
	}
	sw := &Switcher{
		R:      r,
		Dnum:   dnum,
		Alpha:  (ell + dnum - 1) / dnum,
		qBasis: r.QBasis(level),
		pBasis: r.PBasis(),
		dBasis: r.DBasis(level),
	}
	sw.drawnSlab = r.N * (r.NumQ + r.NumP) * slabDnum

	// Digit partition: digit j covers towers [j·α, min((j+1)·α, ℓ+1)).
	for j := 0; j < dnum; j++ {
		lo, hi := sw.digitLo(j), sw.digitHi(j)
		if lo >= hi {
			return nil, fmt.Errorf("hks: dnum %d leaves digit %d empty at level %d", dnum, j, level)
		}
		sw.digits = append(sw.digits, sw.qBasis.Sub(lo, hi))
	}

	// P must dominate the largest digit product (Han–Ki condition).
	P := r.BasisProduct(sw.pBasis)
	for j, dg := range sw.digits {
		D := r.BasisProduct(dg)
		if P.Cmp(D) < 0 {
			return nil, fmt.Errorf("hks: P < digit %d product; increase K or digit count", j)
		}
	}

	// Converters: each digit to its complement in D_ℓ, and P to Q_ℓ.
	for _, dg := range sw.digits {
		var compl ring.Basis
		for _, t := range sw.dBasis {
			if !dg.Contains(t) {
				compl = append(compl, t)
			}
		}
		c, err := bconv.New(r, dg, compl)
		if err != nil {
			return nil, err
		}
		sw.upConv = append(sw.upConv, c)
	}
	var err error
	sw.downConv, err = bconv.New(r, sw.pBasis, sw.qBasis)
	if err != nil {
		return nil, err
	}

	sw.upScale = make([]ntt.Scale, len(sw.qBasis))
	for i, t := range sw.qBasis {
		j := i / sw.Alpha
		sw.upScale[i] = r.Tables[t].Scaled(sw.upConv[j].YScale(i - sw.digitLo(j)))
	}
	sw.downScale = make([]ntt.Scale, len(sw.pBasis))
	for i, t := range sw.pBasis {
		sw.downScale[i] = r.Tables[t].Scaled(sw.downConv.YScale(i))
	}

	// Gadget factors: w_j = P · Q̂_j · (Q̂_j^{-1} mod D_j) reduced into
	// every tower of D_ℓ (≡ 0 on the P towers).
	Q := r.BasisProduct(sw.qBasis)
	sw.gadget = make([][]uint64, dnum)
	for j, dg := range sw.digits {
		D := r.BasisProduct(dg)
		qHat := new(big.Int).Div(Q, D)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qHat, D), D)
		if inv == nil {
			return nil, fmt.Errorf("hks: digit %d gadget inverse does not exist", j)
		}
		w := new(big.Int).Mul(qHat, inv)
		w.Mul(w, P)
		sw.gadget[j] = make([]uint64, len(sw.dBasis))
		for i, t := range sw.dBasis {
			qi := new(big.Int).SetUint64(r.Moduli[t])
			sw.gadget[j][i] = new(big.Int).Mod(w, qi).Uint64()
		}
	}

	// P^{-1} mod q_i for the ModDown scaling.
	sw.pInvModQ = make([]uint64, len(sw.qBasis))
	sw.pInvShoup = make([]uint64, len(sw.qBasis))
	for i, t := range sw.qBasis {
		qi := new(big.Int).SetUint64(r.Moduli[t])
		inv := new(big.Int).ModInverse(new(big.Int).Mod(P, qi), qi)
		if inv == nil {
			return nil, fmt.Errorf("hks: P not invertible modulo q_%d", i)
		}
		sw.pInvModQ[i] = inv.Uint64()
		sw.pInvShoup[i] = r.Mods[t].ShoupPrecomp(sw.pInvModQ[i])
	}

	// dBasis index of each converter destination, per digit.
	towerToD := make(map[int]int, len(sw.dBasis))
	for t, tw := range sw.dBasis {
		towerToD[tw] = t
	}
	sw.convDstIdx = make([][]int, dnum)
	sw.dstIdxOf = make([][]int, dnum)
	for j := 0; j < dnum; j++ {
		dst := sw.upConv[j].Dst()
		sw.convDstIdx[j] = make([]int, len(dst))
		sw.dstIdxOf[j] = make([]int, len(sw.dBasis))
		for t := range sw.dstIdxOf[j] {
			sw.dstIdxOf[j][t] = -1
		}
		for di, tw := range dst {
			t := towerToD[tw]
			sw.convDstIdx[j][di] = t
			sw.dstIdxOf[j][t] = di
		}
	}

	shape := params.Benchmark{Name: "hks", LogN: bits.Len(uint(r.N)) - 1, KL: ell, KP: len(sw.pBasis), Dnum: dnum}
	for df := range sw.plans {
		sw.plans[df] = dataflow.NewPlan(dataflow.Dataflow(df), shape, dataflow.Unbounded)
	}
	return sw, nil
}

// QBasis returns the active Q basis B_ℓ.
func (sw *Switcher) QBasis() ring.Basis { return sw.qBasis }

// PBasis returns the auxiliary basis C.
func (sw *Switcher) PBasis() ring.Basis { return sw.pBasis }

// DBasis returns the extended basis D_ℓ.
func (sw *Switcher) DBasis() ring.Basis { return sw.dBasis }

// Digits returns the tower partition of the active Q basis.
func (sw *Switcher) Digits() []ring.Basis { return sw.digits }

// CheckInput reports, as an error, whether d is a valid key-switch
// input for this switcher: non-nil, NTT domain, over the active Q
// basis B_ℓ. The switch entry points panic on invalid inputs (a bad
// input is a programming error inside one process); request-accepting
// layers such as internal/serve use CheckInput to reject a bad request
// with an error instead of taking the whole service down.
func (sw *Switcher) CheckInput(d *ring.Poly) error {
	if d == nil {
		return fmt.Errorf("hks: nil key-switch input")
	}
	if !d.Basis.Equal(sw.qBasis) {
		return fmt.Errorf("hks: key-switch input basis %v, want %v", d.Basis, sw.qBasis)
	}
	if !d.IsNTT {
		return fmt.Errorf("hks: key-switch input must be in the NTT domain")
	}
	return nil
}

// checkKeyPoly reports whether p can be digit j of a key for this
// switcher: a polynomial over D_ℓ in the NTT domain. what names the
// key form in the error.
func (sw *Switcher) checkKeyPoly(what string, j int, p *ring.Poly) error {
	if p == nil {
		return fmt.Errorf("hks: %s digit %d is nil", what, j)
	}
	if !p.Basis.Equal(sw.dBasis) {
		return fmt.Errorf("hks: %s digit %d basis %v, want %v", what, j, p.Basis, sw.dBasis)
	}
	if !p.IsNTT {
		return fmt.Errorf("hks: %s digit %d not in NTT domain", what, j)
	}
	return nil
}

// CheckEvk reports, as an error, whether evk is a key this switcher
// can apply: one pair per digit, every polynomial over D_ℓ in the NTT
// domain — so a key of another level or digit count is refused here
// rather than faulting inside a tile (see CheckInput for why this
// exists alongside the panicking checks).
func (sw *Switcher) CheckEvk(evk *Evk) error {
	if evk == nil {
		return fmt.Errorf("hks: nil evaluation key")
	}
	if len(evk.B) != sw.Dnum || len(evk.A) != sw.Dnum {
		return fmt.Errorf("hks: evk has %d/%d digits, switcher expects %d", len(evk.B), len(evk.A), sw.Dnum)
	}
	for j := range evk.B {
		if err := sw.checkKeyPoly("evk", j, evk.B[j]); err != nil {
			return err
		}
		if err := sw.checkKeyPoly("evk", j, evk.A[j]); err != nil {
			return err
		}
	}
	return nil
}

// Evk is a dense evaluation key converting ciphertexts under sOld to
// sNew: one RLWE pair (B_j, A_j) over D_ℓ per digit, in the NTT
// domain. Its size is dnum × 2 × N × (ℓ+K) words (paper §III-B P4).
// Keys produced by GenEvk also carry the expansion seed of every
// random A_j, so Compress can drop the A-half down to 32 bytes per
// digit; see CompressedEvk. Evk and CompressedEvk both implement
// KeyMaterial.
type Evk struct {
	B []*ring.Poly
	A []*ring.Poly

	// Seeds, when present (one per digit), regenerate A through
	// ring.UniformFromSeed — the handle Compress trades A for.
	Seeds []ring.Seed

	// r is the ring GenEvk or Expand built the key over, whose moduli
	// give Compress the width of every packed B-row; nil on a
	// hand-built key.
	r *ring.Ring
}

// SizeBytes returns the *dense* resident footprint at 8 bytes per
// residue — both polynomial halves of every digit, the quantity
// Table III reports (112–360 MB at paper scale). The seed slice is
// ignored: it is metadata until Compress turns it into the resident
// form, whose footprint (the B-half packed at residue width, about a
// third of this at 40/41-bit towers) CompressedEvk.SizeBytes reports.
// Budget accounting must use the method of the form actually resident,
// which is what the serve cache's KeyMaterial contract guarantees.
func (e *Evk) SizeBytes() int {
	var n int
	for i := range e.B {
		n += (len(e.B[i].Coeffs) + len(e.A[i].Coeffs)) * len(e.B[i].Coeffs[0]) * 8
	}
	return n
}

// Decompose splits d (NTT domain over B_ℓ) into its digit sub-
// polynomials (views sharing d's storage). The tiles index the digits'
// rows directly; this is the stage on its own, for validation.
func (sw *Switcher) Decompose(d *ring.Poly) []*ring.Poly {
	if !d.Basis.Equal(sw.qBasis) {
		panic(fmt.Sprintf("hks: Decompose input basis %v, want %v", d.Basis, sw.qBasis))
	}
	out := make([]*ring.Poly, sw.Dnum)
	for j, dg := range sw.digits {
		out[j] = d.SubPoly(dg)
	}
	return out
}

// ModUp runs P1–P3 for every digit of d (NTT domain over B_ℓ) on the
// calling goroutine and returns one freshly allocated polynomial per
// digit over the full D_ℓ basis, in the NTT domain. It is a serial
// hoist whose row table is the returned polynomials; towers belonging
// to the digit itself bypass INTT→BConv→NTT (paper Figure 1, red
// towers), so no tile writes them, and ModUp then copies them from the
// input. Those allocations and that copy are work no switch does, and
// bench's hks.stage_sum_over_switch, which sums ModUp, ApplyEvk and
// ModDown over one switch, counts them; ROADMAP item 1(c) moves that
// metric onto the tiles.
func (sw *Switcher) ModUp(d *ring.Poly) []*ring.Poly {
	must(sw.CheckInput(d))
	ups := make([]*ring.Poly, sw.Dnum)
	for j := range ups {
		ups[j] = sw.R.NewPoly(sw.dBasis)
		ups[j].IsNTT = true
	}
	h := sw.state(dataflow.MP)
	own := h.up
	h.up, h.d = rowTable(ups), d
	h.run(engine.Inline(), modUp)
	h.up = own
	h.Release()
	for i, row := range d.Coeffs {
		copy(ups[i/sw.Alpha].Coeffs[i], row)
	}
	return ups
}

// ApplyEvk runs P4+P5 on the calling goroutine: point-wise multiply
// each ModUp digit with the evk pair and accumulate, returning two
// freshly allocated polynomials over D_ℓ (NTT). It is the apply tiles
// of a replay whose row table is ups, whose input is the digits' own
// towers of ups (ownTowers), and whose accumulators are the returned
// polynomials; their allocation is work no switch does (see ModUp).
func (sw *Switcher) ApplyEvk(ups []*ring.Poly, evk *Evk) (c0, c1 *ring.Poly) {
	must(sw.CheckEvk(evk))
	if len(ups) != sw.Dnum {
		panic(fmt.Sprintf("hks: ApplyEvk got %d ModUp digits, switcher expects %d", len(ups), sw.Dnum))
	}
	c0 = sw.R.NewPoly(sw.dBasis)
	c1 = sw.R.NewPoly(sw.dBasis)
	c0.IsNTT, c1.IsNTT = true, true
	h := sw.state(dataflow.MP)
	own := h.up
	h.up, h.d, h.acc, h.key = rowTable(ups), sw.ownTowers(ups), [2]*ring.Poly{c0, c1}, evk
	h.run(engine.Inline(), apply)
	h.up, h.acc, h.key = own, [2]*ring.Poly{&h.accs[0], &h.accs[1]}, nil
	h.Release()
	return c0, c1
}

// ownTowers is the input a row table over caller polynomials stands
// for: over B_ℓ, each tower the row of its own digit's polynomial.
func (sw *Switcher) ownTowers(ups []*ring.Poly) *ring.Poly {
	d := &ring.Poly{Basis: sw.qBasis, Coeffs: make([][]uint64, sw.ell()), IsNTT: true}
	for i := range d.Coeffs {
		d.Coeffs[i] = ups[i/sw.Alpha].Coeffs[i]
	}
	return d
}

// ModDown reduces c (NTT domain over D_ℓ) back to B_ℓ on the calling
// goroutine, into a freshly allocated polynomial:
// out = (c − Conv_{P→Q}([c]_P)) · P⁻¹. The conversion uses the exact
// (float-corrected) variant so the P-part rounds to the nearest
// multiple rather than adding a P-sized overshoot. It is the ModDown
// tiles of one output whose accumulator is c, which is left unchanged;
// the output's allocation is work no switch does (see ModUp).
func (sw *Switcher) ModDown(c *ring.Poly) *ring.Poly {
	if !c.Basis.Equal(sw.dBasis) {
		panic(fmt.Sprintf("hks: ModDown input basis %v, want %v", c.Basis, sw.dBasis))
	}
	out := sw.R.NewPoly(sw.qBasis)
	out.IsNTT = true
	h := sw.state(dataflow.MP)
	h.acc[0], h.out[0] = c, out
	h.run(engine.Inline(), down0)
	h.acc[0], h.out[0] = &h.accs[0], nil
	h.Release()
	return out
}
