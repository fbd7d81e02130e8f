package hks

// Seed-compressed evaluation keys. The A-half of every evk digit is a
// uniform polynomial, so a key generated by GenEvk can drop it and
// keep only the 32-byte expansion seed — the HEAAN-Demystified
// compression that (just about) halves key bytes, letting the same
// byte budget hold twice the keys. Compression is a property of the
// *type*: KeyMaterial is the sealed union over the dense Evk and the
// CompressedEvk, each reporting the true resident footprint of its own
// form, so layers that account bytes (the serve cache) never guess
// which form they hold.
//
// Expansion comes in two forms. Expand rebuilds the whole dense key
// into polynomials the caller owns. StartExpand streams: one goroutine
// expands the digits into polynomials recycled through the ring while
// the caller runs the hoist phase's Decompose+ModUp, and
// Hoisted.SwitchStreamedInto then replays the expanded key as the same
// engine graph a dense key runs, so a replay costs the same in either
// form and a steady stream of them allocates no polynomial. Both are
// bit-exact with the dense key because UniformFromSeed is
// deterministic.

import (
	"fmt"

	"ciflow/internal/ring"
)

// KeyMaterial is evaluation-key material in either residency form:
// a dense *Evk or a seed-compressed *CompressedEvk. SizeBytes is the
// footprint of the form at hand — the number a byte-budgeted cache
// must charge — while DenseSizeBytes is the footprint after expansion,
// identical for both forms of one key (their ratio is the measured
// compression). Dense converts to the dense form, expanding if
// needed. The interface is sealed: those two types are the only
// implementations, so consumers may type-switch exhaustively.
type KeyMaterial interface {
	SizeBytes() int
	DenseSizeBytes() int
	Digits() int
	Dense(r *ring.Ring) *Evk
	keyMaterial()
}

// Digits returns the key's digit count.
func (e *Evk) Digits() int { return len(e.B) }

// DenseSizeBytes is SizeBytes: the key is already dense.
func (e *Evk) DenseSizeBytes() int { return e.SizeBytes() }

// Dense returns the key itself; it is already dense.
func (e *Evk) Dense(*ring.Ring) *Evk { return e }

func (e *Evk) keyMaterial()           {}
func (c *CompressedEvk) keyMaterial() {}

// Compress returns the seed-compressed form of e, sharing the dense
// B-half's storage. It reports false when the key carries no expansion
// seeds (hand-built or deserialized from the dense wire frame) — such
// keys can only live dense.
func (e *Evk) Compress() (*CompressedEvk, bool) {
	if len(e.Seeds) != len(e.B) || len(e.B) != len(e.A) || len(e.B) == 0 {
		return nil, false
	}
	return &CompressedEvk{B: e.B, Seeds: e.Seeds}, true
}

// CompressedEvk is the seed-compressed evaluation key: the B-half of
// every digit dense (it carries the secret-dependent part and cannot
// be regenerated), the uniform A-half as one 32-byte seed per digit.
type CompressedEvk struct {
	B     []*ring.Poly
	Seeds []ring.Seed
}

// Digits returns the key's digit count.
func (c *CompressedEvk) Digits() int { return len(c.B) }

// SizeBytes returns the compressed resident footprint: the dense
// B-half at 8 bytes per residue plus 32 bytes of seed per digit —
// dnum × (towers × N × 8 + 32), just over half the dense key.
func (c *CompressedEvk) SizeBytes() int {
	var n int
	for i := range c.B {
		n += len(c.B[i].Coeffs)*len(c.B[i].Coeffs[0])*8 + 32
	}
	return n
}

// DenseSizeBytes returns the footprint the key will occupy once
// expanded: both halves dense.
func (c *CompressedEvk) DenseSizeBytes() int {
	var n int
	for i := range c.B {
		n += 2 * len(c.B[i].Coeffs) * len(c.B[i].Coeffs[0]) * 8
	}
	return n
}

// ExpandDigit regenerates digit j's A-half from its seed.
func (c *CompressedEvk) ExpandDigit(r *ring.Ring, j int) *ring.Poly {
	a := r.UniformFromSeed(c.B[j].Basis, c.Seeds[j])
	a.IsNTT = true // uniform residues are uniform in either domain
	return a
}

// Expand regenerates the dense key. The B-half shares c's storage and
// the seeds ride along, so Expand(…).Compress() round-trips without
// copying. Bit-exact with the original GenEvk output — the property
// TestCompressRoundTrip pins.
func (c *CompressedEvk) Expand(r *ring.Ring) *Evk {
	e := &Evk{B: c.B, A: make([]*ring.Poly, len(c.B)), Seeds: c.Seeds}
	for j := range c.B {
		e.A[j] = c.ExpandDigit(r, j)
	}
	return e
}

// Dense implements KeyMaterial by expanding.
func (c *CompressedEvk) Dense(r *ring.Ring) *Evk { return c.Expand(r) }

// CheckCompressed is CheckEvk for the compressed form: one seed and
// one B polynomial over D_ℓ (NTT domain) per digit. The A-halves are
// expanded over their B's basis, so they need no check of their own.
func (sw *Switcher) CheckCompressed(c *CompressedEvk) error {
	if c == nil {
		return fmt.Errorf("hks: nil compressed evaluation key")
	}
	if len(c.B) != sw.Dnum || len(c.Seeds) != sw.Dnum {
		return fmt.Errorf("hks: compressed evk has %d/%d digits, switcher expects %d",
			len(c.B), len(c.Seeds), sw.Dnum)
	}
	for j, b := range c.B {
		if err := sw.checkKeyPoly("compressed evk", j, b); err != nil {
			return err
		}
	}
	return nil
}

// CheckMaterial validates key material of either form against this
// switcher's digit structure and extended basis, the way
// request-accepting layers (internal/serve) guard a misbehaving
// KeySource.
func (sw *Switcher) CheckMaterial(m KeyMaterial) error {
	switch k := m.(type) {
	case *Evk:
		return sw.CheckEvk(k)
	case *CompressedEvk:
		return sw.CheckCompressed(k)
	case nil:
		return fmt.Errorf("hks: nil key material")
	default: // unreachable: the interface is sealed
		return fmt.Errorf("hks: unknown key material %T", m)
	}
}

// ExpandStream is one in-flight expansion of a compressed key: a
// single goroutine regenerates the A-halves, digit by digit, into
// polynomials recycled through the ring, while the caller does other
// work — the hoist. Obtain with StartExpand, replay with
// Hoisted.SwitchStreamedInto, and hand the polynomials back with
// Release. A stream is single-use and must not be shared between
// consumers.
type ExpandStream struct {
	r    *ring.Ring
	evk  Evk // the dense key: c's B-half beside the recycled A-halves
	done chan struct{}
}

// StartExpand begins expanding c's digits in the background and
// returns the stream handle. Started before the hoist phase, the
// expansion overlaps Decompose+ModUp — the miss-path pipelining
// Hoisted.SwitchStreamedInto builds on.
func (c *CompressedEvk) StartExpand(r *ring.Ring) *ExpandStream {
	st := &ExpandStream{
		r:    r,
		evk:  Evk{B: c.B, A: make([]*ring.Poly, len(c.B)), Seeds: c.Seeds},
		done: make(chan struct{}),
	}
	go func() {
		defer close(st.done)
		for j, b := range c.B {
			a := r.GetPoly(b.Basis)
			r.UniformFromSeedInto(a, c.Seeds[j])
			a.IsNTT = true // uniform residues are uniform in either domain
			st.evk.A[j] = a
		}
	}()
	return st
}

// wait blocks until every digit is expanded and returns the dense key,
// which is valid until Release.
func (st *ExpandStream) wait() *Evk {
	<-st.done
	return &st.evk
}

// Release waits for the expansion to finish and hands its polynomials
// back to the ring. The stream, and any replay output still being
// computed from it, must not be in use.
func (st *ExpandStream) Release() {
	for j, a := range st.wait().A {
		st.r.PutPoly(a)
		st.evk.A[j] = nil
	}
}
