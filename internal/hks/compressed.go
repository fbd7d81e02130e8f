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
// A compressed key runs the same graphs through the same entry points
// as a dense one: the apply tile of extended tower t draws every
// digit's tower-t A-row from its seed (ring.UniformRowFromSeed) into
// the state's scratch and multiplies it in at once, so no dense A-half
// is ever written and read back. Expand rebuilds the whole dense key
// into polynomials the caller owns. Both are bit-exact with the dense
// key because UniformFromSeed is deterministic.

import (
	"fmt"

	"ciflow/internal/ring"
)

// KeyMaterial is evaluation-key material in either residency form:
// a dense *Evk or a seed-compressed *CompressedEvk. SizeBytes is the
// footprint of the form at hand — the number a byte-budgeted cache
// must charge — while DenseSizeBytes is the footprint after expansion,
// identical for both forms of one key (their ratio is the measured
// compression). The interface is sealed: those two types are the only
// implementations, so consumers may type-switch exhaustively.
type KeyMaterial interface {
	SizeBytes() int
	DenseSizeBytes() int
	keyMaterial()
}

// DenseSizeBytes is SizeBytes: the key is already dense.
func (e *Evk) DenseSizeBytes() int { return e.SizeBytes() }

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

// Expand regenerates the dense key. The B-half shares c's storage and
// the seeds ride along, so Expand(…).Compress() round-trips without
// copying. Bit-exact with the original GenEvk output — the property
// TestCompressRoundTrip pins.
func (c *CompressedEvk) Expand(r *ring.Ring) *Evk {
	e := &Evk{B: c.B, A: make([]*ring.Poly, len(c.B)), Seeds: c.Seeds}
	for j, b := range c.B {
		e.A[j] = r.UniformFromSeed(b.Basis, c.Seeds[j])
		e.A[j].IsNTT = true // uniform residues are uniform in either domain
	}
	return e
}

// CheckCompressed is CheckEvk for the compressed form: one seed and
// one B polynomial over D_ℓ (NTT domain) per digit. The A-rows are
// drawn over D_ℓ, so they need no check of their own.
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
