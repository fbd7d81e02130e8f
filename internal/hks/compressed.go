package hks

// Seed-compressed evaluation keys. The A-half of every evk digit is a
// uniform polynomial, so a generated key can drop it and keep only the
// 32-byte expansion seed — the HEAAN-Demystified compression. The
// B-half carries the secret-dependent part and stays resident, but
// packed: each residue at its tower's width, ⌈bits(q_t)/8⌉ bytes
// (mod.Modulus.PackRow), 5 for a 40-bit tower where a word spends 8.
// With both, a key at the benchmark's 40/41-bit widths takes about a
// third of its dense bytes, so the same byte budget holds about three
// times the keys. Compression is a property of the *type*: KeyMaterial
// is the sealed union over the dense Evk and the CompressedEvk, each
// reporting the true resident footprint of its own form, so layers
// that account bytes (the serve cache) never guess which form they
// hold.
//
// A compressed key runs the same graphs through the same entry points
// as a dense one: the apply tile of extended tower t draws every
// digit's tower-t A-row from its seed (ring.UniformRowFromSeed) into
// the state's scratch and multiplies it in at once, and multiplies the
// packed B-rows in as they are (mod.Modulus.MulSumRowsPacked), so
// neither half is ever widened into a dense polynomial. A key kept
// compressed is generated packed (GenCompressedEvk); Expand rebuilds
// the whole dense key into polynomials the caller owns. Both are
// bit-exact with the dense key because UniformFromSeed is
// deterministic and packing keeps every residue.

import (
	"fmt"
	"slices"

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

// Compress returns the seed-compressed form of e: its B-half packed
// into storage of its own, and its seeds. It reports false when the
// key carries no expansion seeds, or no ring to size the packed rows
// by (hand-built or deserialized from the dense wire frame) — such
// keys can only live dense.
func (e *Evk) Compress() (*CompressedEvk, bool) {
	if e.r == nil || len(e.Seeds) != len(e.B) || len(e.B) != len(e.A) || len(e.B) == 0 {
		return nil, false
	}
	c := newCompressedEvk(e.r, e.B[0].Basis, len(e.B))
	copy(c.Seeds, e.Seeds)
	for j, b := range e.B {
		for i, t := range b.Basis {
			e.r.Mods[t].PackRow(c.B[j][i], b.Coeffs[i])
		}
	}
	return c, true
}

// CompressedEvk is the seed-compressed evaluation key over the
// extended basis Basis (NTT domain) of a degree-N ring: the B-half of
// every digit packed (it carries the secret-dependent part and cannot
// be regenerated), the uniform A-half as one 32-byte seed per digit.
// B[j][i] is digit j's row of tower Basis[i]: N residues of that
// tower's Width() bytes each (mod.Modulus.PackRow), every row of a
// digit cut from one slab.
type CompressedEvk struct {
	B     [][][]byte
	Seeds []ring.Seed
	Basis ring.Basis
	N     int
}

// newCompressedEvk allocates a compressed key of dnum digits over
// basis b of r, one slab per digit cut into its tower rows.
func newCompressedEvk(r *ring.Ring, b ring.Basis, dnum int) *CompressedEvk {
	c := &CompressedEvk{B: make([][][]byte, dnum), Seeds: make([]ring.Seed, dnum), Basis: slices.Clone(b), N: r.N}
	size := 0
	for _, t := range b {
		size += r.N * r.Mods[t].Width()
	}
	for j := range c.B {
		slab := make([]byte, size)
		c.B[j] = make([][]byte, len(b))
		for i, t := range b {
			n := r.N * r.Mods[t].Width()
			c.B[j][i], slab = slab[:n:n], slab[n:]
		}
	}
	return c
}

// SizeBytes returns the compressed resident footprint: the packed
// B-half plus 32 bytes of seed per digit — dnum × (Σ_t N·⌈bits(q_t)/8⌉
// + 32), about a third of the dense key at 40/41-bit towers.
func (c *CompressedEvk) SizeBytes() int {
	var n int
	for _, rows := range c.B {
		for _, row := range rows {
			n += len(row)
		}
		n += 32
	}
	return n
}

// DenseSizeBytes returns the footprint the key will occupy once
// expanded: both halves dense, at 8 bytes per residue.
func (c *CompressedEvk) DenseSizeBytes() int {
	return len(c.B) * 2 * len(c.Basis) * c.N * 8
}

// Expand regenerates the dense key into storage of its own: the
// B-half unpacked, the A-half drawn from the seeds, which it carries
// too, so Expand(…).Compress() round-trips. Bit-exact with the
// GenEvk output of the same sampler — the property
// TestCompressRoundTrip pins.
func (c *CompressedEvk) Expand(r *ring.Ring) *Evk {
	e := &Evk{B: make([]*ring.Poly, len(c.B)), A: make([]*ring.Poly, len(c.B)), Seeds: slices.Clone(c.Seeds), r: r}
	for j, rows := range c.B {
		e.B[j] = r.NewPoly(c.Basis)
		for i, t := range c.Basis {
			r.Mods[t].UnpackRow(e.B[j].Coeffs[i], rows[i])
		}
		e.A[j] = r.UniformFromSeed(c.Basis, c.Seeds[j])
		e.A[j].IsNTT, e.B[j].IsNTT = true, true // uniform residues are uniform in either domain
	}
	return e
}

// CheckCompressed is CheckEvk for the compressed form: one seed and
// one packed B-half over D_ℓ per digit, each row as long as N residues
// of its tower's width. The A-rows are drawn over D_ℓ, so they need no
// check of their own.
func (sw *Switcher) CheckCompressed(c *CompressedEvk) error {
	if c == nil {
		return fmt.Errorf("hks: nil compressed evaluation key")
	}
	if len(c.B) != sw.Dnum || len(c.Seeds) != sw.Dnum {
		return fmt.Errorf("hks: compressed evk has %d/%d digits, switcher expects %d",
			len(c.B), len(c.Seeds), sw.Dnum)
	}
	if !c.Basis.Equal(sw.dBasis) || c.N != sw.R.N {
		return fmt.Errorf("hks: compressed evk over basis %v of degree %d, want %v of degree %d", c.Basis, c.N, sw.dBasis, sw.R.N)
	}
	for j, rows := range c.B {
		if len(rows) != len(sw.dBasis) {
			return fmt.Errorf("hks: compressed evk digit %d has %d rows, want %d", j, len(rows), len(sw.dBasis))
		}
		for i, t := range sw.dBasis {
			if want := sw.R.N * sw.R.Mods[t].Width(); len(rows[i]) != want {
				return fmt.Errorf("hks: compressed evk digit %d tower %d holds %d bytes, want %d", j, i, len(rows[i]), want)
			}
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
