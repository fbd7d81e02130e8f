package ring

import (
	"encoding/binary"
	"testing"
)

// refExpand is the expansion as first written — xoshiro256** behind a
// struct, one hardware divide per residue — kept as the reference the
// divide-free loop must match word for word.
func refExpand(r *Ring, b Basis, seed Seed) *Poly {
	var s [4]uint64
	for i := range s {
		s[i] = splitmix64(binary.LittleEndian.Uint64(seed[8*i:]) + uint64(i) + 1)
	}
	p := r.NewPoly(b)
	for i, t := range b {
		q := r.Mods[t].Q
		for j := range p.Coeffs[i] {
			x := rotl(s[1]*5, 7) * 9
			u := s[1] << 17
			s[2] ^= s[0]
			s[3] ^= s[1]
			s[1] ^= s[2]
			s[0] ^= s[3]
			s[2] ^= u
			s[3] = rotl(s[3], 45)
			p.Coeffs[i][j] = x % q
		}
	}
	return p
}

func TestUniformFromSeedMatchesDivision(t *testing.T) {
	// 30/31-bit, 40/41-bit and 60/61-bit moduli: the quotient estimate
	// is exact or one short at every width the library supports.
	for _, bitsQP := range [][2]int{{30, 31}, {40, 41}, {60, 61}} {
		r, err := NewRingGenerated(256, 3, bitsQP[0], 2, bitsQP[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []Seed{{}, {1}, NewSampler(r, 5).NewSeed()} {
			b := r.DBasis(2)
			if !r.UniformFromSeed(b, seed).Equal(refExpand(r, b, seed)) {
				t.Fatalf("%d-bit ring, seed %x: stream differs from x %% q", bitsQP[0], seed[:4])
			}
		}
	}
}

func TestUniformFromSeedDeterministic(t *testing.T) {
	r := testRing(t)
	b := r.DBasis(3)
	s := NewSampler(r, 7)
	seed := s.NewSeed()
	p1 := r.UniformFromSeed(b, seed)
	p2 := r.UniformFromSeed(b, seed)
	if !p1.Equal(p2) {
		t.Fatal("same seed expanded to different polynomials")
	}
	for i, tw := range b {
		q := r.Mods[tw].Q
		for j, v := range p1.Coeffs[i] {
			if v >= q {
				t.Fatalf("tower %d coeff %d = %d out of range mod %d", i, j, v, q)
			}
		}
	}
	// A different seed must diverge; a same-seed expansion over a
	// prefix basis must agree on the shared towers (digit-independent
	// streams would break this — each tower is drawn in basis order,
	// so only an identical basis guarantees identical rows; assert the
	// full-basis property we rely on instead: distinct seeds differ).
	if p3 := r.UniformFromSeed(b, s.NewSeed()); p3.Equal(p1) {
		t.Fatal("distinct seeds expanded to identical polynomials")
	}
}

func TestNewSeedStreamsFromSampler(t *testing.T) {
	r := testRing(t)
	a, b := NewSampler(r, 42), NewSampler(r, 42)
	if a.NewSeed() != b.NewSeed() {
		t.Fatal("equal sampler seeds produced different expansion seeds")
	}
	s := NewSampler(r, 42)
	if s.NewSeed() == s.NewSeed() {
		t.Fatal("consecutive NewSeed calls repeated a seed")
	}
	// The all-zero seed must still expand (splitmix64 whitening keeps
	// the xoshiro state non-degenerate).
	p := r.UniformFromSeed(r.QBasis(0), Seed{})
	var nonzero bool
	for _, v := range p.Coeffs[0] {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("zero seed expanded to the zero polynomial")
	}
}

// UniformFromSeedInto must draw UniformFromSeed's stream exactly, over
// any basis, whatever the destination held before — it is what lets an
// expansion land in a recycled polynomial.
func TestUniformFromSeedIntoMatches(t *testing.T) {
	r := testRing(t)
	seed := NewSampler(r, 11).NewSeed()
	for name, b := range map[string]Basis{
		"Q_0": r.QBasis(0),
		"D_3": r.DBasis(3),
		"P":   r.PBasis(),
	} {
		want := r.UniformFromSeed(b, seed)
		dirty := r.UniformFromSeed(b, Seed{1})
		dirty.IsNTT = true
		r.UniformFromSeedInto(dirty, seed)
		if !dirty.Equal(want) {
			t.Errorf("%s: expansion into a used polynomial differs from UniformFromSeed", name)
		}
		// The same through the ring's recycling: a polynomial handed back
		// over another basis of that length comes out over b.
		other := make(Basis, len(b))
		for i, tw := range b {
			other[i] = (tw + 1) % len(r.Moduli)
		}
		r.PutPoly(r.UniformFromSeed(other, Seed{2}))
		again := r.GetPoly(b)
		r.UniformFromSeedInto(again, seed)
		if !again.Equal(want) {
			t.Errorf("%s: expansion into a recycled polynomial differs from UniformFromSeed", name)
		}
	}
}
