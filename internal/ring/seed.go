package ring

// Seed-expandable uniform polynomials. The random `a`-half of an RLWE
// pair is uniform, so instead of storing N×(ℓ+K) residues it can be
// stored as the 32-byte seed of the PRG that produced it and expanded
// on load — the HEAAN-Demystified evaluation-key compression that
// halves key bytes. UniformFromSeed is the expansion: a pure function
// of (ring, basis, seed), so any process holding the seed regenerates
// the identical polynomial, bit for bit.
//
// The expander is xoshiro256** with its 256-bit state whitened from
// the seed bytes through splitmix64. Like Sampler it is NOT
// constant-time and NOT a CSPRNG — this library analyzes dataflow, not
// production cryptography — but unlike Sampler's shared sequential
// stream, expansion is stateless per seed, which is what lets one evk
// digit be expanded independently of (and concurrently with) every
// other.

import (
	"encoding/binary"
	"math/bits"
)

// Seed identifies one seed-expandable uniform polynomial.
type Seed [32]byte

// NewSeed draws a fresh expansion seed from the sampler's stream, so
// key generation stays a pure function of the sampler's own seed.
func (s *Sampler) NewSeed() Seed {
	var sd Seed
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(sd[8*i:], s.rng.Uint64())
	}
	return sd
}

// splitmix64 whitens one 64-bit lane of the seed. Even an all-zero
// Seed lands on a non-degenerate xoshiro state (xoshiro256** cycles at
// the zero state), so every Seed value is usable.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// UniformFromSeed expands seed into a fresh polynomial over basis b
// with independent uniform residues in each tower (coefficient-domain
// flag left false; uniform residues are uniform in either domain, so
// callers mark IsNTT as needed, exactly like Sampler.Uniform).
// Deterministic: the same (basis, seed) always yields the same bits.
func (r *Ring) UniformFromSeed(b Basis, seed Seed) *Poly {
	p := r.NewPoly(b)
	r.UniformFromSeedInto(p, seed)
	return p
}

// UniformFromSeedInto is UniformFromSeed writing into p, over p's own
// basis: every residue is overwritten, so p may hold anything (a
// recycled polynomial), and the stream is the one UniformFromSeed
// draws for that basis and seed.
//
// The generator is xoshiro256** with its four state words in locals
// across the whole polynomial, and each word x is reduced without a
// divide: with inv = ⌊2^64/q⌋ the estimate ⌊x·inv/2^64⌋ is the true
// quotient or one less, so x − estimate·q lies in [0, 2q) and one
// conditional subtraction leaves x mod q, the canonical residue.
func (r *Ring) UniformFromSeedInto(p *Poly, seed Seed) {
	s0 := splitmix64(binary.LittleEndian.Uint64(seed[0:8]) + 1)
	s1 := splitmix64(binary.LittleEndian.Uint64(seed[8:16]) + 2)
	s2 := splitmix64(binary.LittleEndian.Uint64(seed[16:24]) + 3)
	s3 := splitmix64(binary.LittleEndian.Uint64(seed[24:32]) + 4)
	for i, t := range p.Basis {
		q := r.Mods[t].Q
		inv, _ := bits.Div64(1, 0, q)
		row := p.Coeffs[i]
		for j := range row {
			x := rotl(s1*5, 7) * 9
			u := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= u
			s3 = rotl(s3, 45)

			est, _ := bits.Mul64(x, inv)
			x -= est * q
			if x >= q {
				x -= q
			}
			row[j] = x
		}
	}
	p.IsNTT = false
}
