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
//
// The stream is drawn tower by tower, N words each, and every word is
// reduced to its canonical residue. xoshiro256**'s state update is
// linear over GF(2), so the state m positions on is T^m·s for the
// 256×256 transition matrix T, and a jump by T^m is a table lookup per
// nibble of the state (jumpTable). Tower i therefore starts at the
// seed's state jumped i times by T^N, and any tower can be drawn on its
// own (UniformRowFromSeed): an evk's A-half is drawn a tower at a time
// inside the key-switch tiles that read it. There are two bodies, as for
// the row kernels of internal/mod: the Go loop below, one word at a
// time, and on amd64 an AVX-512 IFMA loop (seed_amd64.s) that draws a
// row with eight lanes of the same stream, lane k from the row's start
// jumped k times by T^(N/8) into row[k·N/8:]. Both jump tables are built
// once per ring on first use. Which body draws a tower is decided per
// tower, the way an ntt.Table decides (vecRow), so a basis may mix them
// and the polynomial is the same word for word.

import (
	"encoding/binary"
	"math/bits"

	"ciflow/internal/mod"
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

// state is xoshiro256**'s state s0..s3.
type state [4]uint64

// seedState is the stream's starting state for seed.
func seedState(seed Seed) state {
	var s state
	for i := range s {
		s[i] = splitmix64(binary.LittleEndian.Uint64(seed[8*i:]) + uint64(i) + 1)
	}
	return s
}

// advance returns s moved m positions along the stream, one step at a
// time: T^m·s.
func (s state) advance(m int) state {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for range m {
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = rotl(s3, 45)
	}
	return state{s0, s1, s2, s3}
}

// lanes is the vector body's width: the stream positions of a row are
// split into this many contiguous runs, one per lane.
const lanes = 8

// vector selects the vector body wherever internal/mod's kernels run
// theirs. Only tests write it, to run every oracle against both bodies.
var vector = mod.Kernel() == mod.KernelVector

// vecRow reports whether a row modulo q is drawn by the vector body:
// the CPU has it, q fits IFMA's reduction (mod.VectorModulusBits), and
// each lane's run is a whole number of eight-word blocks.
func (r *Ring) vecRow(q uint64) bool {
	return vector && q < 1<<mod.VectorModulusBits && r.N >= lanes*8
}

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
func (r *Ring) UniformFromSeedInto(p *Poly, seed Seed) {
	s := seedState(seed)
	_, tower := r.jumps()
	for i, t := range p.Basis {
		if i > 0 {
			s = tower.apply(s)
		}
		r.uniformRow(p.Coeffs[i], r.Mods[t], s)
	}
	p.IsNTT = false
}

// UniformRowFromSeed writes tower i of UniformFromSeed(b, seed) into
// row, which holds N words: the stream from the seed's state jumped i
// times by T^N. It draws no other tower, so a tower costs the same alone
// as inside the whole polynomial, plus i jumps of about 70 ns.
func (r *Ring) UniformRowFromSeed(row []uint64, b Basis, i int, seed Seed) {
	s := seedState(seed)
	_, tower := r.jumps()
	for range i {
		s = tower.apply(s)
	}
	r.uniformRow(row, r.Mods[b[i]], s)
}

// uniformRow draws N words modulo m from state s into row under the body
// vecRow picks. The vector body places its lanes at their stream
// positions from s first.
func (r *Ring) uniformRow(row []uint64, m mod.Modulus, s state) {
	if !r.vecRow(m.Q) {
		uniformGo(row[:r.N], m.Q, s)
		return
	}
	lane, _ := r.jumps()
	var st [4][lanes]uint64 // st[w][k]: word w of lane k's state
	for k := range lanes {
		if k > 0 {
			s = lane.apply(s)
		}
		for w, x := range s {
			st[w][k] = x
		}
	}
	c, c52, mu := m.Reduce52()
	uniformRow52(row[:r.N], &st, m.Q, c, c52, mu)
}

// uniformGo is the Go body: it draws len(row) words from s into row.
// Each word x is reduced without a divide: with inv = ⌊2^64/q⌋ the
// estimate ⌊x·inv/2^64⌋ is the true quotient or one less, so
// x − estimate·q lies in [0, 2q) and one conditional subtraction leaves
// x mod q, the canonical residue.
func uniformGo(row []uint64, q uint64, s state) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	inv, _ := bits.Div64(1, 0, q)
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

// jumps returns the ring's two jumps, built together on first use: one
// lane's run, T^(N/8), and one tower, T^N = T^(N mod 8)·(T^(N/8))^8.
func (r *Ring) jumps() (lane, tower *jumpTable) {
	r.jumpOnce.Do(func() {
		r.laneJump = newJumpTable(func(s state) state { return s.advance(r.N / lanes) })
		r.towerJump = newJumpTable(func(s state) state {
			for range lanes {
				s = r.laneJump.apply(s)
			}
			return s.advance(r.N % lanes)
		})
	})
	return r.laneJump, r.towerJump
}

// jumpTable is T^m as a nibble table: entry [n][v] is T^m applied to
// the state whose only set bits are v at nibble n (bits 4n..4n+3 of
// s0‖s1‖s2‖s3, s0's low bits first). T^m·s is the XOR of one entry per
// nibble of s. 64×16 states, 32 KB.
type jumpTable [64][16]state

// newJumpTable builds the table of the linear map f (a power of T) from
// the images of the 256 unit states.
func newJumpTable(f func(state) state) *jumpTable {
	var cols [256]state
	for b := range cols {
		var e state
		e[b/64] = 1 << (b % 64)
		cols[b] = f(e)
	}
	j := new(jumpTable)
	for n := range j {
		for v := 1; v < 16; v++ {
			prev, col := j[n][v&(v-1)], cols[4*n+bits.TrailingZeros(uint(v))]
			for w := range j[n][v] {
				j[n][v][w] = prev[w] ^ col[w]
			}
		}
	}
	return j
}

// apply returns the jump of s.
func (j *jumpTable) apply(s state) state {
	var o0, o1, o2, o3 uint64
	for w, x := range s {
		word := (*[16][16]state)(j[16*w:])
		for n := range word {
			v := &word[n][x&15]
			o0 ^= v[0]
			o1 ^= v[1]
			o2 ^= v[2]
			o3 ^= v[3]
			x >>= 4
		}
	}
	return state{o0, o1, o2, o3}
}
