package ring

import (
	"math"
	"math/rand"
)

// Sampler draws the random polynomials needed by RLWE key and
// ciphertext generation. It is deterministic given its seed, which
// keeps every test reproducible. It is NOT constant-time and must not
// be used to protect real secrets; this library's goal is dataflow
// analysis, not production cryptography.
type Sampler struct {
	r   *Ring
	rng *rand.Rand
}

// NewSampler creates a sampler over r seeded with seed.
func NewSampler(r *Ring, seed int64) *Sampler {
	return &Sampler{r: r, rng: rand.New(rand.NewSource(seed))}
}

// Uniform fills a fresh coefficient-domain polynomial over basis b
// with independent uniform residues in each tower. (Used for the `a`
// component of RLWE samples, which is uniform in the NTT domain too;
// callers transform as needed.)
func (s *Sampler) Uniform(b Basis) *Poly {
	p := s.r.NewPoly(b)
	for i, t := range b {
		q := s.r.Mods[t].Q
		row := p.Coeffs[i]
		for j := range row {
			row[j] = s.rng.Uint64() % q
		}
	}
	return p
}

// Ternary samples a polynomial with coefficients in {-1, 0, 1}
// represented consistently across all towers of basis b (the
// small-norm secret key distribution).
func (s *Sampler) Ternary(b Basis) *Poly {
	p := s.r.NewPoly(b)
	for j := 0; j < s.r.N; j++ {
		v := s.rng.Intn(3) - 1 // -1, 0, or 1
		for i, t := range b {
			m := s.r.Mods[t]
			switch v {
			case 1:
				p.Coeffs[i][j] = 1
			case -1:
				p.Coeffs[i][j] = m.Q - 1
			}
		}
	}
	return p
}

// GaussianSigma is the standard deviation of the RLWE error
// distribution, the conventional value used across HE libraries.
const GaussianSigma = 3.2

// Gaussian samples a small-error polynomial with discrete-Gaussian
// coefficients (σ = GaussianSigma), represented across all towers of
// basis b. It is the integer draw of GaussianInts and the per-tower
// lift of LiftInts in one loop, so a caller that draws the integers
// first and lifts them a tower at a time (hks.GenEvk) consumes the
// stream exactly as this does and gets the same residues.
func (s *Sampler) Gaussian(b Basis) *Poly {
	p := s.r.NewPoly(b)
	for k := 0; k < s.r.N; k++ {
		v := s.gaussianInt()
		for i, t := range b {
			p.Coeffs[i][k] = liftInt(s.r.Mods[t].Q, v)
		}
	}
	return p
}

// GaussianInts draws len(dst) discrete-Gaussian integers into dst: the
// stream Gaussian draws, N integers per polynomial, before any tower
// sees them.
func (s *Sampler) GaussianInts(dst []int64) {
	for k := range dst {
		dst[k] = s.gaussianInt()
	}
}

// LiftInts sets row[k] = v[k] mod q_t, the canonical residue of each
// integer in ring-tower t: the tower of Gaussian that GaussianInts' v
// stands for.
func (r *Ring) LiftInts(row []uint64, t int, v []int64) {
	q := r.Mods[t].Q
	row = row[:len(v)]
	// An error integer is far below q, and there its residue is x, or
	// q + x for negative x, picked without a branch: the sign of a
	// Gaussian draw is a coin toss no predictor learns. The OR of every
	// |x| bounds them all, so one test after the loop finds a row that
	// holds a larger integer, and only such a row is lifted again
	// integer by integer.
	var mag uint64
	for k, x := range v {
		neg := uint64(x >> 63) // all ones for negative x
		row[k] = uint64(x) + q&neg
		mag |= (uint64(x) ^ neg) - neg
	}
	if mag >= q {
		for k, x := range v {
			row[k] = liftInt(q, x)
		}
	}
}

func (s *Sampler) gaussianInt() int64 {
	return int64(math.Round(s.rng.NormFloat64() * GaussianSigma))
}

// liftInt is v mod q for any v.
func liftInt(q uint64, v int64) uint64 {
	x := uint64(v)
	if v < 0 {
		x = uint64(-v)
	}
	if x >= q {
		x %= q
	}
	if v < 0 && x != 0 {
		return q - x
	}
	return x
}
