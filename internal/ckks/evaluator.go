package ckks

import (
	"fmt"

	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// Ciphertext is a two-component RLWE ciphertext in the NTT domain over
// B_level, carrying its encoding scale.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Level  int
	Scale  float64
}

// Copy returns a deep copy.
func (ct *Ciphertext) Copy() *Ciphertext {
	return &Ciphertext{C0: ct.C0.Copy(), C1: ct.C1.Copy(), Level: ct.Level, Scale: ct.Scale}
}

// Evaluator performs homomorphic operations with keys from a KeyChain.
type Evaluator struct {
	ctx *Context
	kc  *KeyChain
}

// NewEvaluator binds an evaluator to a context and key chain.
func NewEvaluator(ctx *Context, kc *KeyChain) *Evaluator {
	return &Evaluator{ctx: ctx, kc: kc}
}

// Encrypt encrypts a plaintext under the public key:
// ct = (b·u + e0 + pt, a·u + e1).
func (ev *Evaluator) Encrypt(pt *Plaintext, pk *PublicKey) *Ciphertext {
	r := ev.ctx.R
	top := r.QBasis(ev.ctx.MaxLevel)
	if pt.Level != ev.ctx.MaxLevel {
		panic(fmt.Sprintf("ckks: Encrypt requires a top-level plaintext, got level %d", pt.Level))
	}
	u := ev.kc.sampler.Ternary(top)
	r.NTT(u)
	e0 := ev.kc.sampler.Gaussian(top)
	e1 := ev.kc.sampler.Gaussian(top)
	r.NTT(e0)
	r.NTT(e1)

	c0 := r.NewPoly(top)
	r.MulCoeffwise(pk.B, u, c0)
	r.Add(c0, e0, c0)
	r.Add(c0, pt.P, c0)
	c1 := r.NewPoly(top)
	r.MulCoeffwise(pk.A, u, c1)
	r.Add(c1, e1, c1)
	return &Ciphertext{C0: c0, C1: c1, Level: pt.Level, Scale: pt.Scale}
}

// Decrypt recovers the plaintext pt = c0 + c1·s.
func (ev *Evaluator) Decrypt(ct *Ciphertext, sk *SecretKey) *Plaintext {
	r := ev.ctx.R
	b := r.QBasis(ct.Level)
	s := sk.S.SubPoly(b).Copy()
	r.NTT(s)
	p := r.NewPoly(b)
	r.MulCoeffwise(ct.C1, s, p)
	r.Add(p, ct.C0, p)
	return &Plaintext{P: p, Level: ct.Level, Scale: ct.Scale}
}

func (ev *Evaluator) checkPair(op string, a, b *Ciphertext) {
	if a.Level != b.Level {
		panic(fmt.Sprintf("ckks: %s level mismatch %d vs %d", op, a.Level, b.Level))
	}
	if a.Scale != b.Scale {
		panic(fmt.Sprintf("ckks: %s scale mismatch %g vs %g", op, a.Scale, b.Scale))
	}
}

// Add returns ct1 + ct2 (matching level and scale).
func (ev *Evaluator) Add(ct1, ct2 *Ciphertext) *Ciphertext {
	ev.checkPair("Add", ct1, ct2)
	r := ev.ctx.R
	out := &Ciphertext{
		C0: r.NewPoly(ct1.C0.Basis), C1: r.NewPoly(ct1.C1.Basis),
		Level: ct1.Level, Scale: ct1.Scale,
	}
	r.Add(ct1.C0, ct2.C0, out.C0)
	r.Add(ct1.C1, ct2.C1, out.C1)
	return out
}

// MulPlain returns ct ⊙ pt (scale multiplies; rescale afterwards).
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if ct.Level != pt.Level {
		panic("ckks: MulPlain level mismatch")
	}
	r := ev.ctx.R
	out := ct.Copy()
	r.MulCoeffwise(out.C0, pt.P, out.C0)
	r.MulCoeffwise(out.C1, pt.P, out.C1)
	out.Scale = ct.Scale * pt.Scale
	return out
}

// MulRelin multiplies two ciphertexts and relinearizes the quadratic
// term through hybrid key switching (the paper's primary workload for
// multiplications). The result keeps scale Δ²; call Rescale next.
func (ev *Evaluator) MulRelin(ct1, ct2 *Ciphertext) (*Ciphertext, error) {
	if ct1.Level != ct2.Level {
		return nil, fmt.Errorf("ckks: MulRelin level mismatch %d vs %d", ct1.Level, ct2.Level)
	}
	r := ev.ctx.R
	b := r.QBasis(ct1.Level)
	d0 := r.NewPoly(b)
	d1 := r.NewPoly(b)
	d2 := r.NewPoly(b)
	r.MulCoeffwise(ct1.C0, ct2.C0, d0)
	r.MulCoeffwise(ct1.C0, ct2.C1, d1)
	r.MulAddCoeffwise(ct1.C1, ct2.C0, d1)
	r.MulCoeffwise(ct1.C1, ct2.C1, d2)

	sw, err := ev.kc.Switcher(ct1.Level)
	if err != nil {
		return nil, err
	}
	rlk, err := ev.kc.RelinKey(ct1.Level)
	if err != nil {
		return nil, err
	}
	k0, k1 := sw.KeySwitch(d2, rlk)
	r.Add(d0, k0, d0)
	r.Add(d1, k1, d1)
	return &Ciphertext{C0: d0, C1: d1, Level: ct1.Level, Scale: ct1.Scale * ct2.Scale}, nil
}

// Rescale drops the top tower, dividing the encrypted message by
// q_level and reducing the level by one (the RNS rescaling of
// full-RNS CKKS).
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale at level 0")
	}
	r := ev.ctx.R
	qLastTower := ct.Level
	qLast := r.Moduli[qLastTower]
	newB := r.QBasis(ct.Level - 1)
	out := &Ciphertext{Level: ct.Level - 1, Scale: ct.Scale / float64(qLast)}
	for ci, src := range []*ring.Poly{ct.C0, ct.C1} {
		p := src.Copy()
		r.INTT(p)
		last := p.Tower(qLastTower)
		res := r.NewPoly(newB)
		for i, t := range newB {
			m := r.Mods[t]
			qInv := m.Inv(m.Reduce(qLast))
			row := p.Tower(t)
			dst := res.Coeffs[i]
			for k := range dst {
				// (c_t - [c]_qLast) / qLast mod q_t, with the residue
				// centered so the rounding error stays ≤ 1/2.
				v := last[k]
				centered := m.Reduce(v)
				if v > qLast/2 {
					centered = m.Sub(centered, m.Reduce(qLast))
				}
				dst[k] = m.Mul(m.Sub(row[k], centered), qInv)
			}
		}
		r.NTT(res)
		if ci == 0 {
			out.C0 = res
		} else {
			out.C1 = res
		}
	}
	return out, nil
}

// lone unwraps a fan-out of one.
func lone(outs []*Ciphertext, err error) (*Ciphertext, error) {
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Rotate cyclically rotates the message vector left by rotBy slots: a
// key switch of ct.C1 followed by the Galois automorphism σ_g,
// g = 5^rotBy — the second HKS trigger the paper analyzes. It is
// RotateHoisted's fan-out of one.
func (ev *Evaluator) Rotate(ct *Ciphertext, rotBy int) (*Ciphertext, error) {
	return lone(ev.RotateHoisted(ct, []int{rotBy}))
}

// RotateHoisted rotates one ciphertext by every amount in rots with a
// single shared Decompose+ModUp: ct.C1, un-rotated, is switched under
// every amount's hoisting-form key (KeyChain.HoistKey has the algebra)
// by one hks.Switcher.SwitchHoisted, and σ_g, g = 5^rot, is applied to
// each switched pair afterwards, (σ_g(c0+k0), σ_g(k1)). The switched
// pair is what a serving layer returns for the same (c1, key), bit for
// bit. For k rotations this saves (k−1) executions of the ModUp
// pipeline versus k Rotate calls — the amortization CiFlow's reuse
// analysis models and the diagonal method's rotation fan-out exploits.
//
// Results are returned in rots order, each bit-exact with the
// corresponding Rotate call. A rotation amount of 0 returns a copy of
// ct and costs nothing.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, rots []int) ([]*Ciphertext, error) {
	// Materialize every key first so no hoisted state is held across
	// key generation failures.
	var evks []*hks.Evk
	for _, rot := range rots {
		if rot%ev.ctx.Slots() == 0 {
			continue
		}
		key, err := ev.kc.HoistKey(rot, ct.Level)
		if err != nil {
			return nil, err
		}
		evks = append(evks, key)
	}
	sw, err := ev.kc.Switcher(ct.Level)
	if err != nil {
		return nil, err
	}
	var k0s, k1s []*ring.Poly
	if len(evks) > 0 {
		k0s, k1s = sw.SwitchHoisted(ct.C1, evks)
	}

	r := ev.ctx.R
	// σ_g on evaluation-domain rows is an index permutation.
	sigma := func(p *ring.Poly, g int) *ring.Poly {
		out := r.NewPoly(p.Basis)
		r.AutomorphismNTT(p, g, out)
		return out
	}
	outs := make([]*Ciphertext, len(rots))
	n := 0 // the next switched pair
	for i, rot := range rots {
		if rot%ev.ctx.Slots() == 0 {
			outs[i] = ct.Copy()
			continue
		}
		g := r.GaloisElement(rot)
		r.Add(ct.C0, k0s[n], k0s[n])
		outs[i] = &Ciphertext{C0: sigma(k0s[n], g), C1: sigma(k1s[n], g), Level: ct.Level, Scale: ct.Scale}
		n++
	}
	return outs, nil
}
