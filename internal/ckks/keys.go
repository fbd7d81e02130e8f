package ckks

import (
	"fmt"
	"hash/fnv"
	"sync"

	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// SecretKey is the ternary secret over the full D basis (coefficient
// domain), so it can be restricted to any level and to the P towers.
type SecretKey struct {
	S *ring.Poly
}

// PublicKey is an RLWE encryption of zero at the top level, NTT domain.
type PublicKey struct {
	B, A *ring.Poly
}

// KeyChain owns the secret key and lazily materializes the evaluation
// keys (relinearization and rotation) that homomorphic operations
// need, one per level. A production library would precompute and
// serialize these; for analysis purposes lazy generation keeps tests
// and examples self-contained.
//
// A KeyChain is safe for concurrent use: the serving layer
// (internal/serve) loads keys from many request goroutines at once,
// and generation is memoized under one lock, so every caller of
// RotKey/HoistKey observes the identical key material — which is what
// keeps served results bit-exact across cache evictions and reloads.
// A key is memoized once, in the form it was first asked for: dense
// (RelinKey, RotKey, ConjKey, HoistKey) or, for a consumer that keeps
// keys compressed, as B-halves and seeds only (HoistKeyCompressed), in
// which case no A-half stays resident in the chain.
// Beyond memoization, each key's randomness is derived from the chain
// seed and the key's own identity (keySampler), so two chains built
// from one seed agree bit-for-bit on every key regardless of the
// order keys are requested — the property that lets cluster shards
// regenerate a tenant's keys independently and still serve replicas
// bit-exactly.
type KeyChain struct {
	ctx     *Context
	seed    int64
	sampler *ring.Sampler // sequential stream for *ephemeral* randomness (Encrypt)
	sk      *SecretKey
	sSquare *ring.Poly // s², full D basis, coefficient domain

	// pool memoizes one switcher per level (internally synchronized,
	// dnum clamped at low levels). Switchers hold no secret material,
	// so they may be shared across key chains / tenants; KeyChain also
	// satisfies serve.SwitcherSource through Switcher.
	pool *hks.SwitcherPool

	mu    sync.Mutex // guards the maps below
	relin map[int]*hks.Evk
	rot   map[int]map[int]*hks.Evk // rot -> level -> evk
	hoist map[int]map[int]*hks.Evk // rot -> level -> hoisting-form evk
	// hoistComp holds the hoisting-form keys first asked for compressed.
	hoistComp map[int]map[int]*hks.CompressedEvk
}

// GenKeys samples a fresh secret/public key pair and its key chain.
func GenKeys(ctx *Context, seed int64) (*KeyChain, *PublicKey) {
	r := ctx.R
	sampler := ring.NewSampler(r, seed)
	full := r.DBasis(r.NumQ - 1)
	sk := &SecretKey{S: sampler.Ternary(full)}

	// s² over the full basis, kept in the coefficient domain for evk
	// generation at any level.
	sN := sk.S.Copy()
	r.NTT(sN)
	s2 := r.NewPoly(full)
	r.MulCoeffwise(sN, sN, s2)
	r.INTT(s2)

	// pk = (-a·s + e, a) at the top level.
	top := r.QBasis(ctx.MaxLevel)
	a := sampler.Uniform(top)
	a.IsNTT = true
	e := sampler.Gaussian(top)
	r.NTT(e)
	sTop := sk.S.SubPoly(top).Copy()
	r.NTT(sTop)
	b := r.NewPoly(top)
	r.MulCoeffwise(a, sTop, b)
	r.Sub(e, b, b)

	kc := &KeyChain{
		ctx:       ctx,
		seed:      seed,
		sampler:   sampler,
		sk:        sk,
		sSquare:   s2,
		pool:      ctx.Switchers(),
		relin:     map[int]*hks.Evk{},
		rot:       map[int]map[int]*hks.Evk{},
		hoist:     map[int]map[int]*hks.Evk{},
		hoistComp: map[int]map[int]*hks.CompressedEvk{},
	}
	return kc, &PublicKey{B: b, A: a}
}

// Secret exposes the secret key for decryption and testing.
func (kc *KeyChain) Secret() *SecretKey { return kc.sk }

// keySampler derives the sampler for one evaluation key from the
// chain seed and the key's identity (form, rotation, level) — NOT
// from a shared sequential stream. This makes every evaluation key a
// pure function of (context, seed, key identity): two independently
// constructed chains with one seed produce bit-identical keys no
// matter which keys are requested, in which order, from how many
// goroutines. The cluster layer is built on that property — any shard
// (or a router-side verifier) regenerates a tenant's keys from the
// tenant seed alone and must land on the same bits as every replica.
func (kc *KeyChain) keySampler(form string, rotBy, level int) *ring.Sampler {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", kc.seed, form, rotBy, level)
	return ring.NewSampler(kc.ctx.R, int64(h.Sum64()&^(1<<63)))
}

// Switcher returns (building if needed) the HKS switcher for a level.
// The signature matches serve.SwitcherSource, so a KeyChain can route
// a level-aware request stream directly.
func (kc *KeyChain) Switcher(level int) (*hks.Switcher, error) {
	return kc.switcherFor(level)
}

// switcherFor resolves a level through the shared pool (which carries
// its own lock — callers may hold kc.mu).
func (kc *KeyChain) switcherFor(level int) (*hks.Switcher, error) {
	sw, err := kc.pool.Switcher(level)
	if err != nil {
		return nil, fmt.Errorf("ckks: no switcher at level %d: %w", level, err)
	}
	return sw, nil
}

// RelinKey returns the s²→s evaluation key for a level.
func (kc *KeyChain) RelinKey(level int) (*hks.Evk, error) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if evk, ok := kc.relin[level]; ok {
		return evk, nil
	}
	sw, err := kc.switcherFor(level)
	if err != nil {
		return nil, err
	}
	evk := sw.GenEvk(kc.keySampler("relin", 0, level), kc.sSquare, kc.sk.S)
	kc.relin[level] = evk
	return evk, nil
}

// ConjKey returns the evaluation key for slot conjugation (the
// automorphism X → X^(2N−1)) at a level.
func (kc *KeyChain) ConjKey(level int) (*hks.Evk, error) {
	// Reserved map key far outside the valid rotation range
	// (rotations are reduced modulo N/2, so no collision).
	const conjSlot = 1 << 30
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if m, ok := kc.rot[conjSlot]; ok {
		if evk, ok := m[level]; ok {
			return evk, nil
		}
	}
	sw, err := kc.switcherFor(level)
	if err != nil {
		return nil, err
	}
	r := kc.ctx.R
	full := r.DBasis(r.NumQ - 1)
	sConj := r.NewPoly(full)
	r.Automorphism(kc.sk.S, 2*r.N-1, sConj)
	evk := sw.GenEvk(kc.keySampler("conj", 0, level), sConj, kc.sk.S)
	if kc.rot[conjSlot] == nil {
		kc.rot[conjSlot] = map[int]*hks.Evk{}
	}
	kc.rot[conjSlot][level] = evk
	return evk, nil
}

// RotKey returns the σ_g(s)→s evaluation key for a rotation amount at
// a level.
func (kc *KeyChain) RotKey(rotBy, level int) (*hks.Evk, error) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if m, ok := kc.rot[rotBy]; ok {
		if evk, ok := m[level]; ok {
			return evk, nil
		}
	}
	sw, err := kc.switcherFor(level)
	if err != nil {
		return nil, err
	}
	r := kc.ctx.R
	g := r.GaloisElement(rotBy)
	full := r.DBasis(r.NumQ - 1)
	sRot := r.NewPoly(full)
	r.Automorphism(kc.sk.S, g, sRot)
	evk := sw.GenEvk(kc.keySampler("rot", rotBy, level), sRot, kc.sk.S)
	if kc.rot[rotBy] == nil {
		kc.rot[rotBy] = map[int]*hks.Evk{}
	}
	kc.rot[rotBy][level] = evk
	return evk, nil
}

// HoistKey returns the hoisting-form rotation key for a rotation
// amount at a level: an evaluation key s → σ_g⁻¹(s), where g = 5^rot.
//
// The ordinary RotKey form σ_g(s) → s requires the automorphism to run
// *before* key switching, so the ModUp input differs per rotation and
// nothing can be shared. The hoisting form switches the un-rotated
// c1 first — k0 + k1·σ_g⁻¹(s) ≈ c1·s — and applies σ_g afterwards:
// σ_g(k1)·s = σ_g(k1·σ_g⁻¹(s)), so (σ_g(c0+k0), σ_g(k1)) decrypts to
// σ_g(m). With the key in this form every rotation of one ciphertext
// replays the same hoisted ModUp (Evaluator.RotateHoisted).
func (kc *KeyChain) HoistKey(rotBy, level int) (*hks.Evk, error) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if evk, ok := kc.hoist[rotBy][level]; ok {
		return evk, nil
	}
	// A key memoized compressed stays that way: the caller gets a fresh
	// expansion — the same bits, the seeds being the key's own — and
	// the chain keeps no A-half on its behalf.
	if c, ok := kc.hoistComp[rotBy][level]; ok {
		return c.Expand(kc.ctx.R), nil
	}
	evk, err := kc.genHoistKey(rotBy, level)
	if err != nil {
		return nil, err
	}
	if kc.hoist[rotBy] == nil {
		kc.hoist[rotBy] = map[int]*hks.Evk{}
	}
	kc.hoist[rotBy][level] = evk
	return evk, nil
}

// HoistKeyCompressed returns HoistKey's key in seed-compressed form —
// the same sampler, so Expand gives HoistKey's bits in either call
// order — memoized compressed only: the key is generated dense,
// compressed, and its A-halves dropped, so a chain behind a
// byte-budgeted cache of compressed keys holds dnum × (|D_ℓ|·N·8 + 32)
// bytes per key and no more. A key already memoized dense is
// compressed in place, sharing its B-half.
func (kc *KeyChain) HoistKeyCompressed(rotBy, level int) (*hks.CompressedEvk, error) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if c, ok := kc.hoistComp[rotBy][level]; ok {
		return c, nil
	}
	evk, ok := kc.hoist[rotBy][level]
	if !ok {
		var err error
		if evk, err = kc.genHoistKey(rotBy, level); err != nil {
			return nil, err
		}
	}
	c, ok := evk.Compress()
	if !ok {
		return nil, fmt.Errorf("ckks: hoist key (rot %d, level %d) carries no expansion seeds", rotBy, level)
	}
	if kc.hoistComp[rotBy] == nil {
		kc.hoistComp[rotBy] = map[int]*hks.CompressedEvk{}
	}
	kc.hoistComp[rotBy][level] = c
	return c, nil
}

// genHoistKey generates the hoisting-form key s → σ_g⁻¹(s); the caller
// holds kc.mu and memoizes the result.
func (kc *KeyChain) genHoistKey(rotBy, level int) (*hks.Evk, error) {
	sw, err := kc.switcherFor(level)
	if err != nil {
		return nil, err
	}
	r := kc.ctx.R
	// σ_g⁻¹ = σ_{g'} with g' = 5^(−rot): 5 has order N/2 modulo 2N, so
	// GaloisElement(−rot) is the modular inverse of GaloisElement(rot).
	gInv := r.GaloisElement(-rotBy)
	full := r.DBasis(r.NumQ - 1)
	sInv := r.NewPoly(full)
	r.Automorphism(kc.sk.S, gInv, sInv)
	return sw.GenEvk(kc.keySampler("hoist", rotBy, level), kc.sk.S, sInv), nil
}
