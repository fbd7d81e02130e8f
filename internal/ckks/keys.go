package ckks

import (
	"fmt"
	"hash/fnv"

	"ciflow/internal/hks"
	"ciflow/internal/memo"
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
// keys (relinearization, rotation) that homomorphic operations need,
// one per level. A production library would precompute and serialize
// these; for analysis purposes lazy generation keeps tests and
// examples self-contained.
//
// There is one rotation-key form, the hoisting form s → σ_g⁻¹(s): the
// un-rotated c1 is switched first and σ_g applied to the switched pair
// afterwards, so every rotation of one ciphertext shares its ModUp and
// the pair a serving layer returns for (c1, rot, level) is the pair
// Evaluator.Rotate computes (HoistKey has the algebra).
//
// A KeyChain is safe for concurrent use: the serving layer
// (internal/serve) loads keys from many request goroutines at once.
// Every key lives in one memo keyed by its identity and is generated
// once, outside the memo's lock — two goroutines loading different
// keys generate concurrently, two loading one key share its single
// generation — so every caller observes the identical key material,
// which is what keeps served results bit-exact across cache evictions
// and reloads. A key is memoized in the form it was first asked for:
// dense (RelinKey, HoistKey) or, for a consumer that keeps
// keys compressed, as packed B-halves and seeds only
// (HoistKeyCompressed), in which case no A-half stays resident in the
// chain.
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
	sNTT    *ring.Poly // s, full D basis, NTT domain: every key's secrets derive from it

	// pool memoizes one switcher per level (internally synchronized,
	// dnum clamped at low levels). Switchers hold no secret material,
	// so they may be shared across key chains / tenants.
	pool *hks.SwitcherPool

	keys memo.Map[keyID, hks.KeyMaterial]
}

// keyID is an evaluation key's identity: what keySampler derives its
// randomness from and what the memo is keyed by.
type keyID struct {
	form       string // formRelin or formHoist
	rot, level int
}

const (
	formRelin = "relin" // s² → s
	formHoist = "hoist" // s → σ_g⁻¹(s), g = 5^rot
)

// GenKeys samples a fresh secret/public key pair and its key chain.
func GenKeys(ctx *Context, seed int64) (*KeyChain, *PublicKey) {
	r := ctx.R
	sampler := ring.NewSampler(r, seed)
	full := r.DBasis(r.NumQ - 1)
	sk := &SecretKey{S: sampler.Ternary(full)}

	// s over the full basis in the NTT domain, kept for evk generation
	// at any level and the public key's towers.
	sN := sk.S.Copy()
	r.NTT(sN)

	// pk = (-a·s + e, a) at the top level.
	top := r.QBasis(ctx.MaxLevel)
	a := sampler.Uniform(top)
	a.IsNTT = true
	e := sampler.Gaussian(top)
	r.NTT(e)
	b := r.NewPoly(top)
	r.MulCoeffwise(a, sN.SubPoly(top), b)
	r.Sub(e, b, b)

	kc := &KeyChain{ctx: ctx, seed: seed, sampler: sampler, sk: sk, sNTT: sN, pool: ctx.Switchers()}
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
func (kc *KeyChain) keySampler(id keyID) *ring.Sampler {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", kc.seed, id.form, id.rot, id.level)
	return ring.NewSampler(kc.ctx.R, int64(h.Sum64()&^(1<<63)))
}

// Switcher returns (building if needed) the HKS switcher for a level,
// from the context's shared pool.
func (kc *KeyChain) Switcher(level int) (*hks.Switcher, error) {
	sw, err := kc.pool.Switcher(level)
	if err != nil {
		return nil, fmt.Errorf("ckks: no switcher at level %d: %w", level, err)
	}
	return sw, nil
}

// key returns the evaluation key named id, generating it the first
// time it is asked for — compressed (generated packed, with no dense
// half ever allocated) if that first caller wants it so.
func (kc *KeyChain) key(id keyID, compressed bool) (hks.KeyMaterial, error) {
	return kc.keys.Do(id, func() (hks.KeyMaterial, error) {
		sw, err := kc.Switcher(id.level)
		if err != nil {
			return nil, err
		}
		from, to, drawn := kc.secrets(id)
		defer kc.ctx.R.PutPoly(drawn)
		if compressed {
			return sw.GenCompressedEvk(kc.keySampler(id), from, to), nil
		}
		return sw.GenEvk(kc.keySampler(id), from, to), nil
	})
}

// secrets returns the two secrets (full D basis, NTT domain) the key
// named id re-encrypts between, one of them the chain's transformed
// secret and the other derived from it into drawn, a polynomial from
// the ring's pool (GetPoly) that the caller hands back once the key is
// generated. Relin's from is s², the point-wise square of the secret's
// rows. A rotation's to is σ_g⁻¹(s), an index permutation of those
// rows (ring.AutomorphismNTT), so no key transforms its secrets again.
func (kc *KeyChain) secrets(id keyID) (from, to, drawn *ring.Poly) {
	r := kc.ctx.R
	drawn = r.GetPoly(kc.sNTT.Basis)
	if id.form == formRelin {
		r.MulCoeffwise(kc.sNTT, kc.sNTT, drawn)
		return drawn, kc.sNTT, drawn
	}
	// σ_g⁻¹ = σ_{g'} with g' = 5^(−rot): 5 has order N/2 modulo 2N, so
	// GaloisElement(−rot) is the modular inverse of GaloisElement(rot).
	r.AutomorphismNTT(kc.sNTT, r.GaloisElement(-id.rot), drawn) // a permutation: every residue is written
	return kc.sNTT, drawn, drawn
}

// dense returns the key named id dense. A key memoized compressed
// stays that way: the caller gets a fresh expansion — the same bits,
// the seeds being the key's own — and the chain keeps no A-half on its
// behalf.
func (kc *KeyChain) dense(id keyID) (*hks.Evk, error) {
	m, err := kc.key(id, false)
	if err != nil {
		return nil, err
	}
	if c, ok := m.(*hks.CompressedEvk); ok {
		return c.Expand(kc.ctx.R), nil
	}
	return m.(*hks.Evk), nil
}

// RelinKey returns the s²→s evaluation key for a level.
func (kc *KeyChain) RelinKey(level int) (*hks.Evk, error) {
	return kc.dense(keyID{formRelin, 0, level})
}

// HoistKey returns the rotation key for a rotation amount at a level:
// an evaluation key s → σ_g⁻¹(s), where g = 5^rot.
//
// A key σ_g(s) → s would require the automorphism to run *before* key
// switching, so the ModUp input would differ per rotation and nothing
// could be shared. The hoisting form switches the un-rotated c1 first
// — k0 + k1·σ_g⁻¹(s) ≈ c1·s — and applies σ_g afterwards:
// σ_g(k1)·s = σ_g(k1·σ_g⁻¹(s)), so (σ_g(c0+k0), σ_g(k1)) decrypts to
// σ_g(m). With the key in this form every rotation of one ciphertext
// replays the same hoisted ModUp (Evaluator.RotateHoisted).
func (kc *KeyChain) HoistKey(rotBy, level int) (*hks.Evk, error) {
	return kc.dense(keyID{formHoist, rotBy, level})
}

// HoistKeyCompressed returns HoistKey's key in seed-compressed form —
// the same sampler, so Expand gives HoistKey's bits in either call
// order — memoized compressed only: the key is generated with its
// B-half packed and no A-half, so a chain behind a byte-budgeted cache
// of compressed keys holds dnum × (Σ_t N·⌈bits(q_t)/8⌉ + 32) bytes per
// key and no more. A key already memoized dense is compressed on the
// way out, into a packed copy of its B-half.
func (kc *KeyChain) HoistKeyCompressed(rotBy, level int) (*hks.CompressedEvk, error) {
	m, err := kc.key(keyID{formHoist, rotBy, level}, true)
	if err != nil {
		return nil, err
	}
	if c, ok := m.(*hks.CompressedEvk); ok {
		return c, nil
	}
	c, _ := m.(*hks.Evk).Compress()
	return c, nil
}
