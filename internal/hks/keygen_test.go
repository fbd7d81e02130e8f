package hks

import (
	"reflect"
	"runtime"
	"testing"

	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

// genEvkSerial is GenEvk as it was before the tower tasks: the whole
// key on the caller, digit by digit over whole polynomials. It stays
// here verbatim as the oracle GenEvk's bits are held to.
func genEvkSerial(sw *Switcher, sampler *ring.Sampler, sOld, sNew *ring.Poly) *Evk {
	r := sw.R
	sNewD := sNew.SubPoly(sw.dBasis).Copy()
	sOldD := sOld.SubPoly(sw.dBasis).Copy()
	r.NTT(sNewD)
	r.NTT(sOldD)

	evk := &Evk{}
	for j := 0; j < sw.Dnum; j++ {
		seed := sampler.NewSeed()
		a := r.UniformFromSeed(sw.dBasis, seed)
		a.IsNTT = true // uniform residues are uniform in either domain
		e := sampler.Gaussian(sw.dBasis)
		r.NTT(e)

		// b = -a·sNew + e + w_j ⊙ sOld  over D_ℓ.
		b := r.NewPoly(sw.dBasis)
		b.IsNTT = true
		r.MulCoeffwise(a, sNewD, b)
		r.Sub(e, b, b) // b = e - a·sNew
		ws := r.NewPoly(sw.dBasis)
		r.MulTowerScalars(sOldD, sw.gadget[j], ws)
		r.Add(b, ws, b)

		evk.B = append(evk.B, b)
		evk.A = append(evk.A, a)
		evk.Seeds = append(evk.Seeds, seed)
	}
	return evk
}

// TestGenEvkMatchesSerial holds GenEvk to the serial oracle on every
// golden shape, a dnum-1 shape below the top level (so D_ℓ skips Q
// towers the secrets carry) and a dnum-4 shape, both over 40-bit
// moduli at N = 2^12, with the secrets handed over in each domain and
// in mixed ones (the oracle always gets them in the coefficient
// domain): every seed and every residue of both halves equal, the
// sampler left where the oracle left it, and the compressed form
// expanding back to the dense key. GenCompressedEvk, the same
// generator packing into a compressed key, must leave the sampler
// there too and produce exactly Compress's bytes.
func TestGenEvkMatchesSerial(t *testing.T) {
	type shape struct {
		name                        string
		n, numQ, qBits, numP, pBits int
		level, dnum                 int
	}
	shapes := []shape{
		{"low_level_dnum1", 1 << 12, 6, 40, 3, 41, 2, 1},
		{"dnum4", 1 << 12, 8, 40, 3, 41, 7, 4},
	}
	for _, tc := range goldenCases {
		shapes = append(shapes, shape(tc))
	}
	domains := []struct {
		name           string
		oldNTT, newNTT bool
	}{{"coeff", false, false}, {"ntt", true, true}, {"old_ntt", true, false}, {"new_ntt", false, true}}
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			r, _, sOld0, sNew0 := testSetup(t, tc.n, tc.numQ, tc.qBits, tc.numP, tc.pBits)
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			for _, dom := range domains {
				t.Run(dom.name, func(t *testing.T) {
					sOld, sNew := sOld0, sNew0
					s, oracle := ring.NewSampler(r, 9), ring.NewSampler(r, 9)
					want := genEvkSerial(sw, oracle, sOld, sNew)
					sOld, sNew = inDomain(r, sOld, dom.oldNTT), inDomain(r, sNew, dom.newNTT)
					got := sw.GenEvk(s, sOld, sNew)
					requireSameEvk(t, got, want)
					next := s.NewSeed()
					if next != oracle.NewSeed() {
						t.Fatal("GenEvk left the sampler's stream elsewhere than the serial oracle")
					}
					c, ok := got.Compress()
					if !ok {
						t.Fatal("GenEvk's key did not compress")
					}
					requireSameEvk(t, c.Expand(r), want)

					packer := ring.NewSampler(r, 9)
					if gc := sw.GenCompressedEvk(packer, sOld, sNew); !reflect.DeepEqual(gc, c) {
						t.Fatal("GenCompressedEvk's key differs from GenEvk's compressed")
					}
					if packer.NewSeed() != next {
						t.Fatal("GenCompressedEvk left the sampler's stream elsewhere than GenEvk")
					}
				})
			}
		})
	}
}

// inDomain returns s (coefficient domain) itself, or a transformed copy
// when ntt is set.
func inDomain(r *ring.Ring, s *ring.Poly, ntt bool) *ring.Poly {
	if !ntt {
		return s
	}
	c := s.Copy()
	r.NTT(c)
	return c
}

// TestGenEvkDrawOverlapsTowers generates keys of two chains (two
// samplers, two secret pairs, one switcher) at once, one chain per
// iteration of a two-worker engine's ParallelFor, so that one key's
// draws run beside the other's (digit, tower) tasks on
// engine.Default(), and requires each key, dense and packed, with the
// secrets in either domain, to equal its twin generated alone.
func TestGenEvkDrawOverlapsTowers(t *testing.T) {
	r, _, sOld, sNew := testSetup(t, 1<<10, 4, 40, 2, 41)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	secrets := [2][2]*ring.Poly{{sOld, sNew}, {inDomain(r, sNew, true), inDomain(r, sOld, true)}}
	const keys = 4
	gen := func(c, i int) (*Evk, *CompressedEvk) {
		seed := int64(100*c + i)
		s := secrets[c]
		return sw.GenEvk(ring.NewSampler(r, seed), s[0], s[1]), sw.GenCompressedEvk(ring.NewSampler(r, seed), s[0], s[1])
	}
	var alone [2][keys]*Evk
	var aloneC [2][keys]*CompressedEvk
	for c := range 2 {
		for i := range keys {
			alone[c][i], aloneC[c][i] = gen(c, i)
		}
	}
	e := engine.New(2)
	defer e.Close()
	var got [2][keys]*Evk
	var gotC [2][keys]*CompressedEvk
	e.ParallelFor(2, func(c int) {
		for i := range keys {
			got[c][i], gotC[c][i] = gen(c, i)
		}
	})
	for c := range 2 {
		for i := range keys {
			requireSameEvk(t, got[c][i], alone[c][i])
			if !reflect.DeepEqual(gotC[c][i], aloneC[c][i]) {
				t.Fatalf("chain %d, key %d: packed key generated beside the other chain differs from its twin", c, i)
			}
		}
	}
}

// TestGenCompressedEvkAllocatesNoDenseHalf pins what a warm
// GenCompressedEvk allocates at N = 2^12 over 40/41-bit towers: the
// packed key itself and the few hundred bytes of its headers and the
// engine's run, under one row of 8-byte words in all — so no dense row
// of either half, which GenEvk allocates 2·dnum·|D_ℓ| of.
func TestGenCompressedEvkAllocatesNoDenseHalf(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	r, s, sOld, sNew := testSetup(t, 1<<12, 6, 40, 3, 41)
	sw, err := NewSwitcher(r, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	size := sw.GenCompressedEvk(s, sOld, sNew).SizeBytes() // warm: the scratch pools
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		sw.GenCompressedEvk(s, sOld, sNew)
	}
	runtime.ReadMemStats(&after)
	if perKey, over := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(size+r.N*8); perKey >= over {
		t.Fatalf("GenCompressedEvk allocates %d bytes per key of %d packed; want under %d", perKey, size, over)
	}
}

// requireSameEvk fails t unless the two keys hold the same seeds and
// the same residues, domain and basis in every digit of both halves.
func requireSameEvk(t *testing.T, got, want *Evk) {
	t.Helper()
	if len(got.B) != len(want.B) || len(got.A) != len(want.A) || len(got.Seeds) != len(want.Seeds) {
		t.Fatalf("key has %d/%d/%d digits, want %d/%d/%d", len(got.B), len(got.A), len(got.Seeds), len(want.B), len(want.A), len(want.Seeds))
	}
	for j := range want.B {
		if got.Seeds[j] != want.Seeds[j] {
			t.Fatalf("digit %d: seed differs", j)
		}
		if !got.A[j].Equal(want.A[j]) {
			t.Fatalf("digit %d: A differs", j)
		}
		if !got.B[j].Equal(want.B[j]) {
			t.Fatalf("digit %d: B differs", j)
		}
	}
}

// BenchmarkGenEvk prices one key at the benchmark's shape (N = 2^13,
// 6 × 40-bit Q and 3 × 41-bit P towers, level 5, dnum 3): GenEvk's
// graph on engine.Default() beside the serial oracle, the same graph
// packing a compressed key (GenCompressedEvk), and that with the
// secrets in the NTT domain, as ckks.KeyChain hands them over.
func BenchmarkGenEvk(b *testing.B) {
	r, _, sOld, sNew := testSetup(b, 1<<13, 6, 40, 3, 41)
	sw, err := NewSwitcher(r, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	s := ring.NewSampler(r, 9)
	b.Run("towers", func(b *testing.B) {
		for b.Loop() {
			sw.GenEvk(s, sOld, sNew)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for b.Loop() {
			genEvkSerial(sw, s, sOld, sNew)
		}
	})
	b.Run("packed", func(b *testing.B) {
		for b.Loop() {
			sw.GenCompressedEvk(s, sOld, sNew)
		}
	})
	oldN, newN := inDomain(r, sOld, true), inDomain(r, sNew, true)
	b.Run("packed_ntt", func(b *testing.B) {
		for b.Loop() {
			sw.GenCompressedEvk(s, oldN, newN)
		}
	})
}
