package ckks

import (
	"fmt"
	"math/cmplx"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// ctEqual asserts two ciphertexts agree bit for bit.
func ctEqual(t *testing.T, op string, a, b *Ciphertext) {
	t.Helper()
	if a.Level != b.Level || a.Scale != b.Scale {
		t.Fatalf("%s: level/scale differ: (%d, %g) vs (%d, %g)", op, a.Level, a.Scale, b.Level, b.Scale)
	}
	if !a.C0.Equal(b.C0) || !a.C1.Equal(b.C1) {
		t.Fatalf("%s: ciphertexts differ", op)
	}
}

// TestRotateHoistedMatchesRotate checks that every hoisted rotation is
// the per-rotation path's ciphertext bit for bit — one key form, one
// path, and a replay of a shared ModUp is exact — and that it decrypts
// to the rotated vector.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.27)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)

	rots := []int{1, 3, 0, 7, ctx.Slots() - 1}
	hoisted, err := ev.RotateHoisted(ct, rots)
	if err != nil {
		t.Fatal(err)
	}
	if len(hoisted) != len(rots) {
		t.Fatalf("got %d outputs for %d rotations", len(hoisted), len(rots))
	}
	for i, rot := range rots {
		want, err := ev.Rotate(ct, rot)
		if err != nil {
			t.Fatal(err)
		}
		ctEqual(t, "RotateHoisted vs Rotate", hoisted[i], want)
		dec := enc.Decode(ev.Decrypt(hoisted[i], kc.Secret()))
		for s := 0; s < ctx.Slots(); s++ {
			if cmplx.Abs(dec[s]-vals[(s+rot)%ctx.Slots()]) > 1e-3 {
				t.Fatalf("rot %d slot %d: hoisted %v, want %v", rot, s, dec[s], vals[(s+rot)%ctx.Slots()])
			}
		}
	}
}

// TestRotateHoistedEngine holds the evaluator's fan-out to the engine
// schedules of internal/hks: under every dataflow, the pairs
// SwitchHoistedParallelInto switches ct.C1 to, finished by hand as
// (σ_g(c0+k0), σ_g(k1)), are RotateHoisted's ciphertexts bit for bit.
// With -race this also runs the hoisted state pool on a worker pool.
func TestRotateHoistedEngine(t *testing.T) {
	ctx, enc, _, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.41)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	rots := []int{2, 5, 9}
	want, err := ev.RotateHoisted(ct, rots)
	if err != nil {
		t.Fatal(err)
	}

	sw, err := ev.kc.Switcher(ct.Level)
	if err != nil {
		t.Fatal(err)
	}
	evks := make([]*hks.Evk, len(rots))
	for i, rot := range rots {
		if evks[i], err = ev.kc.HoistKey(rot, ct.Level); err != nil {
			t.Fatal(err)
		}
	}
	r := ctx.R
	sigma := func(p *ring.Poly, g int) *ring.Poly {
		r.INTT(p)
		out := r.NewPoly(p.Basis)
		r.Automorphism(p, g, out)
		r.NTT(out)
		return out
	}
	e := engine.New(4)
	defer e.Close()
	for _, df := range []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC, dataflow.OCF} {
		c0s, c1s := make([]*ring.Poly, len(rots)), make([]*ring.Poly, len(rots))
		for i := range rots {
			c0s[i], c1s[i] = r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
		}
		sw.SwitchHoistedParallelInto(e, df, ct.C1, evks, c0s, c1s)
		for i, rot := range rots {
			g := r.GaloisElement(rot)
			r.Add(ct.C0, c0s[i], c0s[i])
			got := &Ciphertext{C0: sigma(c0s[i], g), C1: sigma(c1s[i], g), Level: ct.Level, Scale: ct.Scale}
			ctEqual(t, fmt.Sprintf("%s rotation %d", df, rot), got, want[i])
		}
	}
}

// TestRotateHoistedRepeated replays the fan-out on one evaluator so
// pooled hoisted states and cached hoisting keys get reused.
func TestRotateHoistedRepeated(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	for rep := 0; rep < 3; rep++ {
		vals := randomValues(ctx.Slots(), 0.1+0.2*float64(rep))
		pt, _ := enc.Encode(vals, ctx.MaxLevel)
		ct := ev.Encrypt(pt, pk)
		outs, err := ev.RotateHoisted(ct, []int{1, 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, rot := range []int{1, 4} {
			dec := enc.Decode(ev.Decrypt(outs[i], kc.Secret()))
			for s := 0; s < ctx.Slots(); s++ {
				if cmplx.Abs(dec[s]-vals[(s+rot)%ctx.Slots()]) > 1e-3 {
					t.Fatalf("rep %d rot %d slot %d mismatch", rep, rot, s)
				}
			}
		}
	}
}

// TestRotateHoistedEmpty covers the trivial fan-outs: an empty list
// and identity-only rotations, neither of which may pay for a hoist.
func TestRotateHoistedEmpty(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.19)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	outs, err := ev.RotateHoisted(ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("empty rotation list produced %d outputs", len(outs))
	}

	outs, err = ev.RotateHoisted(ct, []int{0, ctx.Slots(), -ctx.Slots()})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("identity rotations produced %d outputs, want 3", len(outs))
	}
	for i, out := range outs {
		dec := enc.Decode(ev.Decrypt(out, kc.Secret()))
		for s := 0; s < ctx.Slots(); s++ {
			if cmplx.Abs(dec[s]-vals[s]) > 1e-3 {
				t.Fatalf("identity output %d slot %d: got %v want %v", i, s, dec[s], vals[s])
			}
		}
	}
}

// TestHoistKeyCaching asserts the hoisting-form keys are cached per
// (rotation, level) like the ordinary rotation keys.
func TestHoistKeyCaching(t *testing.T) {
	ctx, _, kc, _, _ := testContext(t)
	k1, err := kc.HoistKey(3, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := kc.HoistKey(3, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("HoistKey not cached")
	}
	k3, err := kc.HoistKey(3, ctx.MaxLevel-1)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("HoistKey shared across levels")
	}
}
