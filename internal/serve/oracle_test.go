package serve

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"ciflow/internal/ckks"
	"ciflow/internal/engine"
	"ciflow/internal/ring"
)

// finishRotation completes a served rotation by hand: the service
// switched ct.C1 under the hoisting-form key and returned (k0, k1), the
// rotated ciphertext is (σ_g(c0+k0), σ_g(k1)), g = 5^rot.
func finishRotation(r *ring.Ring, ct *ckks.Ciphertext, res Result, rot int) *ckks.Ciphertext {
	sigma := func(p *ring.Poly) *ring.Poly {
		p = p.Copy()
		r.INTT(p)
		out := r.NewPoly(p.Basis)
		r.Automorphism(p, r.GaloisElement(rot), out)
		r.NTT(out)
		return out
	}
	c0 := r.NewPoly(ct.C0.Basis)
	r.Add(ct.C0, res.C0, c0)
	return &ckks.Ciphertext{C0: sigma(c0), C1: sigma(res.C1), Level: ct.Level, Scale: ct.Scale}
}

// TestServedRotationIsEvaluatorRotation is the seam ROADMAP item 6c
// builds on: a rotation served from a tenant's seed — compressed keys,
// cache, dispatcher, engine replay — and finished by hand is the
// ciphertext ckks.Evaluator.Rotate computes under the same seed, bit
// for bit; a SubmitGroup fan-out is
// RotateHoisted's. And it is right, not only equal: it decrypts to the
// rotated vector within the bound ckks/precision_test.go holds the
// scheme to.
func TestServedRotationIsEvaluatorRotation(t *testing.T) {
	ctx, err := ckks.NewContext(128, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	const tenant = "alpha"
	level := ctx.MaxLevel
	kc, pk := ckks.GenKeys(ctx, TenantSeed(tenant))
	serial := ckks.NewEvaluator(ctx, kc)
	enc := ckks.NewEncoder(ctx)
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(0.9-0.01*float64(i), 0.005*float64(i))
	}
	pt, err := enc.Encode(vals, level)
	if err != nil {
		t.Fatal(err)
	}
	ct := serial.Encrypt(pt, pk)

	e := engine.New(2)
	defer e.Close()
	src, err := NewSeedKeySource(ctx, []string{tenant}, true)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(ctx.Switchers(), src, Config{Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	check := func(what string, got, want *ckks.Ciphertext, rot int) {
		t.Helper()
		if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
			t.Fatalf("%s, rotation %d: served ciphertext differs from the evaluator's", what, rot)
		}
		dec := enc.Decode(serial.Decrypt(got, kc.Secret()))
		for s := range vals {
			if d := cmplx.Abs(dec[s] - vals[(s+rot)%len(vals)]); d > math.Pow(2, -10) {
				t.Fatalf("%s, rotation %d, slot %d: off by %g", what, rot, s, d)
			}
		}
	}

	const rot = 5
	res := do(svc, Request{Input: ct.C1, Rot: rot, Level: level, Tenant: tenant})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want, err := serial.Rotate(ct, rot)
	if err != nil {
		t.Fatal(err)
	}
	check("Submit vs Rotate", finishRotation(ctx.R, ct, res, rot), want, rot)

	rots := []int{1, 2, 7, ctx.Slots() - 3}
	reqs := groupOf(ct.C1, tenant, rots...)
	for i := range reqs {
		reqs[i].Level = level
	}
	chans, err := svc.SubmitGroup(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	group := make([]*ckks.Ciphertext, len(rots))
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		group[i] = finishRotation(ctx.R, ct, res, rots[i])
	}
	wants, err := serial.RotateHoisted(ct, rots)
	if err != nil {
		t.Fatal(err)
	}
	for i, rot := range rots {
		check("SubmitGroup vs RotateHoisted", group[i], wants[i], rot)
	}
	if st := svc.Stats(); st.ModUps != 2 {
		t.Fatalf("%d ModUps for one lone rotation and one group, want 2", st.ModUps)
	}
}
