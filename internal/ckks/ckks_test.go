package ckks

import (
	"math"
	"math/cmplx"
	"testing"
)

// testContext: N=128, 4 towers of 30 bits, 2 P towers, dnum=2.
func testContext(t *testing.T) (*Context, *Encoder, *KeyChain, *PublicKey, *Evaluator) {
	t.Helper()
	ctx, err := NewContext(128, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(ctx)
	kc, pk := GenKeys(ctx, 1)
	ev := NewEvaluator(ctx, kc)
	return ctx, enc, kc, pk, ev
}

func randomValues(n int, seed float64) []complex128 {
	out := make([]complex128, n)
	x := seed
	for i := range out {
		x = math.Mod(x*997.13+0.7, 2) - 1
		y := math.Mod(x*313.77+0.3, 2) - 1
		out[i] = complex(x, y)
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ctx, enc, _, _, _ := testContext(t)
	vals := randomValues(ctx.Slots(), 0.4)
	pt, err := enc.Encode(vals, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(pt)
	if e := maxErr(vals, got[:len(vals)]); e > 1e-5 {
		t.Fatalf("encode/decode error %g", e)
	}
}

func TestEncodeRejectsOverfull(t *testing.T) {
	ctx, enc, _, _, _ := testContext(t)
	if _, err := enc.Encode(make([]complex128, ctx.Slots()+1), ctx.MaxLevel); err == nil {
		t.Fatal("oversized vector accepted")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.9)
	pt, err := enc.Encode(vals, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pt, pk)
	dec := enc.Decode(ev.Decrypt(ct, kc.Secret()))
	if e := maxErr(vals, dec[:len(vals)]); e > 1e-4 {
		t.Fatalf("encrypt/decrypt error %g", e)
	}
}

func TestHomomorphicAdd(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	a := randomValues(ctx.Slots(), 0.1)
	b := randomValues(ctx.Slots(), 0.8)
	pa, _ := enc.Encode(a, ctx.MaxLevel)
	pb, _ := enc.Encode(b, ctx.MaxLevel)
	ca := ev.Encrypt(pa, pk)
	cb := ev.Encrypt(pb, pk)

	sum := enc.Decode(ev.Decrypt(ev.Add(ca, cb), kc.Secret()))
	for i := range a {
		if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("slot %d: sum error", i)
		}
	}
}

func TestMulRelinRescale(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	a := randomValues(ctx.Slots(), 0.3)
	b := randomValues(ctx.Slots(), 0.6)
	pa, _ := enc.Encode(a, ctx.MaxLevel)
	pb, _ := enc.Encode(b, ctx.MaxLevel)
	ca := ev.Encrypt(pa, pk)
	cb := ev.Encrypt(pb, pk)

	prod, err := ev.MulRelin(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Level != ctx.MaxLevel-1 {
		t.Fatalf("level after rescale = %d, want %d", prod.Level, ctx.MaxLevel-1)
	}
	dec := enc.Decode(ev.Decrypt(prod, kc.Secret()))
	for i := range a {
		if cmplx.Abs(dec[i]-a[i]*b[i]) > 1e-3 {
			t.Fatalf("slot %d: product %v want %v", i, dec[i], a[i]*b[i])
		}
	}
}

func TestMulPlain(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	a := randomValues(ctx.Slots(), 0.2)
	w := randomValues(ctx.Slots(), 0.5)
	pa, _ := enc.Encode(a, ctx.MaxLevel)
	pw, _ := enc.Encode(w, ctx.MaxLevel)
	ct := ev.MulPlain(ev.Encrypt(pa, pk), pw)
	ct, err := ev.Rescale(ct)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(ev.Decrypt(ct, kc.Secret()))
	for i := range a {
		if cmplx.Abs(dec[i]-a[i]*w[i]) > 1e-3 {
			t.Fatalf("slot %d: plain product error", i)
		}
	}
}

func TestRotate(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.7)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	slots := ctx.Slots()

	for _, r := range []int{1, 3, slots - 1} {
		rot, err := ev.Rotate(ct, r)
		if err != nil {
			t.Fatal(err)
		}
		dec := enc.Decode(ev.Decrypt(rot, kc.Secret()))
		for i := 0; i < slots; i++ {
			want := vals[(i+r)%slots]
			if cmplx.Abs(dec[i]-want) > 1e-3 {
				t.Fatalf("rot %d slot %d: got %v want %v", r, i, dec[i], want)
			}
		}
	}
}

func TestRotateZeroIsIdentity(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.25)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	rot, err := ev.Rotate(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(ev.Decrypt(rot, kc.Secret()))
	if e := maxErr(vals, dec[:len(vals)]); e > 1e-3 {
		t.Fatalf("rotation by 0 changed values: %g", e)
	}
}

func TestDepthTwoCircuit(t *testing.T) {
	// ((a*b) rescale) * (c at lower level) exercises level tracking
	// and per-level key generation.
	ctx, enc, kc, pk, ev := testContext(t)
	a := randomValues(ctx.Slots(), 0.11)
	b := randomValues(ctx.Slots(), 0.22)
	pa, _ := enc.Encode(a, ctx.MaxLevel)
	pb, _ := enc.Encode(b, ctx.MaxLevel)
	ca := ev.Encrypt(pa, pk)
	cb := ev.Encrypt(pb, pk)

	ab, err := ev.MulRelin(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	ab, err = ev.Rescale(ab)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ev.MulRelin(ab, ab)
	if err != nil {
		t.Fatal(err)
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(ev.Decrypt(sq, kc.Secret()))
	for i := range a {
		want := a[i] * b[i] * a[i] * b[i]
		if cmplx.Abs(dec[i]-want) > 5e-3 {
			t.Fatalf("slot %d: got %v want %v", i, dec[i], want)
		}
	}
}

func TestRescaleAtLevelZeroFails(t *testing.T) {
	ctx, enc, _, pk, ev := testContext(t)
	vals := randomValues(4, 0.5)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	var err error
	for ct.Level > 0 {
		ct, err = ev.Rescale(ct)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ev.Rescale(ct); err == nil {
		t.Fatal("rescale at level 0 did not fail")
	}
}

func TestLevelMismatchPanics(t *testing.T) {
	ctx, enc, _, pk, ev := testContext(t)
	vals := randomValues(4, 0.5)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct1 := ev.Encrypt(pt, pk)
	ct2, err := ev.Rescale(ev.Encrypt(pt, pk))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add across levels did not panic")
		}
	}()
	ev.Add(ct1, ct2)
}
