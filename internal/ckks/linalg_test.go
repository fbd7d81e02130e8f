package ckks

import (
	"math/cmplx"
	"testing"
)

func TestConjugate(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.35)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	conj, err := ev.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(ev.Decrypt(conj, kc.Secret()))
	for i, v := range vals {
		if cmplx.Abs(dec[i]-cmplx.Conj(v)) > 1e-3 {
			t.Fatalf("slot %d: got %v want %v", i, dec[i], cmplx.Conj(v))
		}
	}
}

func TestConjugateTwiceIsIdentity(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.15)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	c1, err := ev.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ev.Conjugate(c1)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(ev.Decrypt(c2, kc.Secret()))
	if e := maxErr(vals, dec[:len(vals)]); e > 1e-3 {
		t.Fatalf("double conjugation error %g", e)
	}
}

func TestInnerSum(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	slots := ctx.Slots()
	vals := make([]complex128, slots)
	for i := range vals {
		vals[i] = complex(float64(i%8)*0.01, 0)
	}
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)

	width := 8
	sum, err := ev.InnerSum(ct, width)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(ev.Decrypt(sum, kc.Secret()))
	// Slot 0 holds v0+...+v7 (values repeat with period 8, so the
	// wraparound contributions equal the in-window ones).
	var want complex128
	for i := 0; i < width; i++ {
		want += vals[i]
	}
	if cmplx.Abs(dec[0]-want) > 1e-3 {
		t.Fatalf("slot 0: got %v want %v", dec[0], want)
	}
}

func TestInnerSumRejectsBadWidth(t *testing.T) {
	ctx, enc, _, pk, ev := testContext(t)
	pt, _ := enc.Encode([]complex128{1}, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	for _, n := range []int{0, 3, ctx.Slots() * 2} {
		if _, err := ev.InnerSum(ct, n); err == nil {
			t.Errorf("width %d accepted", n)
		}
	}
}

func TestLinearTransformMatchesPlainMatVec(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	const d = 4
	w := [][]float64{
		{0.5, -0.1, 0.0, 0.2},
		{0.0, 0.3, 0.1, 0.0},
		{-0.2, 0.0, 0.4, 0.1},
		{0.1, 0.1, 0.0, -0.3},
	}
	x := []float64{0.4, -0.2, 0.7, 0.1}

	lt, err := enc.NewLinearTransform(w, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate x across the slots.
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(x[i%d], 0)
	}
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)

	y, err := ev.Apply(lt, ct)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(ev.Decrypt(y, kc.Secret()))
	for i := 0; i < d; i++ {
		var want float64
		for j := 0; j < d; j++ {
			want += w[i][j] * x[j]
		}
		if cmplx.Abs(dec[i]-complex(want, 0)) > 1e-3 {
			t.Fatalf("row %d: got %v want %v", i, dec[i], want)
		}
	}
	if y.Level != ctx.MaxLevel-1 {
		t.Fatalf("Apply should consume one level, got %d", y.Level)
	}
}

func TestLinearTransformSkipsZeroDiagonals(t *testing.T) {
	ctx, enc, _, _, _ := testContext(t)
	// Diagonal matrix: only diagonal 0 is non-zero.
	w := [][]float64{{1, 0}, {0, 2}}
	lt, err := enc.NewLinearTransform(w, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.Rotations()) != 0 {
		t.Fatalf("diagonal matrix should need no rotations, got %v", lt.Rotations())
	}
}

func TestLinearTransformValidation(t *testing.T) {
	ctx, enc, _, _, _ := testContext(t)
	if _, err := enc.NewLinearTransform(nil, ctx.MaxLevel); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := enc.NewLinearTransform([][]float64{{1, 2}, {3}}, ctx.MaxLevel); err == nil {
		t.Error("ragged matrix accepted")
	}
	// dim 3 does not divide the slot count (a power of two).
	bad := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if _, err := enc.NewLinearTransform(bad, ctx.MaxLevel); err == nil {
		t.Error("non-dividing dimension accepted")
	}
}
