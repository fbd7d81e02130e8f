package ckks

import (
	"math/cmplx"
	"testing"
)

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
