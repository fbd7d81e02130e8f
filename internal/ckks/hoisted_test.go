package ckks

import (
	"math/cmplx"
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
)

// TestRotateHoistedMatchesRotate checks that every hoisted rotation is
// the per-rotation path's ciphertext bit for bit — one key form, one
// path, and a replay of a shared ModUp is exact — serially and under an
// engine, and that it decrypts to the rotated vector.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	ctx, enc, kc, pk, serial := testContext(t)
	vals := randomValues(ctx.Slots(), 0.27)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := serial.Encrypt(pt, pk)
	e := engine.New(4)
	defer e.Close()

	rots := []int{1, 3, 0, 7, ctx.Slots() - 1}
	for _, ev := range []*Evaluator{serial, serial.WithEngine(e, dataflow.OC)} {
		hoisted, err := ev.RotateHoisted(ct, rots)
		if err != nil {
			t.Fatal(err)
		}
		if len(hoisted) != len(rots) {
			t.Fatalf("got %d outputs for %d rotations", len(hoisted), len(rots))
		}
		for i, rot := range rots {
			want, err := serial.Rotate(ct, rot)
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
}

// TestRotateHoistedEngine runs the hoisted fan-out on the worker pool
// under every dataflow and checks decryption; with -race this also
// exercises the hoisted state pool from the evaluator layer.
func TestRotateHoistedEngine(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	vals := randomValues(ctx.Slots(), 0.41)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)
	rots := []int{2, 5, 9}

	e := engine.New(4)
	defer e.Close()
	for _, df := range []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC} {
		outs, err := ev.WithEngine(e, df).RotateHoisted(ct, rots)
		if err != nil {
			t.Fatal(err)
		}
		for i, rot := range rots {
			dec := enc.Decode(ev.Decrypt(outs[i], kc.Secret()))
			for s := 0; s < ctx.Slots(); s++ {
				if cmplx.Abs(dec[s]-vals[(s+rot)%ctx.Slots()]) > 1e-3 {
					t.Fatalf("%s rot %d slot %d: got %v want %v", df, rot, s, dec[s], vals[(s+rot)%ctx.Slots()])
				}
			}
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

// TestApplyHoistedEngine applies a linear transform through the
// engine-backed evaluator, covering the RotateHoisted path inside
// Apply under a worker pool.
func TestApplyHoistedEngine(t *testing.T) {
	ctx, enc, kc, pk, ev := testContext(t)
	const d = 4
	w := [][]float64{
		{0.2, 0.1, 0, -0.1},
		{0, 0.4, 0.2, 0},
		{0.1, 0, -0.3, 0.1},
		{-0.2, 0.1, 0, 0.5},
	}
	x := []float64{0.3, -0.4, 0.1, 0.2}
	lt, err := enc.NewLinearTransform(w, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(x[i%d], 0)
	}
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	ct := ev.Encrypt(pt, pk)

	e := engine.New(4)
	defer e.Close()
	y, err := ev.WithEngine(e, dataflow.OC).Apply(lt, ct)
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
}
