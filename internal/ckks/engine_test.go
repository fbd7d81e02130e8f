package ckks

import (
	"testing"

	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
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

// TestEvaluatorWithEngineBitExact runs the HKS-triggering operations
// through serial and engine-backed evaluators sharing one key chain,
// asserting identical ciphertexts for every dataflow.
func TestEvaluatorWithEngineBitExact(t *testing.T) {
	ctx, err := NewContext(32, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	kc, pk := GenKeys(ctx, 1)
	serial := NewEvaluator(ctx, kc)
	e := engine.New(4)
	defer e.Close()

	enc := NewEncoder(ctx)
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(float64(i)*0.25, -float64(i)*0.125)
	}
	pt, err := enc.Encode(vals, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	ct1 := serial.Encrypt(pt, pk)
	ct2 := serial.Encrypt(pt, pk)

	// Pre-generate every lazily materialized key so evaluation order
	// cannot perturb the sampler stream between evaluators.
	if _, err := kc.RelinKey(ctx.MaxLevel); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.HoistKey(1, ctx.MaxLevel); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.ConjKey(ctx.MaxLevel); err != nil {
		t.Fatal(err)
	}

	wantMul, err := serial.MulRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := serial.Rescale(wantMul)
	if err != nil {
		t.Fatal(err)
	}
	wantRot, err := serial.Rotate(ct1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantConj, err := serial.Conjugate(ct1)
	if err != nil {
		t.Fatal(err)
	}

	for _, df := range []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC} {
		t.Run(df.String(), func(t *testing.T) {
			ev := serial.WithEngine(e, df)
			gotMul, err := ev.MulRelin(ct1, ct2)
			if err != nil {
				t.Fatal(err)
			}
			ctEqual(t, "MulRelin", gotMul, wantMul)

			gotRes, err := ev.Rescale(gotMul)
			if err != nil {
				t.Fatal(err)
			}
			ctEqual(t, "Rescale", gotRes, wantRes)

			gotRot, err := ev.Rotate(ct1, 1)
			if err != nil {
				t.Fatal(err)
			}
			ctEqual(t, "Rotate", gotRot, wantRot)

			gotConj, err := ev.Conjugate(ct1)
			if err != nil {
				t.Fatal(err)
			}
			ctEqual(t, "Conjugate", gotConj, wantConj)
		})
	}
}

// TestEvaluatorWithEngineDecrypts sanity-checks precision end to end
// through the engine path: encrypt, square, rescale, decrypt.
func TestEvaluatorWithEngineDecrypts(t *testing.T) {
	ctx, err := NewContext(32, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	kc, pk := GenKeys(ctx, 2)
	e := engine.New(4)
	defer e.Close()
	ev := NewEvaluator(ctx, kc).WithEngine(e, dataflow.OC)

	enc := NewEncoder(ctx)
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(0.5+float64(i%4)*0.1, 0)
	}
	pt, err := enc.Encode(vals, ctx.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pt, pk)
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(ev.Decrypt(sq, kc.Secret()))
	for i := range vals {
		want := vals[i] * vals[i]
		if d := got[i] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-4 {
			t.Fatalf("slot %d: got %v, want %v", i, got[i], want)
		}
	}
}
