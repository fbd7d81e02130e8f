package ckks

import "testing"

func benchEval(b *testing.B) (*Context, *Encoder, *KeyChain, *PublicKey, *Evaluator, *Ciphertext) {
	b.Helper()
	ctx, err := NewContext(1<<12, 6, 40, 3, 41, 3)
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoder(ctx)
	kc, pk := GenKeys(ctx, 1)
	ev := NewEvaluator(ctx, kc)
	vals := make([]complex128, 16)
	for i := range vals {
		vals[i] = complex(0.01*float64(i), 0)
	}
	pt, err := enc.Encode(vals, ctx.MaxLevel)
	if err != nil {
		b.Fatal(err)
	}
	return ctx, enc, kc, pk, ev, ev.Encrypt(pt, pk)
}

func BenchmarkMulRelin(b *testing.B) {
	_, _, kc, _, ev, ct := benchEval(b)
	if _, err := kc.RelinKey(ct.Level); err != nil { // pre-generate
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MulRelin(ct, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRotate(b *testing.B) {
	_, _, kc, _, ev, ct := benchEval(b)
	if _, err := kc.HoistKey(1, ct.Level); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Rotate(ct, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRescale(b *testing.B) {
	_, _, _, _, ev, ct := benchEval(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Rescale(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncryptDecrypt(b *testing.B) {
	ctx, enc, kc, pk, ev, _ := benchEval(b)
	vals := make([]complex128, 16)
	pt, _ := enc.Encode(vals, ctx.MaxLevel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := ev.Encrypt(pt, pk)
		ev.Decrypt(ct, kc.Secret())
	}
}

// BenchmarkHoistKeyCompressed prices one new compressed rotation key
// at the benchmark's shape (N = 2^13, 6 × 40-bit Q and 3 × 41-bit P
// towers, top level, dnum 3): what a key-cache miss and each of
// serve_unshared's set-up keys pay. Each iteration asks for a
// rotation the chain has not generated.
func BenchmarkHoistKeyCompressed(b *testing.B) {
	ctx, err := NewContext(1<<13, 6, 40, 3, 41, 3)
	if err != nil {
		b.Fatal(err)
	}
	kc, _ := GenKeys(ctx, 1)
	rot := 0
	for b.Loop() {
		rot++
		if _, err := kc.HoistKeyCompressed(rot, ctx.MaxLevel); err != nil {
			b.Fatal(err)
		}
	}
}
