// Private inference: an encrypted fully-connected layer, the workload
// the paper's introduction motivates. Computing y = W·x on an
// encrypted x uses the rotate-and-accumulate ("diagonal") method
// (ckks.LinearTransform), so every matrix diagonal costs one ciphertext
// rotation — and every rotation triggers hybrid key switching. The
// example rotates once per diagonal, each rotation its own key switch,
// to measure the fraction of the layer's wall time spent in key
// switching (the paper cites ~70% for ResNet-20), then evaluates the
// layer the way Evaluator.Apply does — *hoisted*, one shared
// Decompose+ModUp feeding every rotation key — and compares wall time
// with the model's predicted saving. Finally it asks the performance
// model what the rotation workload costs on the RPU under each dataflow.
//
// Run with: go run ./examples/private_inference
package main

import (
	"fmt"
	"log"
	"math/cmplx"
	"time"

	"ciflow/internal/analysis"
	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

func main() {
	ctx, err := ckks.NewContext(1<<11, 5, 40, 3, 41, 2)
	if err != nil {
		log.Fatal(err)
	}
	enc := ckks.NewEncoder(ctx)
	keys, pk := ckks.GenKeys(ctx, 7)
	ev := ckks.NewEvaluator(ctx, keys)

	// A small d x d layer in diagonal form:
	// y = sum_r diag_r(W) * rot(x, r).
	const d = 8
	W := make([][]float64, d)
	for i := range W {
		W[i] = make([]float64, d)
		for j := range W[i] {
			W[i][j] = 0.01*float64(i+1) + 0.02*float64(j)
		}
	}
	layer, err := enc.NewLinearTransform(W, ctx.MaxLevel)
	if err != nil {
		log.Fatal(err)
	}
	rots := layer.Rotations()
	x := make([]complex128, ctx.Slots()) // replicated with period d so rotations wrap
	for i := range x {
		x[i] = complex(0.1*float64(i%d)-0.3, 0)
	}
	px, err := enc.Encode(x, ctx.MaxLevel)
	if err != nil {
		log.Fatal(err)
	}
	cx := ev.Encrypt(px, pk)
	for _, r := range rots { // generate the rotation keys off the clock
		if _, err := keys.HoistKey(r, ctx.MaxLevel); err != nil {
			log.Fatal(err)
		}
	}

	// One rotation per diagonal, each a full hybrid key switch.
	start := time.Now()
	for _, r := range rots {
		if _, err := ev.Rotate(cx, r); err != nil {
			log.Fatal(err)
		}
	}
	perRotation := time.Since(start)

	// The same rotations hoisted: ct.C1 is decomposed and mod-upped
	// once, every rotation key replays only ApplyKey+ModDown. Bit for
	// bit the ciphertexts of the loop above.
	start = time.Now()
	if _, err := ev.RotateHoisted(cx, rots); err != nil {
		log.Fatal(err)
	}
	hoisted := time.Since(start)

	// The layer: Apply rotates hoisted, multiplies by the diagonals,
	// accumulates and rescales. What it spends outside its rotations
	// is what the per-rotation method spends there too.
	start = time.Now()
	y, err := ev.Apply(layer, cx)
	if err != nil {
		log.Fatal(err)
	}
	layerTime := time.Since(start)
	perRotationLayer := perRotation + max(layerTime-hoisted, 0)

	var worst float64
	dec := enc.Decode(ev.Decrypt(y, keys.Secret()))
	for i := range W {
		var want complex128
		for j := range W[i] {
			want += complex(W[i][j], 0) * x[j]
		}
		worst = max(worst, cmplx.Abs(dec[i]-want))
	}
	sw, err := keys.Switcher(ctx.MaxLevel)
	if err != nil {
		log.Fatal(err)
	}
	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1e3 }
	fmt.Printf("Encrypted %dx%d linear layer (diagonal method, %d rotations)\n", d, d, len(rots))
	fmt.Printf("  worst-case output error:   %.2e\n", worst)
	fmt.Printf("  rotation/key-switch share: %.0f%% of %.1f ms wall time, one key switch per rotation\n",
		100*float64(perRotation)/float64(perRotationLayer), ms(perRotationLayer))
	fmt.Printf("  (the paper reports ~70%% of ResNet-20 inference is key switching)\n\n")
	fmt.Printf("Hoisted evaluation (Evaluator.Apply: one ModUp shared across %d rotations)\n", len(rots))
	fmt.Printf("  wall time:                 %.1f ms vs %.1f ms per-rotation (%.2fx)\n",
		ms(layerTime), ms(perRotationLayer), float64(perRotationLayer)/float64(layerTime))
	fmt.Printf("  model: saves %.1f M weighted mod ops, %.2fx predicted speedup on key switching\n\n",
		float64(sw.HoistedOpsSaved(len(rots)))/1e6, sw.HoistedSpeedupModel(len(rots)))

	// What would the rotation workload cost on the RPU? One HKS per
	// rotation at ARK-scale parameters, per dataflow, at DDR4/DDR5
	// bandwidths.
	r := analysis.NewRunner()
	rotations := 3306 // paper §I: one ResNet-20 inference
	fmt.Printf("RPU model: %d rotations (ResNet-20) at ARK parameters, evk streamed, 32MB on-chip\n", rotations)
	fmt.Printf("%10s %12s %12s %12s\n", "BW GB/s", "MP total s", "DC total s", "OC total s")
	for _, bw := range []float64{12.8, 25.6, 64} {
		var t [3]float64
		for i, df := range dataflow.AllDataflows() {
			ms, err := r.RuntimeMS(df, params.ARK, false, bw, 1)
			if err != nil {
				log.Fatal(err)
			}
			t[i] = ms * float64(rotations) / 1e3
		}
		fmt.Printf("%10.1f %12.1f %12.1f %12.1f\n", bw, t[0], t[1], t[2])
	}
}
