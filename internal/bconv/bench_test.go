package bconv

import (
	"testing"

	"ciflow/internal/ring"
)

// benchConvert times convert on a converter from src to dst over the
// benchmark shape (bench/: N = 2^13, 6×40-bit Q towers, 3×41-bit P
// towers, dnum 3) with a uniform input.
func benchConvert(b *testing.B, src, dst func(*ring.Ring) ring.Basis, convert func(c *Converter, in, out *ring.Poly)) {
	r, err := ring.NewRingGenerated(1<<13, 6, 40, 3, 41)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(r, src(r), dst(r))
	if err != nil {
		b.Fatal(err)
	}
	in, out := ring.NewSampler(r, 1).Uniform(c.src), r.NewPoly(c.Dst())
	for b.Loop() {
		convert(c, in, out)
	}
}

// BenchmarkConvertModUp is ModUp's conversion: one 2-tower digit to
// the other 7 towers of the extended basis.
func BenchmarkConvertModUp(b *testing.B) {
	benchConvert(b,
		func(r *ring.Ring) ring.Basis { return r.QBasis(1) },
		func(r *ring.Ring) ring.Basis { return r.DBasis(5)[2:] },
		(*Converter).Convert)
}

// BenchmarkConvertExactModDown is ModDown's conversion: the 3 P towers
// to the 6 Q towers, overshoot removed.
func BenchmarkConvertExactModDown(b *testing.B) {
	benchConvert(b, (*ring.Ring).PBasis,
		func(r *ring.Ring) ring.Basis { return r.QBasis(5) },
		(*Converter).ConvertExact)
}
