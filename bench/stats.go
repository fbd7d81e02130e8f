package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it, so one slow operation
// cannot be the whole number. p90 therefore needs 100 samples, p99
// 1000. The median is exempt — it is the centre, not a tail.
const minBeyond = 10

// median returns the middle of xs (mean of the two middle values for
// an even count) without reordering the caller's slice; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// xs, and ok = false when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	// The epsilon keeps 100 samples × (1 − 0.9) from reading 9.999….
	if n == 0 || float64(n)*(1-p)+1e-9 < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	return s[rank-1], true
}

// sample is one completed client operation inside a window.
type sample struct {
	end      time.Duration // completion time, from the window start
	lat      time.Duration
	switches int
}

// slicedRate cuts the window into slices equal parts, credits every
// operation's switches to the slice it completed in, and returns the
// median slice rate in switches per second. One stalled second (a
// noisy neighbour, a GC cycle) moves a slice, not the median.
func slicedRate(samples []sample, window time.Duration, slices int) float64 {
	if window <= 0 || slices < 1 {
		return 0
	}
	per := make([]float64, slices)
	for _, s := range samples {
		i := int(int64(s.end) * int64(slices) / int64(window))
		if i >= slices {
			i = slices - 1 // the operation that closes the window
		}
		per[i] += float64(s.switches)
	}
	sliceSec := window.Seconds() / float64(slices)
	for i := range per {
		per[i] /= sliceSec
	}
	return median(per)
}

// interleaved times every function once per round for reps rounds,
// after one untimed round, and returns the nanoseconds per function
// per round: out[i][k] is fns[i] in round k.
func interleaved(reps int, fns ...func()) [][]float64 {
	out := make([][]float64, len(fns))
	for i, f := range fns {
		f()
		out[i] = make([]float64, reps)
	}
	for k := 0; k < reps; k++ {
		for i, f := range fns {
			t0 := time.Now()
			f()
			out[i][k] = float64(time.Since(t0))
		}
	}
	return out
}

// medianTime is the median duration of reps timed calls of f, after
// one untimed call.
func medianTime(reps int, f func()) time.Duration {
	return time.Duration(median(interleaved(reps, f)[0]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
