// Package obs is the runtime observability layer: low-overhead,
// mergeable measurement of where key-switching time actually goes.
//
// Every optimization in this repository so far (hoisting, request
// coalescing, seed compression) was justified by op-count models; the
// only runtime signal the stack emitted was end-to-end p50/p99. obs
// closes that gap with three primitives, all designed so that the
// disabled state costs one atomic pointer load and the enabled state
// allocates nothing on the hot path:
//
//   - Recorder: log-bucketed nanosecond histograms over the HKS
//     stages (ModUp, ApplyKey, Expand — the drawing of a compressed
//     key's A-rows — and ModDown) and the kernel tiles beneath them
//     (NTT, BConv), one histogram per primitive whichever dataflow
//     ran it. All state is fixed-size arrays of atomics — recording is wait-free and safe from every engine
//     worker at once, and a nil *Recorder is the disabled fast path
//     (every method nil-checks its receiver).
//   - Snapshot / Merge / Shares: a Recorder drains into a Snapshot of
//     plain counts with stable JSON. Histogram merge is exact —
//     bucket counts sum — which is what lets the cluster router add
//     per-shard snapshots into one fabric-wide profile with no loss,
//     and Shares turns a snapshot into the per-stage wall-time
//     fractions the `ciflow serve` report surfaces as stage_shares.
//   - Tracer: a bounded in-memory span buffer drained to a Chrome
//     trace-event (catapult) JSON timeline, loadable in
//     chrome://tracing or Perfetto. Spans are packed into
//     non-overlapping lanes at export time (trace.go), so the
//     recording side never needs to know which worker it runs on.
//
// The package deliberately has no dependencies beyond the standard
// library, so every layer above the engine (hks, serve, cluster, cmd)
// can import it without cycles. The engine itself does not import it:
// internal/hks records the spans and timings of the tasks it hands the
// engine, from the recorder and tracer it captures at each entry
// point.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of a hybrid key switch.
type Stage uint8

const (
	// StageModUp is the digit raise: per digit, INTT out of the
	// evaluation domain, exact base conversion into the extended
	// basis, NTT back. (Decompose before it is a zero-copy view of the
	// input's rows on every path and has no stage of its own.)
	StageModUp Stage = iota
	// StageApply is the evaluation-key inner product: per-tower
	// multiply-accumulate of every raised digit against the key.
	StageApply
	// StageExpand is the time an apply tile spends drawing a
	// compressed key's A-rows from their seeds, before the
	// multiply-accumulate StageApply times; a dense key records none.
	StageExpand
	// StageModDown is the scale back down to the ciphertext basis.
	StageModDown

	numStages
)

var stageNames = [numStages]string{
	StageModUp:   "mod_up",
	StageApply:   "apply",
	StageExpand:  "expand",
	StageModDown: "mod_down",
}

// String returns the stable snake_case name used in JSON reports.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Kernel identifies one compute kernel tile under the stages.
type Kernel uint8

const (
	// KernelNTT covers forward and inverse number-theoretic
	// transforms of one tower, with what rides inside them: the
	// inverse's copy-in and BConv's ŷ scale, the forward's
	// subtract-and-scale by P⁻¹.
	KernelNTT Kernel = iota
	// KernelBConv covers exact base-conversion tiles (the paper's
	// BConv) after the ŷ scale: the conversion sums and ModDown's
	// overshoot.
	KernelBConv

	numKernels
)

var kernelNames = [numKernels]string{
	KernelNTT:   "ntt",
	KernelBConv: "bconv",
}

// String returns the stable name used in JSON reports.
func (k Kernel) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return "unknown"
}

// numBuckets is the histogram resolution: bucket i counts durations
// whose nanosecond value has bit length i (so bucket boundaries are
// powers of two), clamped into the last bucket above ~146 hours.
const numBuckets = 64

// Histogram is a log-bucketed nanosecond histogram. All fields are
// atomics: recording is wait-free and concurrent recorders never
// lose counts. The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sumNs   atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

func (h *Histogram) observe(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

// Recorder accumulates stage and kernel timings. All storage is
// fixed-size arrays of atomics, so recording from any number of
// goroutines is safe and allocation-free. A nil *Recorder is the
// disabled state: every method returns immediately, which lets call
// sites hold the pattern
//
//	rec := obs.Active()   // nil when profiling is off
//	...
//	if rec != nil { t0 = time.Now() }
//	work()
//	rec.Stage(obs.StageModUp, time.Since(t0))
//
// without branching on an enable flag at every site.
type Recorder struct {
	stages  [numStages]Histogram
	kernels [numKernels]Histogram
}

// Stage records one stage execution of duration d. Safe on a nil
// receiver (no-op) and from concurrent goroutines.
func (r *Recorder) Stage(st Stage, d time.Duration) {
	if r == nil || st >= numStages {
		return
	}
	r.stages[st].observe(d)
}

// Kernel records one kernel tile of duration d. Safe on a nil receiver
// (no-op) and from concurrent goroutines.
func (r *Recorder) Kernel(k Kernel, d time.Duration) {
	if r == nil || k >= numKernels {
		return
	}
	r.kernels[k].observe(d)
}

// active is the process-wide recorder; nil means profiling is off.
var active atomic.Pointer[Recorder]

// Enable installs a fresh process-wide Recorder and returns it.
// Calling Enable again discards the previous recorder's counts, so it
// doubles as a reset at the start of a timed section.
func Enable() *Recorder {
	r := &Recorder{}
	active.Store(r)
	return r
}

// Disable turns profiling off; Active returns nil afterwards.
func Disable() { active.Store(nil) }

// Active returns the process-wide recorder, or nil when profiling is
// disabled. The nil result is safe to use directly: recording methods
// on a nil *Recorder are no-ops.
func Active() *Recorder { return active.Load() }
