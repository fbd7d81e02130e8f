package obs

import (
	"sort"
	"time"
)

// HistogramSnapshot is one stage or kernel histogram drained to plain
// counts. Buckets holds the log-bucket counts with trailing zero
// buckets trimmed; bucket i counts durations whose nanosecond value has
// bit length i.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	SumNs   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"`
}

// Snapshot is a point-in-time drain of a Recorder: only entries with
// a nonzero count appear, in stage (kernel) order, so equal profiles
// serialize identically. Snapshots are plain data — safe to hold,
// merge, and ship over the wire (the cluster stats frame carries one
// per shard as JSON).
type Snapshot struct {
	Stages  []HistogramSnapshot `json:"stages,omitempty"`
	Kernels []HistogramSnapshot `json:"kernels,omitempty"`
}

func drainHistogram(h *Histogram, name string) (HistogramSnapshot, bool) {
	count := h.count.Load()
	if count == 0 {
		return HistogramSnapshot{}, false
	}
	hs := HistogramSnapshot{Name: name, Count: count, SumNs: h.sumNs.Load()}
	last := -1
	var buckets [numBuckets]uint64
	for i := range buckets {
		if v := h.buckets[i].Load(); v != 0 {
			buckets[i] = v
			last = i
		}
	}
	hs.Buckets = append([]uint64(nil), buckets[:last+1]...)
	return hs, true
}

// Snapshot drains the recorder into plain counts. Safe on a nil
// receiver, which yields a nil snapshot. Recording may continue
// concurrently; the snapshot is a consistent-enough point-in-time
// view for reporting (each counter is read once, atomically).
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	snap := &Snapshot{}
	for st := Stage(0); st < numStages; st++ {
		if hs, ok := drainHistogram(&r.stages[st], st.String()); ok {
			snap.Stages = append(snap.Stages, hs)
		}
	}
	for k := Kernel(0); k < numKernels; k++ {
		if hs, ok := drainHistogram(&r.kernels[k], k.String()); ok {
			snap.Kernels = append(snap.Kernels, hs)
		}
	}
	return snap
}

// rank orders snapshot entries deterministically: known stage/kernel
// names in enum order, then unknown names alphabetically after them.
func rankOf(name string, names []string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return len(names)
}

func stageRank(name string) int  { return rankOf(name, stageNames[:]) }
func kernelRank(name string) int { return rankOf(name, kernelNames[:]) }

// mergeHistograms sums the histograms of srcs by name into dst, in
// rank order.
func mergeHistograms(dst []HistogramSnapshot, rank func(string) int, srcs ...[]HistogramSnapshot) []HistogramSnapshot {
	m := map[string]*HistogramSnapshot{}
	for _, src := range srcs {
		for i := range src {
			hs := &src[i]
			e := m[hs.Name]
			if e == nil {
				e = &HistogramSnapshot{Name: hs.Name}
				m[hs.Name] = e
			}
			e.Count += hs.Count
			e.SumNs += hs.SumNs
			if len(hs.Buckets) > len(e.Buckets) {
				e.Buckets = append(e.Buckets, make([]uint64, len(hs.Buckets)-len(e.Buckets))...)
			}
			for b, v := range hs.Buckets {
				e.Buckets[b] += v
			}
		}
	}
	for _, e := range m {
		dst = append(dst, *e)
	}
	sort.Slice(dst, func(a, b int) bool {
		ra, rb := rank(dst[a].Name), rank(dst[b].Name)
		if ra != rb {
			return ra < rb
		}
		return dst[a].Name < dst[b].Name
	})
	return dst
}

// Merge sums snapshots into one: histogram bucket counts and totals
// add exactly, so merging per-shard snapshots loses nothing — the
// fabric-wide bucket counts equal the sum of the shards', which is the
// invariant the cluster report verifies. Nil snapshots are skipped;
// merging zero non-nil snapshots returns nil.
func Merge(snaps ...*Snapshot) *Snapshot {
	var stages, kernels [][]HistogramSnapshot
	any := false
	for _, s := range snaps {
		if s == nil {
			continue
		}
		any = true
		stages = append(stages, s.Stages)
		kernels = append(kernels, s.Kernels)
	}
	if !any {
		return nil
	}
	return &Snapshot{
		Stages:  mergeHistograms(nil, stageRank, stages...),
		Kernels: mergeHistograms(nil, kernelRank, kernels...),
	}
}

// StageShare is one stage's slice of a measured wall-clock interval.
type StageShare struct {
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count"`
	Seconds float64 `json:"seconds"`
	// Share is Seconds over the wall time handed to Shares. At one
	// worker the stages execute back to back, so the shares sum to
	// ~1 minus the unprofiled remainder (orchestration); with w
	// workers the sum approaches w.
	Share float64 `json:"share"`
}

// Shares reduces a snapshot to per-stage totals against a measured
// wall time. Only the stage histograms contribute — the kernel tiles
// execute *inside* stage timings, so summing them would double-count.
// Stages with zero count are omitted; a nil snapshot or non-positive
// wall yields nil.
func Shares(s *Snapshot, wallSec float64) []StageShare {
	if s == nil || wallSec <= 0 || len(s.Stages) == 0 {
		return nil
	}
	// Merge keys by name, so a snapshot that lists a stage twice (one
	// decoded from a peer's frame) yields one share for it.
	var out []StageShare
	for _, hs := range Merge(s).Stages {
		secs := time.Duration(hs.SumNs).Seconds()
		out = append(out, StageShare{Stage: hs.Name, Count: hs.Count, Seconds: secs, Share: secs / wallSec})
	}
	return out
}

// SumShares returns the total fraction of wall time the stage shares
// account for: 1.0 on one goroutine running stages back to back
// (bench's obs.stage_share_sum), up to the goroutine count otherwise.
func SumShares(shares []StageShare) float64 {
	var sum float64
	for _, s := range shares {
		sum += s.Share
	}
	return sum
}
