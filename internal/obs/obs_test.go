package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecording hammers one recorder from many goroutines
// (run under -race in CI) and checks no count is lost: the atomics
// must sum exactly.
func TestConcurrentRecording(t *testing.T) {
	r := &Recorder{}
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				st := Stage(rng.Intn(int(numStages)))
				r.Stage(st, time.Duration(rng.Intn(1<<20)))
				r.Kernel(Kernel(rng.Intn(int(numKernels))), time.Duration(rng.Intn(1<<16)))
			}
		}(int64(g))
	}
	wg.Wait()

	snap := r.Snapshot()
	var stageCount, kernelCount uint64
	for _, hs := range snap.Stages {
		stageCount += hs.Count
		var b uint64
		for _, v := range hs.Buckets {
			b += v
		}
		if b != hs.Count {
			t.Fatalf("%s: bucket sum %d != count %d", hs.Name, b, hs.Count)
		}
	}
	for _, hs := range snap.Kernels {
		kernelCount += hs.Count
	}
	want := uint64(goroutines * perG)
	if stageCount != want || kernelCount != want {
		t.Fatalf("counts (stages %d, kernels %d), want %d each", stageCount, kernelCount, want)
	}
}

// TestMergeExact is the histogram-merge property test: splitting a
// stream of observations across k recorders and merging their
// snapshots must reproduce the single-recorder snapshot exactly —
// same entries, same counts, same buckets, byte-identical JSON.
func TestMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	whole := &Recorder{}
	parts := []*Recorder{{}, {}, {}}
	for i := 0; i < 5000; i++ {
		st := Stage(rng.Intn(int(numStages)))
		d := time.Duration(rng.Int63n(1 << uint(rng.Intn(40))))
		whole.Stage(st, d)
		parts[rng.Intn(len(parts))].Stage(st, d)
		k := Kernel(rng.Intn(int(numKernels)))
		whole.Kernel(k, d)
		parts[rng.Intn(len(parts))].Kernel(k, d)
	}
	var snaps []*Snapshot
	for _, p := range parts {
		snaps = append(snaps, p.Snapshot())
	}
	merged := Merge(snaps...)
	want, err := json.Marshal(whole.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("merged snapshot differs from whole:\nwant %s\ngot  %s", want, got)
	}
}

func TestMergeNil(t *testing.T) {
	if Merge(nil, nil) != nil {
		t.Fatal("merge of nil snapshots must be nil")
	}
	r := &Recorder{}
	r.Stage(StageModUp, time.Millisecond)
	snap := r.Snapshot()
	m := Merge(nil, snap, nil)
	if m == nil || len(m.Stages) != 1 || m.Stages[0].Count != 1 {
		t.Fatalf("merge with nils lost data: %+v", m)
	}
}

// TestZeroAlloc pins the hot path: recording on an enabled recorder
// and on the disabled nil recorder must both allocate nothing.
func TestZeroAlloc(t *testing.T) {
	r := &Recorder{}
	if n := testing.AllocsPerRun(1000, func() {
		r.Stage(StageModUp, 123*time.Microsecond)
		r.Kernel(KernelNTT, 45*time.Microsecond)
	}); n != 0 {
		t.Fatalf("enabled hot path allocates %.1f times per record", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilRec.Stage(StageModUp, 123*time.Microsecond)
		nilRec.Kernel(KernelNTT, 45*time.Microsecond)
	}); n != 0 {
		t.Fatalf("disabled nil path allocates %.1f times per record", n)
	}
}

func TestSnapshotNilAndClamps(t *testing.T) {
	var r *Recorder
	if r.Snapshot() != nil {
		t.Fatal("nil recorder must snapshot to nil")
	}
	r.Stage(StageModUp, time.Second) // no-op, no panic

	rec := &Recorder{}
	rec.Stage(StageApply, -time.Second) // clamped to 0
	rec.Stage(StageApply, time.Second)
	rec.Stage(Stage(200), time.Second) // no such stage: dropped
	snap := rec.Snapshot()
	if len(snap.Stages) != 1 || snap.Stages[0].Count != 2 || snap.Stages[0].SumNs != uint64(time.Second) || snap.Stages[0].Buckets[0] != 1 {
		t.Fatalf("clamped records lost: %+v", snap.Stages)
	}
}

func TestShares(t *testing.T) {
	r := &Recorder{}
	r.Stage(StageModUp, 600*time.Millisecond)
	r.Stage(StageModUp, 100*time.Millisecond)
	r.Stage(StageApply, 300*time.Millisecond)
	r.Kernel(KernelNTT, 500*time.Millisecond) // nested: must not count
	shares := Shares(r.Snapshot(), 1.0)
	if len(shares) != 2 {
		t.Fatalf("got %d shares, want 2: %+v", len(shares), shares)
	}
	if shares[0].Stage != "mod_up" || shares[1].Stage != "apply" {
		t.Fatalf("share order wrong: %+v", shares)
	}
	if s := SumShares(shares); s < 0.999 || s > 1.001 {
		t.Fatalf("shares sum %.4f, want 1.0", s)
	}
	if Shares(nil, 1.0) != nil || Shares(r.Snapshot(), 0) != nil {
		t.Fatal("nil snapshot or zero wall must yield nil shares")
	}

	// A snapshot that lists a stage twice, as one decoded from a peer
	// that split its profile further may, gets one share per stage.
	twice := &Snapshot{Stages: []HistogramSnapshot{
		{Name: "apply", Count: 1, SumNs: 2e8}, {Name: "mod_up", Count: 2, SumNs: 5e8}, {Name: "apply", Count: 3, SumNs: 3e8},
	}}
	got := Shares(twice, 1.0)
	if len(got) != 2 || got[0].Stage != "mod_up" || got[1].Stage != "apply" || got[1].Count != 4 || got[1].Share < 0.499 || got[1].Share > 0.501 {
		t.Fatalf("shares of a snapshot listing apply twice: %+v", got)
	}
}

func TestEnableActive(t *testing.T) {
	defer Disable()
	Disable()
	if Active() != nil {
		t.Fatal("Active after Disable")
	}
	r := Enable()
	if Active() != r {
		t.Fatal("Active does not return the enabled recorder")
	}
	r.Stage(StageModUp, time.Millisecond)
	r2 := Enable()
	if r2 == r {
		t.Fatal("Enable must return a fresh recorder")
	}
	if snap := r2.Snapshot(); len(snap.Stages) != 0 {
		t.Fatal("re-Enable must reset counts")
	}
}

// TestPackLanesNonOverlap checks the export-time invariant
// CheckTrace holds a written timeline to: within each packed lane, spans are
// start-ordered and never overlap, and every span keeps its track.
func TestPackLanesNonOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var spans []Span
	tracks := []string{"worker", "serve"}
	for i := 0; i < 500; i++ {
		start := rng.Int63n(1 << 20)
		spans = append(spans, Span{
			Name:    "s",
			Track:   tracks[rng.Intn(len(tracks))],
			StartNs: start,
			DurNs:   rng.Int63n(1 << 12),
		})
	}
	sorted, laneOf, lanes := PackLanes(spans)
	if len(sorted) != len(spans) {
		t.Fatalf("packing lost spans: %d != %d", len(sorted), len(spans))
	}
	lastEnd := make([]int64, len(lanes))
	laneTrack := make([]string, len(lanes))
	for i := range sorted {
		li := laneOf[i]
		s := &sorted[i]
		if laneTrack[li] == "" {
			laneTrack[li] = s.Track
		} else if laneTrack[li] != s.Track {
			t.Fatalf("lane %d mixes tracks %q and %q", li, laneTrack[li], s.Track)
		}
		if s.StartNs < lastEnd[li] {
			t.Fatalf("lane %d overlap: span starts at %d before previous end %d",
				li, s.StartNs, lastEnd[li])
		}
		lastEnd[li] = s.StartNs + s.DurNs
	}
}

func TestWriteTrace(t *testing.T) {
	tr := NewTracer()
	base := tr.base
	tr.Span("ntt", base, base.Add(time.Millisecond))
	tr.Span("bconv", base.Add(500*time.Microsecond), base.Add(2*time.Millisecond))
	tr.SpanTrack("serve", "group", base, base.Add(3*time.Millisecond))
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var meta, spans int
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			spans++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	// The two overlapping worker spans must land on separate lanes,
	// the serve span on its own track lane: 3 lanes, 3 spans.
	if meta != 3 || spans != 3 {
		t.Fatalf("got %d lanes and %d spans, want 3 and 3", meta, spans)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans unexpectedly", tr.Dropped())
	}
}

// TestCheckTrace: what WriteTrace writes passes, and a timeline with a
// lane out of order, overlapping spans or no complete span does not.
func TestCheckTrace(t *testing.T) {
	tr := NewTracer()
	base := tr.base
	tr.Span("ntt", base, base.Add(time.Millisecond))
	tr.Span("bconv", base.Add(500*time.Microsecond), base.Add(2*time.Millisecond))
	tr.Span("apply", base.Add(2*time.Millisecond), base.Add(3*time.Millisecond))
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if spans, lanes, err := CheckTrace(&buf); err != nil || spans != 3 || lanes != 2 {
		t.Fatalf("written trace: %d spans over %d lanes, %v; want 3 over 2", spans, lanes, err)
	}
	for name, body := range map[string]string{
		"overlap":      `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":5,"pid":1,"tid":0},{"name":"b","ph":"X","ts":4,"dur":1,"pid":1,"tid":0}]}`,
		"out of order": `{"traceEvents":[{"name":"a","ph":"X","ts":9,"dur":1,"pid":1,"tid":0},{"name":"b","ph":"X","ts":2,"dur":1,"pid":1,"tid":0}]}`,
		"negative":     `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-1,"pid":1,"tid":0}]}`,
		"no spans":     `{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0}]}`,
		"not json":     `{`,
	} {
		if _, _, err := CheckTrace(strings.NewReader(body)); err == nil {
			t.Errorf("%s: trace accepted", name)
		}
	}
}

// TestCheckTraceBackToBack: a span that starts where the previous one
// on its lane ends is not an overlap, even where the float microsecond
// fields say otherwise — 4,170,000,007 ns + 50,001 ns is one ulp past
// 4,170,050,008 ns in float microseconds — while a 1 ns overlap still
// fails.
func TestCheckTraceBackToBack(t *testing.T) {
	const startNs, durNs = 4_170_000_007, 50_001
	if a, b := float64(startNs)/1e3+float64(durNs)/1e3, float64(startNs+durNs)/1e3; a <= b {
		t.Fatalf("the pair no longer shows the float error (%v <= %v)", a, b)
	}
	tr := NewTracer()
	at := func(ns int64) time.Time { return tr.base.Add(time.Duration(ns)) }
	tr.Span("a", at(startNs), at(startNs+durNs))
	tr.Span("b", at(startNs+durNs), at(startNs+2*durNs))
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if spans, lanes, err := CheckTrace(&buf); err != nil || spans != 2 || lanes != 1 {
		t.Fatalf("back-to-back spans: %d spans over %d lanes, %v; want 2 over 1", spans, lanes, err)
	}
	overlap, err := json.Marshal(map[string][]traceEvent{"traceEvents": {
		{Name: "a", Ph: "X", Ts: float64(startNs) / 1e3, Dur: float64(durNs) / 1e3, Pid: 1},
		{Name: "b", Ph: "X", Ts: float64(startNs+durNs-1) / 1e3, Dur: 1, Pid: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckTrace(bytes.NewReader(overlap)); err == nil {
		t.Fatal("a 1 ns overlap was accepted")
	}
}

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Span("x", time.Now(), time.Now())
	tr.SpanTrack("t", "x", time.Now(), time.Now())
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}
