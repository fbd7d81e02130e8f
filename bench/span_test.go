package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanRequest, Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "inner", Start: 15, End: 20}, // a grandchild is its parent's business
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 70, 2: 25, 3: 5} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanRequest, Start: 30, End: 70},
		{ID: 3, Parent: 1, Name: spanRequest, Start: 10, End: 50},  // overlaps 2; out of order
		{ID: 4, Parent: 1, Name: spanRequest, Start: 35, End: 45},  // inside both
		{ID: 5, Parent: 1, Name: spanRequest, Start: 90, End: 130}, // runs past the parent
	}
	self := selfTimes(spans)
	// Covered: [10,70] and [90,100] = 70 of 100.
	if self[1] != 30 {
		t.Errorf("parent self time %d, want 30", self[1])
	}
	dur, selfSum, n := spanTotals(spans, spanOp)
	if dur != 100 || selfSum != 30 || n != 1 {
		t.Errorf("spanTotals(op) = %d, %d, %d; want 100, 30, 1", dur, selfSum, n)
	}
}

// A nil log is the untraced state: recording is a no-op, so workloads
// never branch on whether tracing is on.
func TestNilSpanLog(t *testing.T) {
	var l *spanLog
	if id := l.newID(); id != 0 {
		t.Errorf("nil log handed out id %d", id)
	}
	if req := l.newReq(8); req != 0 {
		t.Errorf("nil log handed out request id %d", req)
	}
	l.add(0, 0, spanOp, time.Now(), time.Now())
}

func TestSpanLogAndFile(t *testing.T) {
	l := newSpanLog()
	op := l.newID()
	req0 := l.newReq(3)
	if req1 := l.newReq(2); req0 != 1 || req1 != 4 {
		t.Fatalf("request ids %d then %d, want 1 then 4", req0, req1)
	}
	t0 := time.Now()
	l.add(op, req0, spanRequest, t0, t0.Add(time.Millisecond))
	l.put(op, 0, 0, spanOp, t0, t0.Add(2*time.Millisecond))
	spans := l.snapshot()
	if len(spans) != 2 || spans[0].Parent != op || spans[1].ID != op {
		t.Fatalf("unexpected spans %+v", spans)
	}

	path := filepath.Join(t.TempDir(), "out", "spans.json")
	if err := writeSpanFile(path, spanFile{Workload: "w", Seed: 3, Workers: 2, Spans: spans}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back spanFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "w" || len(back.Spans) != 2 || back.Spans[0] != spans[0] {
		t.Errorf("span file did not round-trip: %+v", back)
	}
}
