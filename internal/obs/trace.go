package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded interval on a named track. Times are
// nanosecond offsets from the tracer's creation, taken from the
// monotonic clock, so spans recorded by different goroutines share
// one timeline.
type Span struct {
	Name    string
	Track   string
	StartNs int64
	DurNs   int64
}

// maxSpans bounds the tracer's buffer; beyond it spans are counted as
// dropped instead of recorded, so a long run cannot grow without
// bound. 1<<20 spans cover several seconds of bench-scale tracing.
const maxSpans = 1 << 20

// Tracer collects spans for a Chrome trace-event export: Span for
// internal/hks's engine tasks, SpanTrack for higher layers (serve
// groups, request phases) on their own tracks. Recording is mutex-guarded — the
// tracer is meant for explicitly requested -trace runs, not the
// always-on profiling path.
type Tracer struct {
	base    time.Time
	mu      sync.Mutex
	spans   []Span
	dropped atomic.Uint64
}

// NewTracer returns a tracer whose timeline starts now.
func NewTracer() *Tracer {
	return &Tracer{base: time.Now()}
}

// Span records an interval on the "worker" track. Safe on a nil
// receiver.
func (t *Tracer) Span(name string, start, end time.Time) {
	t.SpanTrack("worker", name, start, end)
}

// SpanTrack records an interval on an arbitrary track. Safe on a nil
// receiver and from concurrent goroutines.
func (t *Tracer) SpanTrack(track, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := Span{
		Name:    name,
		Track:   track,
		StartNs: start.Sub(t.base).Nanoseconds(),
		DurNs:   end.Sub(start).Nanoseconds(),
	}
	if s.DurNs < 0 {
		s.DurNs = 0
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.dropped.Add(1)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many spans were discarded after the buffer
// filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// traceEvent is one Chrome trace-event (catapult) record. "X" events
// are complete spans; "M" events carry thread-name metadata.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// lane is one packed timeline row: spans assigned to it never
// overlap.
type lane struct {
	track string
	endNs int64 // end of the last span assigned
}

// PackLanes assigns spans to non-overlapping lanes per track with a
// greedy interval scan: spans sort by start time, and each goes to
// the first lane of its track whose previous span has already ended.
// The result maps each span (in sorted order) to a lane index; lanes
// are numbered contiguously across tracks in first-use order. The
// packing guarantees by construction that within a lane spans are
// start-ordered and non-overlapping — the invariant CheckTrace checks.
func PackLanes(spans []Span) (sorted []Span, laneOf []int, lanes []string) {
	sorted = append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].StartNs != sorted[b].StartNs {
			return sorted[a].StartNs < sorted[b].StartNs
		}
		return sorted[a].DurNs > sorted[b].DurNs
	})
	laneOf = make([]int, len(sorted))
	var open []lane
	trackCount := map[string]int{}
	for i := range sorted {
		s := &sorted[i]
		assigned := -1
		for li := range open {
			if open[li].track == s.Track && open[li].endNs <= s.StartNs {
				assigned = li
				break
			}
		}
		if assigned < 0 {
			n := trackCount[s.Track]
			trackCount[s.Track] = n + 1
			open = append(open, lane{track: s.Track})
			lanes = append(lanes, fmt.Sprintf("%s-%d", s.Track, n))
			assigned = len(open) - 1
		}
		open[assigned].endNs = s.StartNs + s.DurNs
		laneOf[i] = assigned
	}
	return sorted, laneOf, lanes
}

// WriteTrace drains the tracer into Chrome trace-event JSON: one
// process, one thread per packed lane (engine worker tiles land on
// worker-N lanes, serve groups on their own tracks), "X" complete
// events with microsecond timestamps. The output loads directly in
// chrome://tracing and Perfetto.
func (t *Tracer) WriteTrace(w io.Writer) error {
	sorted, laneOf, lanes := PackLanes(t.Spans())
	events := make([]traceEvent, 0, len(sorted)+len(lanes))
	for i, name := range lanes {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i,
			Args: map[string]any{"name": name},
		})
	}
	for i := range sorted {
		s := &sorted[i]
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.StartNs) / 1e3,
			Dur: float64(s.DurNs) / 1e3,
			Pid: 1, Tid: laneOf[i],
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{events})
}

// CheckTrace re-reads a timeline WriteTrace wrote and checks what
// PackLanes promises: at least one complete ("X") event, and within
// every (pid, tid) lane spans of non-negative duration that start in
// order and never overlap. It returns the span and lane counts.
//
// The comparison is in the integer nanoseconds the spans were recorded
// in, recovered from the microsecond fields by rounding: in float
// microseconds a span's start plus its duration can exceed the start of
// the span that begins at its end by one ulp (a/1e3 + b/1e3 against
// (a+b)/1e3), while a real overlap is at least 1 ns.
func CheckTrace(r io.Reader) (spans, lanes int, err error) {
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&tf); err != nil {
		return 0, 0, err
	}
	type laneEnd struct {
		name  string
		endNs int64
	}
	last := map[[2]int]laneEnd{} // each lane's previous span
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur < 0 {
			return 0, 0, fmt.Errorf("span %q has negative duration %f", ev.Name, ev.Dur)
		}
		k := [2]int{ev.Pid, ev.Tid}
		startNs := int64(math.Round(ev.Ts * 1e3))
		if prev, ok := last[k]; ok && startNs < prev.endNs {
			return 0, 0, fmt.Errorf("lane %d/%d: span %q at %d ns overlaps %q ending at %d ns",
				ev.Pid, ev.Tid, ev.Name, startNs, prev.name, prev.endNs)
		}
		last[k] = laneEnd{ev.Name, startNs + int64(math.Round(ev.Dur*1e3))}
		spans++
	}
	if spans == 0 {
		return 0, 0, fmt.Errorf("no complete (ph=X) events")
	}
	return spans, len(last), nil
}

// activeTracer is the process-wide tracer; nil means tracing is off.
var activeTracer atomic.Pointer[Tracer]

// EnableTracer installs a fresh process-wide tracer and returns it.
func EnableTracer() *Tracer {
	t := NewTracer()
	activeTracer.Store(t)
	return t
}

// DisableTracer turns tracing off; ActiveTracer returns nil
// afterwards.
func DisableTracer() { activeTracer.Store(nil) }

// ActiveTracer returns the process-wide tracer, or nil when tracing
// is disabled. A nil *Tracer is safe to record on (no-op).
func ActiveTracer() *Tracer { return activeTracer.Load() }
