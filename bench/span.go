package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the stack. Parent is the span that caused it (0 for a client
// operation); Req is shared by every span of one key-switch request
// (0 for spans that cover a whole operation). Times are nanoseconds
// from the start of the traced window.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names: one client operation, one request from submit to result,
// and one call into cluster.TenantView (encode and socket write).
const (
	spanOp      = "op"
	spanRequest = "request"
	spanSubmit  = "cluster.submit"
)

// spanLog holds a traced window's spans in memory until the run ends.
// A nil *spanLog is the untraced state: every method is a no-op, so
// workloads record unconditionally.
type spanLog struct {
	t0   time.Time
	ids  atomic.Uint64
	reqs atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span id, so a parent can hand its id to children
// that finish before it does.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

// newReq reserves n consecutive request ids and returns the first.
func (l *spanLog) newReq(n int) uint64 {
	if l == nil {
		return 0
	}
	return l.reqs.Add(uint64(n)) - uint64(n) + 1
}

// put records a finished span under a reserved id.
func (l *spanLog) put(id, parent, req uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// add records a finished span under a fresh id.
func (l *spanLog) add(parent, req uint64, name string, start, end time.Time) {
	l.put(l.newID(), parent, req, name, start, end)
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its children cover. Children may nest further
// (only direct children count) and may overlap one another (their
// union counts once); a child reaching outside its parent is clipped.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums duration and self time over the spans named name.
func spanTotals(spans []span, name string) (dur, self int64, n int) {
	st := selfTimes(spans)
	for _, s := range spans {
		if s.Name == name {
			dur += s.End - s.Start
			self += st[s.ID]
			n++
		}
	}
	return dur, self, n
}

// spanFile is what a traced run leaves under bench/out/.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	WindowNs int64  `json:"window_ns"`
	Spans    []span `json:"spans"`
}

func writeSpanFile(path string, f spanFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
