package workload

// Versioned JSON import/export for schedules. A schedule file is the
// exchange format between the generators and any external tooling:
// `ciflow schedule -export` writes one, `-workload file:<path>` (on
// `ciflow schedule` and `ciflow serve`) reads one, and the
// committed testdata/*.schedule.json goldens pin the canonical library
// scenarios byte for byte.
//
// The format is deliberately strict in both directions:
//
//   - Export is canonical: two-space indented, fields in declaration
//     order, newline-terminated. Exporting the same schedule twice —
//     or exporting an imported schedule — yields identical bytes, so
//     golden files diff cleanly and the fuzz round-trip property
//     (Import∘Export = id) is exact.
//   - Import rejects anything it cannot replay with exact-count
//     predictions: an unknown schema version, unknown fields, an
//     unknown node kind, and any DAG breaking the Validate()
//     invariants (positional IDs, backwards deps, non-increasing
//     levels, dense consecutive hoist groups) — each with the precise
//     error naming the offending node, so a hand-written schedule
//     fails loudly instead of drifting from its Counts().
//
// Version history: 1 — initial format (name, optional radix, nodes
// with string kinds).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// ScheduleVersion is the schema version Export writes and the only
// version Import accepts.
const ScheduleVersion = 1

// MarshalJSON encodes the kind as its string name ("rotate",
// "relin"), so schedule files are self-describing instead of leaking
// the Go iota values.
func (k Kind) MarshalJSON() ([]byte, error) {
	switch k {
	case Rotate, Relin:
		return json.Marshal(k.String())
	default:
		return nil, fmt.Errorf("workload: cannot marshal unknown kind %d", int(k))
	}
}

// UnmarshalJSON decodes a string kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("workload: node kind must be a string: %w", err)
	}
	switch s {
	case "rotate":
		*k = Rotate
	case "relin":
		*k = Relin
	default:
		return fmt.Errorf("workload: unknown node kind %q (want \"rotate\" or \"relin\")", s)
	}
	return nil
}

// scheduleJSON is the wire form of a schedule: the schema version
// first, then the Schedule fields. Node marshals through its struct
// tags (with Kind as a string).
type scheduleJSON struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Radix   int    `json:"radix,omitempty"`
	Nodes   []Node `json:"nodes"`
}

// MarshalJSON writes the versioned wire form.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	return json.Marshal(scheduleJSON{
		Version: ScheduleVersion,
		Name:    s.Name,
		Radix:   s.Radix,
		Nodes:   s.Nodes,
	})
}

// UnmarshalJSON reads the versioned wire form and re-validates the
// full DAG structure: any accepted schedule passes Validate() and is
// replayable with exact Counts() predictions. Unknown schema versions
// and unknown fields are rejected, so a file from a future format
// fails with a version error instead of silently dropping structure.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	// Peek at the version with a lenient decode first: a strict decode
	// of a future version would report an unknown *field* instead of
	// the version mismatch, which is the error that actually matters.
	var ver struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(data, &ver); err != nil {
		return fmt.Errorf("workload: schedule: %w", err)
	}
	if ver.Version == nil {
		return fmt.Errorf("workload: schedule is missing the schema version (want \"version\": %d)", ScheduleVersion)
	}
	if *ver.Version != ScheduleVersion {
		return fmt.Errorf("workload: schedule version %d not supported (want %d)", *ver.Version, ScheduleVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var aux scheduleJSON
	if err := dec.Decode(&aux); err != nil {
		return fmt.Errorf("workload: schedule: %w", err)
	}
	tmp := Schedule{Name: aux.Name, Nodes: aux.Nodes, Radix: aux.Radix}
	if err := tmp.Validate(); err != nil {
		return err
	}
	*s = tmp
	return nil
}

// Export returns the canonical byte form of the schedule: indented,
// newline-terminated, stable across export→import→export round trips.
// The schedule must be valid (Export re-checks, so a hand-assembled
// broken DAG cannot reach a golden file).
func (s *Schedule) Export() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Import parses and fully validates a schedule file's bytes. The
// returned schedule passes Validate() — import either succeeds with
// exact-count replayability or fails with a precise structural error.
func Import(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		// Malformed JSON never reaches UnmarshalJSON (the decoder
		// checks syntax first), so it is the one error class still
		// missing the package prefix here.
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			return nil, fmt.Errorf("workload: schedule: %w", err)
		}
		return nil, err
	}
	return &s, nil
}

// ImportFile reads and imports one schedule file.
func ImportFile(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	s, err := Import(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ExportFile writes the canonical byte form to path.
func (s *Schedule) ExportFile(path string) error {
	data, err := s.Export()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
