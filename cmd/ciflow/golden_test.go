package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the committed outputs:
//
//	go test ./cmd/ciflow -run 'TestAllGolden|TestVerbGoldens' -update
var update = flag.Bool("update", false, "rewrite the testdata/*.golden and testdata/*.csv outputs")

// stdoutOf runs one ciflow command line and returns what it printed.
func stdoutOf(t *testing.T, args ...string) []byte {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = wr
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(rd)
		out <- b
	}()
	runErr := run(args)
	os.Stdout = stdout
	wr.Close()
	got := <-out
	if runErr != nil {
		t.Fatalf("ciflow %v: %v", args, runErr)
	}
	return got
}

// checkGolden holds got to testdata/<name> byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s moved (%d lines, want %d); -update only if the output was meant to change", path, len(gl), len(wl))
	}
}

// TestAllGolden pins every number the model prints: the full output of
// `ciflow all` — Tables II–V, Figures 4–9, both ablations and the area
// summary — byte for byte. It was recorded before the dataflow
// emitters became visitors of one plan, so "no number moves" is a test
// and not a reading of two terminal windows.
func TestAllGolden(t *testing.T) {
	checkGolden(t, "all.golden", stdoutOf(t, "all"))
}

// TestVerbGoldens pins what `ciflow all` does not reach: the memory
// sweep (BTS1's has sizes no dataflow can be scheduled at), the
// roofline, two schedule reports (one with hoist groups, one without:
// the estimate block has a column the other lacks) and every -csv
// output. Recorded before the experiments became tables under one
// writer.
func TestVerbGoldens(t *testing.T) {
	for name, args := range map[string][]string{
		"memory.golden":             {"memory"},
		"memory_bts1.golden":        {"memory", "-bench", "BTS1"},
		"roofline.golden":           {"roofline"},
		"schedule_bootstrap.golden": {"schedule", "-workload", "bootstrap"},
		"schedule_evalmod.golden":   {"schedule", "-workload", "evalmod"},
		"table2.csv":                {"table2", "-csv"},
		"table4.csv":                {"table4", "-csv"},
		"fig4.csv":                  {"fig4", "-csv"},
		"fig5.csv":                  {"fig5", "-csv"},
		"fig6.csv":                  {"fig6", "-csv"},
		"memory.csv":                {"memory", "-csv"},
		"memory_bts1.csv":           {"memory", "-csv", "-bench", "BTS1"},
	} {
		name, args := name, args
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, stdoutOf(t, args...))
		})
	}
}
