package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the committed `ciflow all` output:
//
//	go test ./cmd/ciflow -run TestAllGolden -update
var update = flag.Bool("update", false, "rewrite testdata/all.golden")

// TestAllGolden pins every number the model prints: the full output of
// `ciflow all` — Tables II–V, Figures 4–9, both ablations and the area
// summary — byte for byte. It was recorded before the dataflow
// emitters became visitors of one plan, so "no number moves" is a test
// and not a reading of two terminal windows.
func TestAllGolden(t *testing.T) {
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
	runErr := run([]string{"all"})
	os.Stdout = stdout
	wr.Close()
	got := <-out
	if runErr != nil {
		t.Fatal(runErr)
	}

	path := filepath.Join("testdata", "all.golden")
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
		t.Fatalf("%s: `ciflow all` moved (%d lines, want %d); -update only if the model was meant to change", path, len(gl), len(wl))
	}
}
