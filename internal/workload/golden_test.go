package workload

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// update regenerates the committed golden schedule files from the
// scenario library:
//
//	go test ./internal/workload -run TestScenarioGoldens -update
var update = flag.Bool("update", false, "rewrite the testdata/*.schedule.json goldens")

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".schedule.json")
}

// TestScenarioGoldens pins every library scenario byte for byte: the
// generator's export must match the committed golden exactly, the
// golden must import to a schedule with identical per-level count
// predictions, and re-exporting the import must reproduce the golden
// — so the committed files, the generators, and the serializer cannot
// drift apart, and a replay of a golden (TestReplayGoldens) replays
// exactly what the generators predict.
func TestScenarioGoldens(t *testing.T) {
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			s, err := Scenario(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Export()
			if err != nil {
				t.Fatal(err)
			}
			path := goldenPath(name)
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
				t.Fatalf("%s drifted from the %s generator (regenerate with -update if intended)", path, name)
			}
			imp, err := ImportFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(imp.Counts(), s.Counts()) {
				t.Fatalf("imported golden predicts %+v, generator %+v", imp.Counts(), s.Counts())
			}
			re, err := imp.Export()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, want) {
				t.Fatal("golden not byte-stable across import/export")
			}
		})
	}
}
