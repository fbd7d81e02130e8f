package dataflow

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ciflow/internal/params"
)

// update regenerates the committed program golden:
//
//	go test ./internal/dataflow -run TestProgramsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/programs.golden")

// benchShape is the shape `go run ./bench` runs and prices
// (dataflow.dram_mb_* come from it at 1 MiB on chip, keys streamed).
var benchShape = params.Benchmark{Name: "bench", LogN: 13, KL: 6, KP: 3, Dnum: 3}

// goldenConfig is one configuration of the program golden: a dataflow,
// its generation config and the key configuration's label.
type goldenConfig struct {
	df  Dataflow
	cfg Config
	evk string
}

// goldenConfigs lists the configurations the program golden holds, in
// its line order: the five Table III sets at 32 MiB and the bench shape
// at 1 MiB under all four dataflows and the three key configurations,
// and BTS3 and ARK across the `ciflow memory` sweep.
func goldenConfigs() []goldenConfig {
	dataflows := []Dataflow{MP, DC, OC, OCF}
	var out []goldenConfig
	type shape struct {
		b   params.Benchmark
		mem int64
	}
	shapes := []shape{{benchShape, 1 << 20}}
	for _, b := range params.All() {
		shapes = append(shapes, shape{b, 32 << 20})
	}
	for _, sh := range shapes {
		for _, df := range dataflows {
			for _, k := range []struct {
				name         string
				onChip, comp bool
			}{{"onchip", true, false}, {"streamed", false, false}, {"comp", false, true}} {
				out = append(out, goldenConfig{df, Config{Bench: sh.b, DataMemBytes: sh.mem, EvkOnChip: k.onChip, KeyCompression: k.comp}, k.name})
			}
		}
	}
	for _, b := range []params.Benchmark{params.BTS3, params.ARK} {
		for _, m := range []int64{8, 16, 32, 64, 128, 256, 512, 1024} {
			for _, df := range dataflows {
				out = append(out, goldenConfig{df, Config{Bench: b, DataMemBytes: m << 20, EvkOnChip: true}, "onchip"})
			}
		}
	}
	return out
}

// programLine is one golden row: the traffic accounting, the program's
// volume, and a digest of every emitted task — index, kind, name, bytes,
// ops and dependencies, in emission order — so the program itself is
// held and not only its totals.
func programLine(gc goldenConfig) string {
	cfg := gc.cfg
	head := fmt.Sprintf("%-6s %-3s %-9s %8d KiB", cfg.Bench.Name, gc.df, gc.evk, cfg.DataMemBytes>>10)
	s, err := Generate(gc.df, cfg)
	if err != nil {
		return head + "  unschedulable\n"
	}
	h := sha256.New()
	for i, t := range s.Tasks {
		fmt.Fprintf(h, "%d %s %s %d %d %v\n", i, t.Kind, t.Name, t.Bytes, t.Ops, t.Deps)
	}
	load, store, ops := volume(s.Tasks)
	return fmt.Sprintf("%s  load=%d store=%d evk=%d  tasks=%d ld=%d st=%d ops=%d  %x\n", head,
		s.Traffic.LoadBytes, s.Traffic.StoreBytes, s.Traffic.EvkBytes,
		len(s.Tasks), load, store, ops, h.Sum(nil))
}

// TestProgramsGolden pins what the RPU model emits, task for task, for
// every goldenConfigs configuration. The file was recorded before the
// emitters became visitors of one plan; a refactor of the generators
// passes it unmodified or has changed the model.
func TestProgramsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, gc := range goldenConfigs() {
		got.WriteString(programLine(gc))
	}

	path := filepath.Join("testdata", "programs.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: the emitted programs moved (%d lines, want %d); -update only if the model was meant to change", path, len(gl), len(wl))
	}
}
