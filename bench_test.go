// Benchmark harness: one benchmark per table, figure and ablation of
// the paper's evaluation (§VI) — a walk of the analysis registry. Each
// regenerates its experiment on a fresh runner and prints the tables
// once, the form cmd/ciflow/testdata/all.golden pins (DESIGN.md
// "Measured vs modeled performance" sets the model beside this
// machine).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package ciflow_test

import (
	"fmt"
	"testing"

	"ciflow/internal/analysis"
	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

// BenchmarkExperiments regenerates every experiment of the registry,
// one sub-benchmark each (Figure 4: one per panel).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range analysis.Experiments {
		for _, bench := range e.Panels() {
			name := e.Name
			if e.PerBench {
				name += "-" + bench.Name
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// A fresh runner: measure generation, not the cache.
					tables, err := e.Run(analysis.NewRunner(), bench)
					if err != nil {
						b.Fatal(err)
					}
					if b.N == 1 { // the sizing run: print once
						for _, t := range tables {
							fmt.Print(t.Text())
						}
					}
				}
			})
		}
	}
}

// BenchmarkScheduleGeneration measures raw schedule-generation cost
// per dataflow on the largest benchmark.
func BenchmarkScheduleGeneration(b *testing.B) {
	for _, df := range dataflow.AllDataflows() {
		b.Run(df.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dataflow.Generate(df, dataflow.Config{
					Bench: params.BTS3, DataMemBytes: 32 << 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
