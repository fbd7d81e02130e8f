// Dataflow explorer: inspect what each HKS dataflow does to on-chip
// memory and DRAM traffic for any benchmark and memory size — the
// paper's Table II analysis as an interactive tool.
//
// Run with:
//
//	go run ./examples/dataflow_explorer [-bench BTS3] [-mem 32]
//	go run ./examples/dataflow_explorer -bench ARK -mem 8
package main

import (
	"flag"
	"fmt"
	"log"

	"ciflow/internal/analysis"
	"ciflow/internal/dataflow"
	"ciflow/internal/params"
)

func main() {
	benchName := flag.String("bench", "BTS3", "benchmark (BTS1, BTS2, BTS3, ARK, DPRIVE)")
	memMiB := flag.Int64("mem", 32, "on-chip data memory in MiB")
	flag.Parse()

	b, err := params.ByName(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	const mib = 1 << 20

	fmt.Printf("%s: N=2^%d, %d Q towers, %d P towers, dnum=%d (alpha=%d)\n",
		b.Name, b.LogN, b.KL, b.KP, b.Dnum, b.Alpha())
	fmt.Printf("  input %d MiB, output %d MiB, evk %d MiB, MP working set %d MiB\n",
		b.InputBytes()/mib, b.OutputBytes()/mib, b.EvkBytes()/mib, b.TempBytes()/mib)
	fmt.Printf("  weighted modular ops per key switch: %.2f G\n\n",
		float64(b.Ops().WeightedTotal())/1e9)

	fmt.Printf("On-chip data memory: %d MiB, evks streamed\n\n", *memMiB)
	fmt.Printf("%-4s %10s %10s %10s %10s %8s %7s\n",
		"", "load MiB", "store MiB", "evk MiB", "total MiB", "AI", "tasks")
	for _, df := range dataflow.AllDataflows() {
		s, err := dataflow.Generate(df, dataflow.Config{
			Bench:        b,
			DataMemBytes: *memMiB * mib,
		})
		if err != nil {
			fmt.Printf("%-4s %s\n", df, err)
			continue
		}
		fmt.Printf("%-4s %10.0f %10.0f %10.0f %10.0f %8.2f %7d\n",
			df,
			float64(s.Traffic.LoadBytes)/mib, float64(s.Traffic.StoreBytes)/mib,
			float64(s.Traffic.EvkBytes)/mib, float64(s.Traffic.TotalBytes())/mib,
			s.ArithmeticIntensity(), len(s.Tasks))
	}

	// Break the OC schedule down by pipeline stage to show where the
	// compute goes (paper Figure 1's stages).
	s, err := dataflow.Generate(dataflow.OC, dataflow.Config{Bench: b, DataMemBytes: *memMiB * mib})
	if err != nil {
		log.Fatal(err)
	}
	byStage := map[string]int64{}
	var order []string
	for _, t := range s.Tasks {
		if t.Kind != dataflow.Compute {
			continue
		}
		if _, seen := byStage[t.Name]; !seen {
			order = append(order, t.Name)
		}
		byStage[t.Name] += t.Ops
	}
	fmt.Printf("\nOC compute by kernel:\n")
	total := float64(b.Ops().WeightedTotal())
	for _, name := range order {
		fmt.Printf("  %-12s %6.2f Gops  (%4.1f%%)\n", name, float64(byStage[name])/1e9,
			100*float64(byStage[name])/total)
	}

	// What hoisting buys when one ciphertext feeds k rotations (the
	// diagonal method's fan-out): the key-independent ModUp runs once,
	// so its share of the compute amortizes — the executed counterpart
	// is hks.SwitchHoisted / ckks.RotateHoisted.
	fmt.Println()
	fmt.Print(analysis.Hoisting(b, []int{2, 4, 8, 16}).Text())
}
