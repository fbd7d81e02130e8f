// Package analysis drives the paper's experiments: it generates the
// dataflows' schedules, runs them at the RPU's compute rate over a
// sweep of DRAM bandwidths, and reproduces every table and figure of
// the evaluation (§VI).
//
// An experiment is a table. Its typed compute function (TableII,
// Figure4, …) is what the tests hold to the paper's claims; beside it
// one function lays the result out as a Table — title, columns each
// declaring head, CSV key, width and verb once, rows, notes — and
// Table.Text and Table.CSV are the only two writers. Experiments
// lists them all, in the order `ciflow all` prints them, and is the
// one place that does: `ciflow <name>`, `ciflow help`, `all`, the
// root BenchmarkExperiments and the README check walk it. Adding an
// experiment is one compute function, one layout function and one
// entry there (and its row in README.md, which a test then demands).
package analysis

import (
	"fmt"
	"sort"
	"sync"

	"ciflow/internal/dataflow"
	"ciflow/internal/params"
	"ciflow/internal/rpu"
)

// GB is the decimal gigabyte used for bandwidth figures.
const GB = 1e9

// StdBandwidthsGBs is the paper's 8–64 GB/s sweep (DDR4 through DDR5).
var StdBandwidthsGBs = []float64{8, 12.8, 16, 25.6, 32, 51.2, 64}

// ExtBandwidthsGBs extends to 1 TB/s (HBM2/HBM3) as in Figure 4(d,e).
var ExtBandwidthsGBs = []float64{8, 12.8, 16, 25.6, 32, 51.2, 64, 128, 256, 512, 1024}

// BaselineBandwidthGBs anchors Table IV: MP at peak DDR5 bandwidth
// with evks pre-loaded on-chip.
const BaselineBandwidthGBs = 64

// Runner evaluates HKS runtimes with schedule caching (schedules
// depend only on the dataflow, benchmark and memory configuration, not
// on bandwidth or compute throughput).
type Runner struct {
	DataMemBytes int64

	mu    sync.Mutex
	cache map[schedKey]*dataflow.Schedule
}

type schedKey struct {
	df      dataflow.Dataflow
	bench   string
	evk     bool
	keyComp bool
	mem     int64
}

// NewRunner returns a runner with the paper's configuration: the
// RPU's 32 MB data memory.
func NewRunner() *Runner {
	return &Runner{
		DataMemBytes: rpu.DataMemBytes,
		cache:        map[schedKey]*dataflow.Schedule{},
	}
}

// Schedule returns (generating on first use) the schedule for one
// configuration.
func (r *Runner) Schedule(df dataflow.Dataflow, b params.Benchmark, evkOnChip, keyComp bool) (*dataflow.Schedule, error) {
	key := schedKey{df, b.Name, evkOnChip, keyComp, r.DataMemBytes}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.cache[key]; ok {
		return s, nil
	}
	s, err := dataflow.Generate(df, dataflow.Config{
		Bench:          b,
		DataMemBytes:   r.DataMemBytes,
		EvkOnChip:      evkOnChip,
		KeyCompression: keyComp,
	})
	if err != nil {
		return nil, err
	}
	r.cache[key] = s
	return s, nil
}

// Runtime runs one configuration's schedule at bwGBs of DRAM bandwidth
// on the RPU with its compute scaled modopsScale times.
func (r *Runner) Runtime(df dataflow.Dataflow, b params.Benchmark, evkOnChip bool, bwGBs, modopsScale float64) (dataflow.Result, error) {
	s, err := r.Schedule(df, b, evkOnChip, false)
	if err != nil {
		return dataflow.Result{}, err
	}
	return s.Run(bwGBs*GB, rpu.ModopsPerSec(modopsScale))
}

// RuntimeMS is Runtime in milliseconds, for the common case.
func (r *Runner) RuntimeMS(df dataflow.Dataflow, b params.Benchmark, evkOnChip bool, bwGBs, modopsScale float64) (float64, error) {
	res, err := r.Runtime(df, b, evkOnChip, bwGBs, modopsScale)
	return res.RuntimeSec * 1e3, err
}

// Baseline returns the Table IV reference runtime: MP at 64 GB/s with
// evks on-chip.
func (r *Runner) Baseline(b params.Benchmark) (float64, error) {
	return r.RuntimeMS(dataflow.MP, b, true, BaselineBandwidthGBs, 1)
}

// FindBandwidthToMatch bisects for the smallest bandwidth (GB/s) at
// which the given configuration meets or beats targetMS. Runtime is
// non-increasing in bandwidth, so bisection is sound. Returns an error
// if even maxGBs cannot reach the target.
func (r *Runner) FindBandwidthToMatch(df dataflow.Dataflow, b params.Benchmark, evkOnChip bool, modopsScale, targetMS, maxGBs float64) (float64, error) {
	lo, hi := 0.5, maxGBs
	ms, err := r.RuntimeMS(df, b, evkOnChip, hi, modopsScale)
	if err != nil {
		return 0, err
	}
	if ms > targetMS {
		return 0, fmt.Errorf("analysis: %s/%s cannot reach %.2f ms below %.0f GB/s (best %.2f ms)",
			df, b.Name, targetMS, maxGBs, ms)
	}
	for i := 0; i < 60 && hi-lo > 1e-3; i++ {
		mid := (lo + hi) / 2
		ms, err := r.RuntimeMS(df, b, evkOnChip, mid, modopsScale)
		if err != nil {
			return 0, err
		}
		if ms <= targetMS {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// OCBaseGridGBs snaps a continuous bandwidth requirement up to the
// paper's sweep grid, which is how Table IV reports OCbase.
func OCBaseGridGBs(contGBs float64) float64 {
	grid := append([]float64(nil), ExtBandwidthsGBs...)
	sort.Float64s(grid)
	for _, g := range grid {
		if g >= contGBs-1e-9 {
			return g
		}
	}
	return grid[len(grid)-1]
}
