package main

// Observability wiring of the replay driver: -profile turns the
// internal/obs stage/kernel recorder on for the run, -trace
// installs the one span tracer (hks's worker tiles and serve's group
// track) and writes the Chrome trace-event timeline at the end,
// -pprof brackets the run with runtime/pprof CPU and heap profiles,
// and -check holds the first two's artifacts to checkObs.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"ciflow/internal/obs"
)

// setupObs flips the global profiling/tracing switches for one verb
// run and returns the teardown, which disables them again and writes
// the trace file. Call the teardown exactly once, after the run.
func setupObs(profile bool, tracePath string) func() error {
	var tr *obs.Tracer
	if profile {
		obs.Enable()
	}
	if tracePath != "" {
		tr = obs.EnableTracer()
	}
	return func() error {
		if profile {
			obs.Disable()
		}
		if tr == nil {
			return nil
		}
		obs.DisableTracer()
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Printf("wrote %s (%d spans, %d dropped at the buffer cap)\n", tracePath, len(tr.Spans()), d)
		} else {
			fmt.Printf("wrote %s (%d spans)\n", tracePath, len(tr.Spans()))
		}
		return nil
	}
}

// startPprof begins CPU profiling into dir/cpu.prof and returns the
// stop function, which also writes dir/mem.prof. An empty dir is a
// no-op.
func startPprof(dir string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuPath := filepath.Join(dir, "cpu.prof")
	cpu, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		memPath := filepath.Join(dir, "mem.prof")
		mem, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows live data
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return err
		}
		if err := mem.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s and %s\n", cpuPath, memPath)
		return nil
	}, nil
}

// printStageShares renders one stage-share breakdown as the table
// serve prints under -profile.
func printStageShares(shares []obs.StageShare) {
	if len(shares) == 0 {
		return
	}
	fmt.Printf("%-10s %10s %12s %8s\n", "stage", "count", "seconds", "share")
	for _, s := range shares {
		fmt.Printf("%-10s %10d %12.4f %7.1f%%\n", s.Stage, s.Count, s.Seconds, 100*s.Share)
	}
	fmt.Printf("%-10s %10s %12.4f %7.1f%%\n", "total", "",
		sumShareSeconds(shares), 100*obs.SumShares(shares))
}

func sumShareSeconds(shares []obs.StageShare) float64 {
	var t float64
	for _, s := range shares {
		t += s.Seconds
	}
	return t
}

// checkObs is serve -check's bar for the observability artifacts.
// Under -trace, the timeline the run wrote re-reads with at least one
// complete span and every lane monotonic and non-overlapping
// (obs.CheckTrace). Under -profile, no stage share is negative, the
// shares sum into (0, limit] — every process's engine workers plus,
// per tenant, its dispatcher in every process and its serial
// reference: workers + 2·tenants in process — and the request phases
// recorded time.
func checkObs(cfg serveConfig, rep *serveReport) error {
	if cfg.tracePath != "" {
		f, err := os.Open(cfg.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		spans, lanes, err := obs.CheckTrace(f)
		if err != nil {
			return fmt.Errorf("serve check: %s: %w", cfg.tracePath, err)
		}
		fmt.Printf("%s: %d spans over %d lanes, all monotonic and non-overlapping\n", cfg.tracePath, spans, lanes)
	}
	if !cfg.profile {
		return nil
	}
	var sum float64
	for _, s := range rep.StageShares {
		if s.Share < 0 {
			return fmt.Errorf("serve check: stage %q has negative share %f", s.Stage, s.Share)
		}
		sum += s.Share
	}
	procs := max(rep.Shards, 1)
	limit := float64(procs*(rep.Workers+rep.Tenants) + rep.Tenants)
	if sum <= 0 || sum > limit {
		return fmt.Errorf("serve check: stage shares sum to %.3f, want in (0, %.0f] at %d workers, %d tenants",
			sum, limit, rep.Workers, rep.Tenants)
	}
	var phaseNs uint64
	for _, p := range rep.Phases {
		phaseNs += p.TotalNs
	}
	if phaseNs == 0 {
		return fmt.Errorf("serve check: request-lifecycle phases recorded no time")
	}
	return nil
}
