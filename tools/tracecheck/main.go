// Command tracecheck validates the observability artifacts of one
// traced, profiled in-process replay — the only command that produces
// its inputs:
//
//	ciflow serve -workload W -tenants T -profile -trace trace.json -json run.json
//	go run ./tools/tracecheck trace.json run.json
//
// The trace must parse as catapult JSON with at least one complete
// ("X") event, and within every (pid, tid) lane the spans must be
// monotonic and non-overlapping — the guarantee obs.PackLanes makes
// at export time. The report must carry stage_shares whose sum is
// positive and at most workers + 2·tenants (the engine's workers, plus
// for every tenant its serial reference and its dispatcher, all
// recording into the one profile), and request-lifecycle phases with
// nonzero totals.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type stageShare struct {
	Stage string  `json:"stage"`
	Share float64 `json:"share"`
}

type phaseStat struct {
	Phase   string `json:"phase"`
	Count   uint64 `json:"count"`
	TotalNs uint64 `json:"total_ns"`
}

type serveReport struct {
	Workers     int          `json:"workers"`
	Tenants     int          `json:"tenants"`
	StageShares []stageShare `json:"stage_shares"`
	Phases      []phaseStat  `json:"phases"`
}

func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	type lane struct{ pid, tid int }
	spans := map[lane][]traceEvent{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur < 0 {
			return fmt.Errorf("%s: span %q has negative duration %f", path, ev.Name, ev.Dur)
		}
		k := lane{ev.Pid, ev.Tid}
		spans[k] = append(spans[k], ev)
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: no complete (ph=X) events", path)
	}
	total := 0
	for k, evs := range spans {
		sort.Slice(evs, func(a, b int) bool { return evs[a].Ts < evs[b].Ts })
		for i := 1; i < len(evs); i++ {
			prev, cur := evs[i-1], evs[i]
			if cur.Ts < prev.Ts+prev.Dur {
				return fmt.Errorf("%s: lane %d/%d: span %q at %f overlaps %q ending at %f",
					path, k.pid, k.tid, cur.Name, cur.Ts, prev.Name, prev.Ts+prev.Dur)
			}
		}
		total += len(evs)
	}
	fmt.Printf("%s: %d spans over %d lanes, all monotonic and non-overlapping\n", path, total, len(spans))
	return nil
}

func checkReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep serveReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.StageShares) == 0 {
		return fmt.Errorf("%s: no stage_shares (run without -profile?)", path)
	}
	var sum float64
	for _, s := range rep.StageShares {
		if s.Share < 0 {
			return fmt.Errorf("%s: stage %q has negative share %f", path, s.Stage, s.Share)
		}
		sum += s.Share
	}
	limit := float64(rep.Workers + 2*rep.Tenants)
	if sum <= 0 || sum > limit {
		return fmt.Errorf("%s: stage shares sum to %.3f, want in (0, %.0f] at %d workers, %d tenants",
			path, sum, limit, rep.Workers, rep.Tenants)
	}
	if len(rep.Phases) == 0 {
		return fmt.Errorf("%s: no request-lifecycle phases", path)
	}
	var phaseNs uint64
	for _, p := range rep.Phases {
		phaseNs += p.TotalNs
	}
	if phaseNs == 0 {
		return fmt.Errorf("%s: lifecycle phases recorded zero total time", path)
	}
	fmt.Printf("%s: stage shares sum %.3f (limit %.0f), %d lifecycle phases\n", path, sum, limit, len(rep.Phases))
	return nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json> <run.json>")
		os.Exit(2)
	}
	if err := checkTrace(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	if err := checkReport(os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	fmt.Println("tracecheck passed")
}
