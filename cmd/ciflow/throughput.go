package main

// The throughput experiment is the repository's first real-hardware
// counterpart to the paper's Figure 4: instead of simulating the
// MP/DC/OC dataflows on the RPU model, it executes them as task
// graphs on the internal/engine worker pool and reports measured
// ops/sec, tail latency, and speedup over the serial pipeline.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"ciflow/internal/analysis"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
)

// throughputRow is one measured configuration.
type throughputRow struct {
	Dataflow  string  `json:"dataflow"`
	Requests  int     `json:"requests"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	Speedup   float64 `json:"speedup_vs_serial"`

	// StageShares breaks this row's measured wall time down by HKS
	// stage (-profile only). The recorder is reset per row, so each
	// row's shares cover exactly its own measured section. On the
	// serial row the instrumentation is sequential and covers the whole
	// switch, so the shares sum to ~1.0 of wall — the invariant the
	// perf gate pins; engine rows record per-worker time, so their sums
	// approach the effective parallelism instead.
	StageShares []obs.StageShare `json:"stage_shares,omitempty"`
}

// hoistedRow compares, for one dataflow, k independent switches
// against one hoisted switch over the same k keys. Ops/sec counts
// finished key switches (k per request on both sides).
type hoistedRow struct {
	Dataflow         string  `json:"dataflow"`
	PerRotOpsPerSec  float64 `json:"per_rotation_ops_per_sec"`
	HoistedOpsPerSec float64 `json:"hoisted_ops_per_sec"`
	MeasuredSpeedup  float64 `json:"measured_speedup"`
	ModelDeltaPct    float64 `json:"model_delta_pct"`
}

// hoistedReport reconciles the measured hoisting gain against the
// HoistedOpsSaved model (satellite of the paper's reuse analysis).
type hoistedReport struct {
	Rotations      int          `json:"rotations"`
	SwitchModOps   int64        `json:"switch_mod_ops"`
	ModUpModOps    int64        `json:"modup_mod_ops"`
	ModelOpsSaved  int64        `json:"model_ops_saved"`
	ModelSavedFrac float64      `json:"model_saved_frac"`
	ModelSpeedup   float64      `json:"model_speedup"`
	BitExact       bool         `json:"bit_exact"`
	Results        []hoistedRow `json:"results"`
}

// throughputReport is the JSON artifact the bench harness tracks
// (BENCH_engine.json).
type throughputReport struct {
	N        int             `json:"n"`
	Towers   int             `json:"towers"`
	Dnum     int             `json:"dnum"`
	Workers  int             `json:"workers"`
	NumCPU   int             `json:"num_cpu"`
	BitExact bool            `json:"bit_exact"`
	Results  []throughputRow `json:"results"`
	Hoisted  *hoistedReport  `json:"hoisted,omitempty"`
}

func parseThroughputDataflows(name string) ([]dataflow.Dataflow, error) {
	switch strings.ToLower(name) {
	case "", "all":
		return []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC}, nil
	case "mp":
		return []dataflow.Dataflow{dataflow.MP}, nil
	case "dc":
		return []dataflow.Dataflow{dataflow.DC}, nil
	case "oc":
		return []dataflow.Dataflow{dataflow.OC}, nil
	case "ocf":
		return []dataflow.Dataflow{dataflow.OCF}, nil
	}
	return nil, fmt.Errorf("unknown dataflow %q (want mp, dc, oc, ocf, or all)", name)
}

func percentileMs(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func measure(requests int, op func(i int)) (opsPerSec, p50, p99 float64) {
	lats := make([]time.Duration, requests)
	start := time.Now()
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		op(i)
		lats[i] = time.Since(t0)
	}
	total := time.Since(start)
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	return float64(requests) / total.Seconds(), percentileMs(lats, 50), percentileMs(lats, 99)
}

// throughputRun executes the experiment and returns the report; split
// from the printing so tests can exercise it directly. rotations > 0
// adds the hoisted experiment: k switches of one input, shared ModUp
// versus per-rotation, reconciled against the HoistedOpsSaved model.
func throughputRun(dfName string, workers, requests, logN, towers, dnum, rotations int) (*throughputReport, error) {
	dfs, err := parseThroughputDataflows(dfName)
	if err != nil {
		return nil, err
	}
	if requests < 1 {
		return nil, fmt.Errorf("need at least 1 request, got %d", requests)
	}
	if logN < 4 || logN > 16 {
		return nil, fmt.Errorf("logn %d out of range [4,16]", logN)
	}
	if rotations < 0 || rotations == 1 {
		return nil, fmt.Errorf("rotations %d must be 0 (disabled) or >= 2", rotations)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	n := 1 << logN
	r, err := ring.NewRingGenerated(n, towers, 40, 3, 41)
	if err != nil {
		return nil, err
	}
	sw, err := hks.NewSwitcher(r, towers-1, dnum)
	if err != nil {
		return nil, err
	}
	s := ring.NewSampler(r, 1)
	full := r.DBasis(r.NumQ - 1)
	evk := sw.GenEvk(s, s.Ternary(full), s.Ternary(full))

	// Pre-generate the request inputs so sampling stays off the clock.
	ds := make([]*ring.Poly, requests)
	for i := range ds {
		ds[i] = s.Uniform(sw.QBasis())
		ds[i].IsNTT = true
	}

	rep := &throughputReport{
		N: n, Towers: towers, Dnum: dnum,
		Workers: workers, NumCPU: runtime.NumCPU(),
		BitExact: true,
	}

	// Reference output for the bit-exactness check; doubling as the
	// serial warm-up so the baseline's converter scratch pools are as
	// warm as the engine path's. Both run the same tiles on the same
	// pooled states; KeySwitch alone allocates its two outputs per op.
	ref0, ref1 := sw.KeySwitch(ds[0], evk)

	// With -profile active, reset the recorder before each measured
	// section and convert its snapshot into that row's stage shares
	// (share = stage seconds / section wall seconds), so warm-up and
	// verification switches never pollute a row's breakdown.
	profiling := obs.Active() != nil
	resetProfile := func() {
		if profiling {
			obs.Enable()
		}
	}
	rowShares := func(opsPerSec float64) []obs.StageShare {
		if !profiling || opsPerSec <= 0 {
			return nil
		}
		return obs.Shares(obs.Active().Snapshot(), float64(requests)/opsPerSec)
	}

	// Serial baseline.
	resetProfile()
	ops, p50, p99 := measure(requests, func(i int) { sw.KeySwitch(ds[i], evk) })
	rep.Results = append(rep.Results, throughputRow{
		Dataflow: "serial", Requests: requests,
		OpsPerSec: ops, P50Ms: p50, P99Ms: p99, Speedup: 1,
		StageShares: rowShares(ops),
	})
	serialOps := ops

	e := engine.New(workers)
	defer e.Close()
	c0 := r.NewPoly(sw.QBasis())
	c1 := r.NewPoly(sw.QBasis())
	for _, df := range dfs {
		// One warm-up switch populates the pooled state and verifies
		// the engine path against the serial reference.
		sw.SwitchParallelInto(e, df, ds[0], evk, c0, c1)
		if !c0.Equal(ref0) || !c1.Equal(ref1) {
			rep.BitExact = false
			return rep, fmt.Errorf("%s parallel output differs from serial", df)
		}
		resetProfile()
		ops, p50, p99 := measure(requests, func(i int) {
			sw.SwitchParallelInto(e, df, ds[i], evk, c0, c1)
		})
		rep.Results = append(rep.Results, throughputRow{
			Dataflow: df.String(), Requests: requests,
			OpsPerSec: ops, P50Ms: p50, P99Ms: p99, Speedup: ops / serialOps,
			StageShares: rowShares(ops),
		})
	}

	if rotations > 0 {
		rep.Hoisted, err = hoistedRun(e, sw, s, dfs, ds, requests, rotations)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// hoistedRun measures k rotations of one ciphertext as k independent
// switches versus one hoisted switch (shared ModUp), per dataflow plus
// the serial pipeline, and reconciles the gain with the model.
func hoistedRun(e *engine.Engine, sw *hks.Switcher, s *ring.Sampler, dfs []dataflow.Dataflow, ds []*ring.Poly, requests, k int) (*hoistedReport, error) {
	r := sw.R
	full := r.DBasis(r.NumQ - 1)
	sk := s.Ternary(full)
	evks := make([]*hks.Evk, k)
	for i := range evks {
		evks[i] = sw.GenEvk(s, s.Ternary(full), sk)
	}

	hr := &hoistedReport{
		Rotations:      k,
		SwitchModOps:   sw.SwitchOps(),
		ModUpModOps:    sw.ModUpOps(),
		ModelOpsSaved:  sw.HoistedOpsSaved(k),
		ModelSpeedup:   sw.HoistedSpeedupModel(k),
		ModelSavedFrac: float64(sw.HoistedOpsSaved(k)) / float64(int64(k)*sw.SwitchOps()),
		BitExact:       true,
	}

	// Bit-exactness: the hoisted outputs must equal the per-rotation
	// path key for key (serial reference doubles as warm-up).
	want0 := make([]*ring.Poly, k)
	want1 := make([]*ring.Poly, k)
	for i, evk := range evks {
		want0[i], want1[i] = sw.KeySwitch(ds[0], evk)
	}
	c0s := make([]*ring.Poly, k)
	c1s := make([]*ring.Poly, k)
	for i := range c0s {
		c0s[i] = r.NewPoly(sw.QBasis())
		c1s[i] = r.NewPoly(sw.QBasis())
	}

	row := func(name string, perRot, hoisted func(i int)) {
		perOps, _, _ := measure(requests, perRot)
		hoOps, _, _ := measure(requests, hoisted)
		measuredSpeedup := hoOps / perOps
		hr.Results = append(hr.Results, hoistedRow{
			Dataflow:         name,
			PerRotOpsPerSec:  perOps * float64(k),
			HoistedOpsPerSec: hoOps * float64(k),
			MeasuredSpeedup:  measuredSpeedup,
			ModelDeltaPct:    analysis.HoistingDelta(measuredSpeedup, hr.ModelSpeedup),
		})
	}

	// Serial pipeline.
	sc0s, sc1s := sw.SwitchHoisted(ds[0], evks)
	for i := range evks {
		if !sc0s[i].Equal(want0[i]) || !sc1s[i].Equal(want1[i]) {
			hr.BitExact = false
			return hr, fmt.Errorf("serial hoisted output %d differs from per-rotation", i)
		}
	}
	row("serial",
		func(i int) {
			for _, evk := range evks {
				sw.KeySwitch(ds[i%len(ds)], evk)
			}
		},
		func(i int) { sw.SwitchHoisted(ds[i%len(ds)], evks) })

	for _, df := range dfs {
		// Warm the pools and verify against the per-rotation path.
		sw.SwitchHoistedParallelInto(e, df, ds[0], evks, c0s, c1s)
		for i := range evks {
			if !c0s[i].Equal(want0[i]) || !c1s[i].Equal(want1[i]) {
				hr.BitExact = false
				return hr, fmt.Errorf("%s hoisted output %d differs from per-rotation", df, i)
			}
		}
		row(df.String(),
			func(i int) {
				d := ds[i%len(ds)]
				for ki, evk := range evks {
					sw.SwitchParallelInto(e, df, d, evk, c0s[ki], c1s[ki])
				}
			},
			func(i int) { sw.SwitchHoistedParallelInto(e, df, ds[i%len(ds)], evks, c0s, c1s) })
	}
	return hr, nil
}

func throughput(dfName string, workers, requests, logN, towers, dnum, rotations int, jsonPath string, profile bool, tracePath, pprofDir string) error {
	finishObs := setupObs(profile, tracePath)
	stopPprof, err := startPprof(pprofDir)
	if err != nil {
		return err
	}
	rep, err := throughputRun(dfName, workers, requests, logN, towers, dnum, rotations)
	if perr := stopPprof(); err == nil {
		err = perr
	}
	if oerr := finishObs(); err == nil {
		err = oerr
	}
	if err != nil {
		return err
	}

	fmt.Printf("Engine throughput: N=2^%d, %d towers, dnum=%d, %d workers (%d CPUs), %d requests\n",
		logN, rep.Towers, rep.Dnum, rep.Workers, rep.NumCPU, requests)
	fmt.Println("(parallel outputs verified bit-exact against the serial schedule, which runs")
	fmt.Println(" the same pooled tiles on the caller: speedup is scheduling, not allocation)")
	fmt.Printf("%-8s %12s %10s %10s %9s\n", "dataflow", "ops/sec", "p50 ms", "p99 ms", "speedup")
	for _, row := range rep.Results {
		fmt.Printf("%-8s %12.2f %10.3f %10.3f %8.2fx\n",
			row.Dataflow, row.OpsPerSec, row.P50Ms, row.P99Ms, row.Speedup)
	}
	if rep.NumCPU == 1 {
		fmt.Println("note: only one CPU is available; intra-op parallelism cannot beat serial here")
	}
	for _, row := range rep.Results {
		if len(row.StageShares) == 0 {
			continue
		}
		fmt.Printf("\nStage profile (%s):\n", row.Dataflow)
		printStageShares(row.StageShares)
	}

	if hr := rep.Hoisted; hr != nil {
		fmt.Printf("\nHoisted: %d rotations of one ciphertext, shared ModUp vs per-rotation\n", hr.Rotations)
		fmt.Printf("(model: ModUp is %d of %d weighted mod ops per switch; hoisting saves %.0f%%"+
			" of the batch -> %.2fx predicted)\n",
			hr.ModUpModOps, hr.SwitchModOps, 100*hr.ModelSavedFrac, hr.ModelSpeedup)
		fmt.Printf("%-8s %14s %14s %10s %12s\n", "dataflow", "per-rot op/s", "hoisted op/s", "speedup", "vs model")
		for _, row := range hr.Results {
			fmt.Printf("%-8s %14.2f %14.2f %9.2fx %+11.1f%%\n",
				row.Dataflow, row.PerRotOpsPerSec, row.HoistedOpsPerSec,
				row.MeasuredSpeedup, row.ModelDeltaPct)
		}
	}

	if jsonPath != "" {
		if err := writeJSONReport(jsonPath, rep); err != nil {
			return err
		}
	}
	return nil
}
