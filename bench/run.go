package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"ciflow/internal/cluster"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
	"ciflow/internal/serve"
	"ciflow/internal/workload"
)

// config is one run's parameters. Only workload, seed, seconds and
// trace are flags; the rest are fixed for every recorded number and
// shrunk by the smoke test alone.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	logN      int    // 13
	setups    int    // set-ups per untraced run; setup_s is their median
	probeReps int    // timed calls per probe (the fabric comparison, whose calls are whole replays, stops at 3)
	outDir    string // where a traced run leaves its span file
}

func defaultConfig() config {
	return config{seed: 1, seconds: 15, logN: 13, setups: 3, probeReps: 30, outDir: filepath.Join("bench", "out")}
}

// switch_per_s is the median rate of rateSlices equal slices of the
// window (see slicedRate) when a slice holds at least minPerSlice
// operations on average, and the whole-window rate otherwise.
const (
	rateSlices  = 10
	minPerSlice = 10
)

// maxWorkers caps the engine, so a number recorded on this 2-core box
// stays comparable on a larger one only up to a stated width.
const maxWorkers = 4

// run executes one workload in one mode, prints its metrics by name,
// and returns the report. The error is non-nil when an output was
// wrong or an operation failed; the report is still returned then.
func run(cfg config, w io.Writer) (*report, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("seconds %g must be positive", cfg.seconds)
	}
	workers := min(runtime.NumCPU(), maxWorkers)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	e := engine.New(workers)
	defer e.Close()
	ev := env{cfg: cfg, def: def, e: e}

	fmt.Fprintf(w, "workload %s: %s\n", def.Name, def.Why)
	fmt.Fprintf(w, "shape N=2^%d, %d Q towers x %d bit, %d P towers x %d bit, top level %d, dnum %d\n",
		cfg.logN, qTowers, qBits, pTowers, pBits, topLevel, def.dnum)
	fmt.Fprintf(w, "workers %d num_cpu %d %s seed %d window %gs trace %v\n",
		workers, runtime.NumCPU(), runtime.Version(), cfg.seed, cfg.seconds, cfg.trace)

	var rep *report
	var err error
	if cfg.trace {
		rep, err = runTraced(ev, w)
	} else {
		rep, err = runEndToEnd(ev)
	}
	if rep == nil {
		return nil, err
	}
	rep.printTable(w)
	if err == nil && rep.total().failed > 0 {
		err = fmt.Errorf("%d of %d operations failed", rep.total().failed, rep.total().attempted)
	}
	return rep, err
}

// setUp builds and prepares one instance of the workload.
func setUp(ev env, rep *report) (load, error) {
	ld, err := ev.def.make(ev)
	if err != nil {
		return nil, err
	}
	warm, verify, digest, err := ld.prepare()
	rep.phases[phaseWarmup], rep.phases[phaseVerify], rep.digest = warm, verify, digest
	if err != nil {
		ld.close()
		return nil, fmt.Errorf("verify: %w", err)
	}
	return ld, nil
}

func window(ev env, share float64) time.Duration {
	return time.Duration(ev.cfg.seconds * share * float64(time.Second))
}

// runEndToEnd is the untraced run: set up cfg.setups times (setup_s is
// the median), then one closed-loop window on the last instance.
func runEndToEnd(ev env) (*report, error) {
	rep := newReport(endToEnd)
	var ld load
	var setups []float64
	for k := 0; k < ev.cfg.setups; k++ {
		if ld != nil {
			// Collect the previous instance before the next is timed,
			// so peak_rss_mb is one instance's, not three.
			ld.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if ld, err = setUp(ev, rep); err != nil {
			return rep, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ld.close()

	res := runWindow(ld.clients(), window(ev, 1), nil, ld.op)
	rep.phases[phaseWindow] = res.ops
	if res.switches == 0 {
		return rep, fmt.Errorf("window completed no switch: %w", res.firstErr)
	}
	per := float64(res.switches)
	rep.set("setup_s", median(setups))
	rep.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))
	if len(res.samples) >= minPerSlice*rateSlices {
		rep.set("switch_per_s", slicedRate(res.samples, res.elapsed, rateSlices))
		rep.notes["switch_per_s"] = fmt.Sprintf("median of %d slices; %.6g over the whole window", rateSlices, res.switchPerSec())
	} else {
		// A DAG window holds a dozen or two replays: too few to slice.
		rep.set("switch_per_s", res.switchPerSec())
	}
	rep.setN("op_p50_ms", median(res.latenciesMs()), len(res.samples))
	rep.set("cpu_ms_per_switch", ms(res.cpu)/per)
	rep.set("peak_rss_mb", peakRSSMB())
	return rep, res.firstErr
}

// runTraced is the per-layer run: one set-up, the probe, and a window
// split into an untraced half and a traced half (internal/obs on, the
// benchmark's own spans recorded), so the price of the instruments is
// measured inside one process.
func runTraced(ev env, w io.Writer) (*report, error) {
	rep := newReport(perLayer)
	ld, err := setUp(ev, rep)
	if err != nil {
		return rep, err
	}
	defer ld.close()
	p, err := probe(ev, ld, rep)
	if err != nil {
		return rep, fmt.Errorf("probe: %w", err)
	}

	dag, _ := ld.(*dagLoad)
	stats := func() serve.Stats { return serve.Stats{} }
	// direct is the serve workloads' operation run straight on the
	// engine; it is timed just before and just after the windows, so
	// serve.overhead_x compares numbers taken within seconds of each other.
	var direct func()
	switch l := ld.(type) {
	case *serveLoad:
		stats = l.svc.Stats
		direct = p.directSingle
		if l.fanout {
			direct = p.directFanout
		}
	case *dagLoad:
		stats = l.stats
	}
	var directMs float64
	timeDirect := func() {
		if direct != nil {
			directMs += ms(medianTime(ev.cfg.probeReps, direct)) / 2
		}
	}

	// Untraced quarter, traced half, untraced quarter: the two halves
	// share one centre in time, so a steady drift of the host cancels
	// out of their difference.
	timeDirect()
	base := runWindow(ld.clients(), window(ev, 0.25), nil, ld.op)
	if dag != nil {
		dag.takeReplays()
	}
	var completed []uint64
	if dag != nil && dag.router != nil {
		completed = shardCompleted(dag.router)
	}
	before := stats()
	spans := newSpanLog()
	ld.trace(spans)
	rec := obs.Enable()
	tr := runWindow(ld.clients(), window(ev, 0.5), spans, ld.op)
	profile := rec.Snapshot()
	obs.Disable()
	ld.trace(nil)
	after := stats()
	var traced []*workload.ReplayResult
	if dag != nil {
		traced = dag.takeReplays()
	}
	base.merge(runWindow(ld.clients(), window(ev, 0.25), nil, ld.op))
	timeDirect()

	rep.phases[phaseWindow] = base.ops
	rep.phases[phaseWindow].add(tr.ops)
	if base.switches == 0 || tr.switches == 0 {
		return rep, fmt.Errorf("window completed no switch: %w", errors.Join(base.firstErr, tr.firstErr))
	}
	all := spans.snapshot()

	rep.set("alloc_kb_per_switch", float64(base.alloc)/1024/float64(base.switches))
	if v, ok := percentile(tr.latenciesMs(), 0.9); ok {
		rep.setN("op_p90_ms", v, len(tr.samples))
	}
	workers := float64(ev.e.Workers())
	rep.set("engine.cpu_util", tr.cpu.Seconds()/(tr.elapsed.Seconds()*workers))
	rep.set("obs.stage_share_sum", obs.SumShares(obs.Shares(profile, tr.elapsed.Seconds()))/workers)
	rep.set("obs.overhead_frac", 1-tr.switchPerSec()/base.switchPerSec())

	if _, direct := ld.(*switchDirect); !direct {
		serveLayer(rep, before, after, all)
	}
	if l, ok := ld.(*serveLoad); ok {
		perOp := 1.0
		if l.fanout {
			perOp = fanoutWidth
		}
		rep.set("serve.overhead_x", 1000/tr.switchPerSec()/(directMs/perOp))
	}
	if dag != nil {
		workloadLayer(rep, traced, all, rep.phases[phaseWindow])
		if dag.router != nil {
			if err := clusterLayer(rep, dag, ev, completed); err != nil {
				return rep, err
			}
		}
	}

	path := filepath.Join(ev.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", ev.def.Name, ev.cfg.seed))
	if err := writeSpanFile(path, spanFile{Workload: ev.def.Name, Seed: ev.cfg.seed,
		Workers: ev.e.Workers(), WindowNs: int64(tr.elapsed), Spans: all}); err != nil {
		return rep, err
	}
	fmt.Fprintf(w, "spans %d written to %s\n", len(all), path)
	return rep, errors.Join(base.firstErr, tr.firstErr)
}

// probe prices the layers the workload touches, bottom up.
func probe(ev env, ld load, rep *report) (*prober, error) {
	p, err := newProber(rep, ev, ld.ring())
	if err != nil {
		return nil, err
	}
	if err := p.kernels(); err != nil {
		return nil, err
	}
	p.switching()
	if err := p.model(); err != nil {
		return nil, err
	}
	switch l := ld.(type) {
	case *serveLoad:
		err = p.keygen(l.cctx, ev.cfg.seed+3)
	case *dagLoad:
		err = p.keygen(l.cctx, ev.cfg.seed+3)
		if err == nil && l.router != nil {
			err = p.wire(l)
		}
	}
	return p, err
}

// serveLayer reads the serve layer's own books over the traced window
// (serve.Stats deltas) beside the request spans the benchmark took.
// Every request's submit-to-result time is either attributed to a
// lifecycle phase by the service or left in unattributed_frac: time a
// request waits inside its group for the members replayed before it,
// and, over the fabric, wire and routing.
func serveLayer(rep *report, before, after serve.Stats, spans []span) {
	type total struct{ count, ns float64 }
	phases := map[string]total{}
	var attributed float64
	for _, ps := range after.Phases {
		phases[ps.Phase] = total{float64(ps.Count), float64(ps.TotalNs)}
	}
	for _, ps := range before.Phases {
		t := phases[ps.Phase]
		phases[ps.Phase] = total{t.count - float64(ps.Count), t.ns - float64(ps.TotalNs)}
	}
	for _, t := range phases {
		attributed += t.ns
	}
	per := func(phase string, unit time.Duration) float64 {
		t := phases[phase]
		if t.count == 0 {
			return 0
		}
		return t.ns / t.count / float64(unit)
	}
	served := float64(after.Served - before.Served)
	if served == 0 {
		return
	}
	rep.set("serve.queue_ms_per_req", (phases["enqueue"].ns+phases["dispatch"].ns)/served/1e6)
	rep.set("serve.keys_us_per_fetch", per("keys", time.Microsecond))
	rep.set("serve.hoist_ms_per_group", per("hoist", time.Millisecond))
	rep.set("serve.replay_ms_per_req", per("replay", time.Millisecond))
	rep.set("serve.reply_us_per_req", per("reply", time.Microsecond))
	rep.set("serve.coalescing_factor", served/float64(after.ModUps-before.ModUps))
	rep.set("serve.batch_size_mean", served/float64(after.Batches-before.Batches))
	hits := float64(after.Keys.Hits - before.Keys.Hits)
	misses := float64(after.Keys.Misses - before.Keys.Misses)
	rep.set("serve.key_hit_rate", hits/(hits+misses))
	rep.set("serve.key_evictions_per_req", float64(after.Keys.Evictions-before.Keys.Evictions)/served)
	rep.set("serve.key_expansions_per_req", float64(after.KeyExpansions-before.KeyExpansions)/served)
	rep.set("serve.key_resident_mb", float64(after.Keys.Bytes)/(1<<20))

	var lats []float64
	var latNs float64
	for _, s := range spans {
		if s.Name == spanRequest {
			lats = append(lats, float64(s.End-s.Start)/1e6)
			latNs += float64(s.End - s.Start)
		}
	}
	if v, ok := percentile(lats, 0.99); ok {
		rep.setN("serve.req_p99_ms", v, len(lats))
	}
	rep.set("serve.unattributed_frac", 1-attributed/latNs)
}

// workloadLayer reads the replay client's results and the spans: an
// operation's self time is the part of the makespan with no request in
// flight, which is what the wave scheduler and the gather windows cost.
func workloadLayer(rep *report, replays []*workload.ReplayResult, spans []span, ops tally) {
	if len(replays) == 0 {
		return
	}
	walls := make([]float64, len(replays))
	for i, res := range replays {
		walls[i] = ms(res.Wall)
	}
	last := replays[len(replays)-1]
	rep.setN("workload.makespan_ms", median(walls), len(walls))
	rep.set("workload.ms_per_depth", median(walls)/float64(last.Predicted.Depth))
	opDur, opSelf, _ := spanTotals(spans, spanOp)
	reqDur, _, _ := spanTotals(spans, spanRequest)
	rep.set("workload.idle_frac", float64(opSelf)/float64(opDur))
	rep.set("workload.inflight_mean", float64(reqDur)/float64(opDur))
	rep.set("workload.switches", float64(last.Served))
	rep.set("workload.mod_ups", float64(last.ModUps))
	rep.set("workload.counts_exact", float64(ops.attempted-ops.failed)/float64(ops.attempted))
}

func shardCompleted(rt *cluster.Router) []uint64 {
	out := make([]uint64, rt.NumShards())
	for i := range out {
		out[i] = rt.Completed(i)
	}
	return out
}

// clusterLayer reads how the traced window's switches spread over the
// shards, and then prices the fabric against one process: the same
// tenant's replay through the router and through an in-process
// service over the same keys, alternating, min(3, probeReps) times each.
func clusterLayer(rep *report, l *dagLoad, ev env, before []uint64) error {
	var sum, most float64
	for i, c := range shardCompleted(l.router) {
		d := float64(c - before[i])
		sum += d
		most = max(most, d)
	}
	rep.set("cluster.shard_balance", most/(sum/float64(len(before))))

	scfg := workload.ReplayServiceConfig(l.sched)
	scfg.Engine = ev.e
	svc, err := serve.New(l.cctx.Switchers(), l.keys, scfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	wall := func(srv workload.Server) (float64, error) {
		res, err := l.replayOne(0, srv, false)
		if err == nil {
			err = replayExact(res)
		}
		if err != nil {
			return 0, err
		}
		return ms(res.Wall), nil
	}
	var fabric, local []float64
	for i := 0; i <= min(3, ev.cfg.probeReps); i++ {
		f, err := wall(l.servers[0])
		if err != nil {
			return err
		}
		in, err := wall(svc)
		if err != nil {
			return err
		}
		if i > 0 { // the first pair fills the in-process service's key cache
			fabric, local = append(fabric, f), append(local, in)
		}
	}
	rep.set("cluster.overhead_x", median(fabric)/median(local))
	return nil
}
