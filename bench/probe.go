package main

import (
	"fmt"
	"math/bits"
	"strings"
	"time"

	"ciflow/internal/bconv"
	"ciflow/internal/ckks"
	"ciflow/internal/cluster"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ntt"
	"ciflow/internal/params"
	"ciflow/internal/ring"
)

// The probe prices each layer in isolation before the traced window:
// it calls the layer's exported functions at the workload's shape,
// reps times each, and reports the median. It runs single-caller on an
// otherwise idle process, so a probe number is the cost of the call,
// not of the call under the workload's contention.
type prober struct {
	rep  *report
	reps int
	e    *engine.Engine
	r    *ring.Ring
	sw   *hks.Switcher // top level, the workload's digit count
	s    *ring.Sampler

	// What serve_fanout and serve_unshared do per operation, run
	// directly on the engine by one caller: an 8-wide hoisted fan-out,
	// and one switch. Set by switching.
	directFanout, directSingle func()
}

func newProber(rep *report, e env, r *ring.Ring) (*prober, error) {
	sw, err := hks.NewSwitcher(r, topLevel, e.def.dnum)
	if err != nil {
		return nil, err
	}
	return &prober{rep: rep, reps: e.cfg.probeReps, e: e.e, r: r, sw: sw,
		s: ring.NewSampler(r, e.cfg.seed+2)}, nil
}

// kernels prices mod, ntt, bconv and ring.
func (p *prober) kernels() error {
	r, n := p.r, p.r.N
	x := p.s.Uniform(p.sw.DBasis())
	y := p.s.Uniform(p.sw.DBasis())
	z := r.NewPoly(p.sw.DBasis())

	m, x0, y0, z0 := r.Mods[0], x.Coeffs[0], y.Coeffs[0], z.Coeffs[0]
	d := medianTime(p.reps, func() {
		for i := range x0 {
			z0[i] = m.Mul(x0[i], y0[i])
		}
	})
	p.rep.set("mod.mul_ns_per_elem", float64(d)/float64(n))

	row := append([]uint64(nil), x0...)
	p.rep.set("ntt.fwd_us_per_tower", us(medianTime(p.reps, func() { r.NTTTower(0, row) })))
	p.rep.set("ntt.inv_us_per_tower", us(medianTime(p.reps, func() { r.INTTTower(0, row) })))
	p.rep.set("ntt.butterflies_per_tower", float64(ntt.ButterflyOps(n)))

	// ModUp's converter: the first digit's towers to the rest of the
	// extended basis. ModDown's: P to Q.
	digit := p.sw.Digits()[0]
	var rest ring.Basis
	for _, t := range p.sw.DBasis() {
		if !digit.Contains(t) {
			rest = append(rest, t)
		}
	}
	convert := func(name string, src, dst ring.Basis) (*bconv.Converter, error) {
		conv, err := bconv.New(r, src, dst)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		in, out := p.s.Uniform(src), r.NewPoly(dst)
		p.rep.set(name, us(medianTime(p.reps, func() { conv.Convert(in, out) })))
		return conv, nil
	}
	up, err := convert("bconv.modup_convert_us", digit, rest)
	if err != nil {
		return err
	}
	p.rep.set("bconv.muladd_per_convert", float64(up.Ops()))
	if _, err := convert("bconv.moddown_convert_us", p.sw.PBasis(), p.sw.QBasis()); err != nil {
		return err
	}

	p.rep.set("ring.muladd_us_per_poly", us(medianTime(p.reps, func() { r.MulAddCoeffwise(x, y, z) })))
	seed := p.s.NewSeed()
	p.rep.set("ring.uniform_from_seed_us", us(medianTime(p.reps, func() { r.UniformFromSeed(p.sw.DBasis(), seed) })))
	return nil
}

// switching prices hks serially, stage by stage, and then on the
// engine: the three dataflows, the hoisted split, and the 8-wide
// hoisted fan-out against 8 independent switches. The calls are timed
// in rounds, one of each per round, so that a ratio between two of
// them is taken inside one round and the host's drift over the probe
// cancels out of it.
func (p *prober) switching() {
	r, sw, e, rep := p.r, p.sw, p.e, p.rep
	full := r.DBasis(topLevel)
	sk := p.s.Ternary(full)
	evks := make([]*hks.Evk, fanoutWidth)
	for i := range evks {
		evks[i] = sw.GenEvk(p.s, p.s.Ternary(full), sk)
	}
	evk := evks[0]
	in := uniformNTT(p.s, sw.QBasis())
	ups := sw.ModUp(in)
	d0, d1 := sw.ApplyEvk(ups, evk)
	c0s := make([]*ring.Poly, fanoutWidth)
	c1s := make([]*ring.Poly, fanoutWidth)
	for i := range c0s {
		c0s[i], c1s[i] = r.NewPoly(sw.QBasis()), r.NewPoly(sw.QBasis())
	}
	h := sw.HoistParallel(e, dataflow.OC, in)
	defer h.Release()
	parallel := func(df dataflow.Dataflow) func() {
		return func() { sw.SwitchParallelInto(e, df, in, evk, c0s[0], c1s[0]) }
	}
	p.directSingle = parallel(dataflow.OC)
	p.directFanout = func() { sw.SwitchHoistedParallelInto(e, dataflow.OC, in, evks, c0s, c1s) }

	const (
		decompose = iota
		modUp
		apply
		modDown
		serial
		mp
		dc
		oc
		hoist
		replay
		hoisted
	)
	t := interleaved(p.reps,
		func() { sw.Decompose(in) },
		func() { sw.ModUp(in) },
		func() { sw.ApplyEvk(ups, evk) },
		func() { sw.ModDown(d0); sw.ModDown(d1) },
		func() { sw.KeySwitch(in, evk) },
		parallel(dataflow.MP), parallel(dataflow.DC), parallel(dataflow.OC),
		func() { sw.HoistParallel(e, dataflow.OC, in).Release() },
		func() { h.SwitchParallelInto(e, evk, c0s[0], c1s[0]) },
		p.directFanout,
	)
	med := func(i int) float64 { return median(t[i]) / 1e6 } // ms
	perRound := func(f func(k int) float64) float64 {
		xs := make([]float64, p.reps)
		for k := range xs {
			xs[k] = f(k)
		}
		return median(xs)
	}

	rep.set("hks.decompose_us", median(t[decompose])/1e3)
	rep.set("hks.modup_ms", med(modUp))
	rep.set("hks.apply_ms", med(apply))
	rep.set("hks.moddown_ms", med(modDown))
	rep.set("hks.switch_serial_ms", med(serial))
	// ModUp calls Decompose itself, so the three stages are the whole
	// of KeySwitch and the ratio closes at 1 when nothing is lost
	// between them.
	rep.set("hks.stage_sum_over_switch", perRound(func(k int) float64 {
		return (t[modUp][k] + t[apply][k] + t[modDown][k]) / t[serial][k]
	}))
	rep.set("engine.switch_ms_mp", med(mp))
	rep.set("engine.switch_ms_dc", med(dc))
	rep.set("engine.switch_ms_oc", med(oc))
	rep.set("engine.speedup_vs_serial_x", perRound(func(k int) float64 {
		return 3 * t[serial][k] / (t[mp][k] + t[dc][k] + t[oc][k])
	}))
	rep.set("engine.parallel_for_us", us(medianTime(p.reps, func() { e.ParallelFor(16, func(int) {}) })))
	rep.set("hks.hoist_ms", med(hoist))
	rep.set("hks.replay_ms", med(replay))
	rep.set("hks.hoisted8_ms_per_switch", med(hoisted)/fanoutWidth)
	rep.set("hks.hoist_speedup_x", perRound(func(k int) float64 { return fanoutWidth * t[oc][k] / t[hoisted][k] }))
	rep.set("hks.hoist_model_x", sw.HoistedSpeedupModel(fanoutWidth))
	if cevk, ok := evk.Compress(); ok {
		rep.set("hks.expand_ms", ms(medianTime(p.reps, func() { cevk.Expand(r) })))
	}
	rep.set("hks.switch_mod_ops", float64(sw.SwitchOps()))
	rep.set("hks.modup_mod_ops", float64(sw.ModUpOps()))
}

// model prints what the paper's op and traffic model predicts for one
// switch at this shape: keys streamed from DRAM, 1 MiB on chip.
func (p *prober) model() error {
	b := params.Benchmark{Name: "bench", LogN: bits.Len(uint(p.r.N)) - 1, KL: qTowers, KP: pTowers, Dnum: p.sw.Dnum}
	if err := b.Validate(); err != nil {
		return err
	}
	p.rep.set("params.weighted_mod_ops", float64(b.Ops().WeightedTotal()))
	for _, df := range dataflow.AllDataflows() {
		s, err := dataflow.Generate(df, dataflow.Config{Bench: b, DataMemBytes: 1 << 20})
		if err != nil {
			return err
		}
		p.rep.set("dataflow.dram_mb_"+strings.ToLower(df.String()), float64(s.Traffic.TotalBytes())/(1<<20))
	}
	return nil
}

// keygen prices one hoisting-form rotation key on a chain of its own.
func (p *prober) keygen(cctx *ckks.Context, seed int64) error {
	kc, _ := ckks.GenKeys(cctx, seed)
	ds := make([]float64, p.reps)
	for i := range ds {
		t0 := time.Now()
		if _, err := kc.HoistKey(i+1, topLevel); err != nil {
			return err
		}
		ds[i] = float64(time.Since(t0))
	}
	p.rep.set("ckks.keygen_ms_per_key", median(ds)/1e6)
	return nil
}

// wire prices the cluster codec on the widest hoist group the schedule
// ships and on one result, and health-checks the shards.
func (p *prober) wire(l *dagLoad) error {
	width := l.sched.Counts().MaxWidth
	g := &cluster.Group{BaseID: 1, Tenant: l.tenants[0], Level: topLevel, Dataflow: dataflow.OC,
		Input: uniformNTT(p.s, p.sw.QBasis())}
	for rot := 1; rot <= width; rot++ {
		g.Rots = append(g.Rots, rot)
	}
	res := &cluster.WireResult{ReqID: 1, Code: cluster.ResultOK,
		C0: uniformNTT(p.s, p.sw.QBasis()), C1: uniformNTT(p.s, p.sw.QBasis())}
	gp, err := cluster.EncodeGroup(p.r, g)
	if err != nil {
		return err
	}
	rp, err := cluster.EncodeResult(p.r, res)
	if err != nil {
		return err
	}
	if _, err := cluster.DecodeGroup(p.r, gp); err != nil {
		return err
	}
	if _, err := cluster.DecodeResult(p.r, rp); err != nil {
		return err
	}
	// The four calls above succeeded on these very inputs, so the
	// timed repeats cannot fail.
	p.rep.set("cluster.encode_group_ms", ms(medianTime(p.reps, func() { _, _ = cluster.EncodeGroup(p.r, g) })))
	p.rep.set("cluster.decode_group_ms", ms(medianTime(p.reps, func() { _, _ = cluster.DecodeGroup(p.r, gp) })))
	p.rep.set("cluster.encode_result_ms", ms(medianTime(p.reps, func() { _, _ = cluster.EncodeResult(p.r, res) })))
	p.rep.set("cluster.decode_result_ms", ms(medianTime(p.reps, func() { _, _ = cluster.DecodeResult(p.r, rp) })))
	p.rep.set("cluster.group_wire_kb", float64(len(gp))/1024)
	p.rep.set("cluster.result_wire_kb", float64(len(rp))/1024)

	var pingErr error
	i := 0
	ping := medianTime(p.reps, func() {
		if err := l.router.Ping(i % l.router.NumShards()); err != nil {
			pingErr = err
		}
		i++
	})
	if pingErr != nil {
		return pingErr
	}
	p.rep.set("cluster.ping_ms", ms(ping))
	return nil
}
