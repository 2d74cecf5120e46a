package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vm1place/internal/core"
	"vm1place/internal/expt"
	"vm1place/internal/layout"
	"vm1place/internal/lefdef"
	"vm1place/internal/lp"
	"vm1place/internal/route"
)

// sample is the timing and allocation of one job: the phase times on the
// speed meter's reference clock, and the job's CPU and wall seconds.
type sample struct {
	setupS, optS, flowS, allocMB float64
	flowCPUS, flowWallS          float64
	optMallocs                   uint64
	optAllocMB                   float64
}

// session is one benchmark run over a batch of blocks: the jobs it timed,
// each block's reference outputs and, when tracing, the baselines.
type session struct {
	ctx   context.Context
	opt   options
	batch []inputs
	cfg   jobConfig

	attempted, failed int
	err               error

	ref     []*jobOut  // per block, the first job's outputs; later jobs must match
	samples [][]sample // per block, the timed jobs (traced in a traced run)
	twin    []sample   // traced run: block 0's untraced jobs
	tr      *tracer
	peak    uint64
	clk     *speedMeter
	speed   float64 // the meter's mean speed factor over the timed jobs

	coreWnS, routeWnS, perturbS, flipS float64
	lpPerturb, lpFlip                  lp.Stats
	oracleS                            float64
}

func newSession(ctx context.Context, opt options, batch []inputs, cfg jobConfig) *session {
	s := &session{
		ctx: ctx, opt: opt, batch: batch, cfg: cfg,
		ref:     make([]*jobOut, len(batch)),
		samples: make([][]sample, len(batch)),
	}
	if opt.trace {
		s.tr = newTracer(fmt.Sprintf("%s-%d", opt.recordID, time.Now().UnixNano()))
	}
	return s
}

// fail counts one failed operation and keeps the first error.
func (s *session) fail(err error) {
	s.failed++
	if s.err == nil {
		s.err = err
	}
}

// measure runs the job on every block of the batch, in passes, until
// --seconds have passed (at least one pass), checking every job's
// outputs. In a traced run every job is traced, and block 0 also runs
// untraced just before its traced job: the pair gives the tracing
// overhead on one design.
func (s *session) measure() {
	s.clk = startSpeedMeter()
	defer func() {
		s.speed = s.clk.meanFactor()
		s.clk.close()
	}()
	start := time.Now()
	for pass := 0; ; pass++ {
		for k := range s.batch {
			var tr *tracer
			if s.opt.trace {
				if k == 0 && !s.job(k, pass, nil) {
					return
				}
				tr = s.tr
				tr.block, tr.pass = k, pass
			}
			if !s.job(k, pass, tr) {
				return
			}
		}
		if time.Since(start).Seconds() >= s.opt.seconds {
			return
		}
	}
}

// job runs and checks one job on block k; it reports whether to go on.
func (s *session) job(k, pass int, tr *tracer) bool {
	var heap *expt.PeakHeapSampler
	if tr != nil {
		heap = expt.StartPeakHeapSampler(0)
	}
	o, err := runJob(s.ctx, s.batch[k], s.cfg, tr, s.clk)
	if heap != nil {
		s.peak = max(s.peak, heap.Stop())
	}
	s.attempted++
	if err == nil {
		err = checkJob(o, s.cfg)
	}
	if ref := s.ref[k]; err == nil && ref != nil && o.q != ref.q {
		err = fmt.Errorf("%w: pass %d QoR/counts %+v differ from the first job's %+v", errCheck, pass, o.q, ref.q)
	}
	if err != nil {
		s.fail(fmt.Errorf("block %d: %w", k, err))
		return false
	}
	if s.ref[k] == nil {
		s.ref[k] = &o
	}
	smp := sample{o.setupS, o.optS, o.flowS, o.allocMB, o.flowCPUS, o.flowWallS, o.optMallocs, o.optAllocMB}
	if s.opt.trace && tr == nil {
		s.twin = append(s.twin, smp)
	} else {
		s.samples[k] = append(s.samples[k], smp)
	}
	return true
}

// baselines runs on block 0, once each and traced: the optimization and
// routing with nproc workers on nproc threads, a standalone DistOpt
// perturb pass and flip pass on clones of the input, and CalculateObj
// rescans. The parallel runs must reproduce the single-threaded job's
// placement, kernel counts and routing.
func (s *session) baselines() {
	s.tr.block, s.tr.pass = -1, 0
	base, err := readInput(s.batch[0], s.cfg)
	if err != nil {
		s.fail(fmt.Errorf("baseline: %w", err))
		return
	}
	timed := func(name string, f func()) float64 {
		sp := s.tr.begin(name)
		start := time.Now()
		f()
		d := time.Since(start).Seconds()
		s.tr.end(sp)
		return d
	}
	lpRun := func(name string, f func()) (float64, lp.Stats) {
		lp0 := lp.GlobalStats()
		d := timed(name, f)
		return d, lpDelta(lp0, lp.GlobalStats())
	}
	ref := s.ref[0]

	nproc := s.opt.workers
	prev := runtime.GOMAXPROCS(nproc)
	s.attempted++
	p := base.Clone()
	prmN := s.cfg.prm
	prmN.Workers = nproc
	var res core.Result
	var wnLP lp.Stats
	s.coreWnS, wnLP = lpRun("core.wn", func() { res, err = core.VM1OptCtx(s.ctx, p, prmN, s.cfg.seq) })
	if err == nil {
		err = sameAsRef(ref, p, res, wnLP)
	}
	if err != nil {
		runtime.GOMAXPROCS(prev)
		s.fail(fmt.Errorf("core Workers=%d baseline: %w", nproc, err))
		return
	}

	s.attempted++
	rcfg := route.DefaultConfig(s.cfg.tech, s.cfg.arch)
	rcfg.Workers = nproc
	var m route.Metrics
	s.routeWnS = timed("route.wn", func() { m, err = route.New(base, rcfg).RouteAllCtx(s.ctx) })
	runtime.GOMAXPROCS(prev)
	if err == nil && m != ref.q.Init {
		err = fmt.Errorf("%w: metrics %+v, want %+v", errCheck, m, ref.q.Init)
	}
	if err != nil {
		s.fail(fmt.Errorf("route Workers=%d baseline: %w", nproc, err))
		return
	}

	ps := s.cfg.seq[0]
	pp, pf := base.Clone(), base.Clone()
	s.perturbS, s.lpPerturb = lpRun("core.perturb_pass", func() { core.DistOpt(pp, s.cfg.prm, ps, 0, 0, true, false) })
	s.flipS, s.lpFlip = lpRun("core.flip_pass", func() { core.DistOpt(pf, s.cfg.prm, ps, 0, 0, false, true) })
	s.attempted += 2
	for _, q := range []*layout.Placement{pp, pf} {
		if err := q.CheckLegal(); err != nil {
			s.fail(fmt.Errorf("%w: standalone pass left an illegal placement: %w", errCheck, err))
			return
		}
	}

	var rescans []float64
	for i := 0; i < 5; i++ {
		rescans = append(rescans, timed("core.oracle", func() { core.CalculateObj(ref.final, s.cfg.prm) }))
	}
	s.oracleS = median(rescans)
}

// sameAsRef checks a baseline optimization against the reference job:
// the same final objective, placement and simplex-kernel counts.
func sameAsRef(ref *jobOut, p *layout.Placement, res core.Result, st lp.Stats) error {
	if res.Final != ref.res.Final || res.Iters != ref.res.Iters {
		return fmt.Errorf("%w: objective %+v after %d pairs, want %+v after %d",
			errCheck, res.Final, res.Iters, ref.res.Final, ref.res.Iters)
	}
	if st != ref.q.LP {
		return fmt.Errorf("%w: kernel counts %+v, want %+v", errCheck, st, ref.q.LP)
	}
	var buf bytes.Buffer
	if err := lefdef.WriteDEF(&buf, p); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if h.Sum64() != ref.q.DEFHash {
		return fmt.Errorf("%w: placement differs from the parallel job's", errCheck)
	}
	return nil
}

// compareRecord checks every block's QoR and counts against the record
// an earlier run of the same binary, workload and seed left in the output
// directory, or leaves that record for later runs. The record is keyed by
// a digest of the running binary, so changed code starts a fresh record
// instead of being held to the old code's QoR.
func (s *session) compareRecord() {
	cur := make([]qor, len(s.ref))
	for k, r := range s.ref {
		cur[k] = r.q
	}
	code, err := codeDigest()
	if err != nil {
		s.fail(fmt.Errorf("QoR record: %w", err))
		return
	}
	path := filepath.Join(s.opt.outDir, "qor-"+s.opt.recordID+"-"+code+".json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err = json.Marshal(cur)
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			s.fail(fmt.Errorf("QoR record: %w", err))
		}
		return
	}
	var prev []qor
	if err == nil {
		err = json.Unmarshal(data, &prev)
	}
	if err != nil {
		s.fail(fmt.Errorf("QoR record %s: %w", path, err))
		return
	}
	for k := range cur {
		if k >= len(prev) || prev[k] != cur[k] {
			s.fail(fmt.Errorf("%w: block %d QoR/counts differ from an earlier run's (%s)", errCheck, k, path))
			return
		}
	}
}

// codeDigest is a short hex digest of the running binary.
func codeDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// batchQoR is the QoR and counts of every block's reference job, summed.
type batchQoR struct {
	init, final       route.Metrics
	objInit, objFinal float64
	iters, conns      int
	lp                lp.Stats
	defBytes          int
}

func (s *session) total() batchQoR {
	var t batchQoR
	for _, r := range s.ref {
		q := r.q
		for _, m := range []struct{ sum, add *route.Metrics }{{&t.init, &q.Init}, {&t.final, &q.Final}} {
			m.sum.RWL += m.add.RWL
			m.sum.Via12 += m.add.Via12
			m.sum.DM1 += m.add.DM1
			m.sum.Overflow += m.add.Overflow
			m.sum.FailedConns += m.add.FailedConns
		}
		t.objInit += q.ObjInit.Value
		t.objFinal += q.ObjFinal.Value
		t.iters += q.Iters
		t.conns += q.Conns
		t.lp.Solves += q.LP.Solves
		t.lp.Pivots += q.LP.Pivots
		t.lp.Refactors += q.LP.Refactors
		t.lp.FillNnz += q.LP.FillNnz
		t.lp.EtaNnz += q.LP.EtaNnz
		t.defBytes += q.DEFBytes
	}
	return t
}

// batchSum sums over blocks the median over passes of one job field.
func batchSum(per [][]sample, f func(sample) float64) float64 {
	var sum float64
	for _, xs := range per {
		v := make([]float64, len(xs))
		for i, x := range xs {
			v[i] = f(x)
		}
		sum += median(v)
	}
	return sum
}

// endToEnd returns the user-visible metrics of the batch: reference-clock
// times and allocation summed over blocks (each the median over passes of
// its jobs), and the exactly repeating routed QoR summed over blocks. In
// a traced run the times include the tracing overhead.
func (s *session) endToEnd() map[string]metric {
	t := s.total()
	sum := func(f func(sample) float64) float64 { return batchSum(s.samples, f) }
	return map[string]metric{
		"setup_s":          {sum(func(x sample) float64 { return x.setupS }), "s"},
		"opt_ref_s":        {sum(func(x sample) float64 { return x.optS }), "s"},
		"flow_ref_s":       {sum(func(x sample) float64 { return x.flowS }), "s"},
		"alloc_mb":         {sum(func(x sample) float64 { return x.allocMB }), "MB"},
		"dm1_final":        {float64(t.final.DM1), "count"},
		"rwl_final_um":     {float64(t.final.RWL) / float64(s.cfg.tech.DBUPerMicron), "um"},
		"via12_final":      {float64(t.final.Via12), "count"},
		"obj_final":        {t.objFinal, "dbu"},
		"routed_conn_frac": {1 - float64(t.init.FailedConns+t.final.FailedConns)/float64(2*t.conns), "frac"},
	}
}

// perLayer returns the per-layer metrics of a traced run: span times
// summed over the batch, kernel counts and their ratios, the block-0
// baselines, input generation and the tracing overhead.
func (s *session) perLayer() map[string]metric {
	t := s.total()
	d := batchTotals(s.tr.spans, false)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tsum := func(f func(sample) float64) float64 { return batchSum(s.samples, f) }
	var genS, placeS float64
	for _, in := range s.batch {
		genS += in.generateS
		placeS += in.placeS
	}
	// The baselines and the untraced twin run on block 0; set them
	// against block 0's traced jobs.
	var opt0, route0 []float64
	for _, sp := range s.tr.spans {
		if sp.Block == 0 && sp.Name == "core.vm1opt" {
			opt0 = append(opt0, float64(sp.End-sp.Start)/1e9)
		}
		if sp.Block == 0 && sp.Name == "route.init" {
			route0 = append(route0, float64(sp.End-sp.Start)/1e9)
		}
	}
	flowS := func(x sample) float64 { return x.flowS }
	nproc := float64(s.opt.workers)
	flow := d["flow"]
	lpm := t.lp
	failed := float64(t.init.FailedConns + t.final.FailedConns)
	return map[string]metric{
		"lp.solves":                {float64(lpm.Solves), "count"},
		"lp.pivots":                {float64(lpm.Pivots), "count"},
		"lp.refactors":             {float64(lpm.Refactors), "count"},
		"lp.fill_nnz":              {float64(lpm.FillNnz), "count"},
		"lp.eta_nnz":               {float64(lpm.EtaNnz), "count"},
		"lp.pivots_per_solve":      {ratio(float64(lpm.Pivots), float64(lpm.Solves)), "pivot/solve"},
		"lp.eta_nnz_per_pivot":     {ratio(float64(lpm.EtaNnz), float64(lpm.Pivots)), "nnz/pivot"},
		"lp.pivots_per_refactor":   {ratio(float64(lpm.Pivots), float64(lpm.Refactors)), "pivot/refactor"},
		"lp.fill_nnz_per_refactor": {ratio(float64(lpm.FillNnz), float64(lpm.Refactors)), "nnz/refactor"},
		"lp.us_per_pivot":          {ratio(tsum(func(x sample) float64 { return x.optS })*1e6, float64(lpm.Pivots)), "us/pivot"},
		"lp.pivots.perturb":        {float64(s.lpPerturb.Pivots), "count"},
		"lp.pivots.flip":           {float64(s.lpFlip.Pivots), "count"},

		"core.vm1opt_s":       {d["core.vm1opt"], "s"},
		"core.iters":          {float64(t.iters), "count"},
		"core.obj_gain_pct":   {100 * ratio(t.objInit-t.objFinal, abs(t.objInit)), "%"},
		"core.mallocs":        {tsum(func(x sample) float64 { return float64(x.optMallocs) }), "count"},
		"core.alloc_mb":       {tsum(func(x sample) float64 { return x.optAllocMB }), "MB"},
		"core.oracle_s":       {s.oracleS, "s"},
		"core.perturb_pass_s": {s.perturbS, "s"},
		"core.flip_pass_s":    {s.flipS, "s"},
		"core.wn_s":           {s.coreWnS, "s"},
		"core.parallel_eff":   {ratio(median(opt0), nproc*s.coreWnS), "frac"},
		"core.share_pct":      {100 * ratio(d["core.vm1opt"], flow), "%"},

		"route.build_s":          {d["route.build"], "s"},
		"route.init_s":           {d["route.init"], "s"},
		"route.final_s":          {d["route.final"], "s"},
		"route.overflow_init":    {float64(t.init.Overflow), "count"},
		"route.overflow_final":   {float64(t.final.Overflow), "count"},
		"route.dm1_init":         {float64(t.init.DM1), "count"},
		"route.conns":            {float64(2 * t.conns), "count"},
		"route.failed_conns":     {failed, "count"},
		"route.failed_conn_frac": {ratio(failed, float64(2*t.conns)), "frac"},
		"route.wn_s":             {s.routeWnS, "s"},
		"route.parallel_eff":     {ratio(median(route0), nproc*s.routeWnS), "frac"},
		"route.share_pct":        {100 * ratio(d["route.build"]+d["route.init"]+d["route.final"], flow), "%"},

		"sta.analyze_s":    {d["sta.analyze"], "s"},
		"lefdef.parse_s":   {d["lefdef.parse"], "s"},
		"lefdef.write_s":   {d["lefdef.write"], "s"},
		"lefdef.def_bytes": {float64(t.defBytes), "bytes"},

		"netlist.generate_s": {genS, "s"},
		"place.global_s":     {placeS, "s"},
		"peak_heap_mb":       {float64(s.peak) / (1 << 20), "MB"},
		"trace.overhead_s":   {batchSum(s.samples[:1], flowS) - batchSum([][]sample{s.twin}, flowS), "s"},
		"job.flow_cpu_s":     {tsum(func(x sample) float64 { return x.flowCPUS }), "s"},
		"job.flow_wall_s":    {tsum(func(x sample) float64 { return x.flowWallS }), "s"},
		"host.speed_factor":  {s.speed, "x"},
	}
}

// printSelfTimes prints, per span name, its batch total and self time,
// and the block-0 baseline spans.
func (s *session) printSelfTimes(w io.Writer) {
	dur := batchTotals(s.tr.spans, false)
	self := batchTotals(s.tr.spans, true)
	names := make([]string, 0, len(dur))
	for n := range dur {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# spans over %d blocks: name, batch seconds, batch self seconds\n", len(s.batch))
	for _, n := range names {
		fmt.Fprintf(w, "#   %-20s %10.4f %10.4f\n", n, dur[n], self[n])
	}
	fmt.Fprintln(w, "# baseline spans on block 0: name, seconds")
	for _, sp := range s.tr.spans {
		if sp.Block < 0 {
			fmt.Fprintf(w, "#   %-20s %10.4f\n", sp.Name, float64(sp.End-sp.Start)/1e9)
		}
	}
}

// printBlocks prints one line per block: its seed, size, median times
// over untraced jobs and its kernel and QoR counts.
func (s *session) printBlocks(w io.Writer) {
	fmt.Fprintln(w, "# block seed insts setup_s opt_ref_s flow_ref_s flow_cpu_s flow_wall_s lp.pivots dm1_init dm1_final")
	for k, r := range s.ref {
		one := s.samples[k : k+1]
		fmt.Fprintf(w, "# %5d %d %d %.4f %.4f %.4f %.4f %.4f %d %d %d\n", k, blockSeed(s.opt.seed, k),
			len(r.final.Design.Insts),
			batchSum(one, func(x sample) float64 { return x.setupS }),
			batchSum(one, func(x sample) float64 { return x.optS }),
			batchSum(one, func(x sample) float64 { return x.flowS }),
			batchSum(one, func(x sample) float64 { return x.flowCPUS }),
			batchSum(one, func(x sample) float64 { return x.flowWallS }),
			r.q.LP.Pivots, r.q.Init.DM1, r.q.Final.DM1)
	}
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
