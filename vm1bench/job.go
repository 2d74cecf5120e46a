package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"vm1place/internal/cells"
	"vm1place/internal/core"
	"vm1place/internal/expt"
	"vm1place/internal/layout"
	"vm1place/internal/lefdef"
	"vm1place/internal/lp"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/route"
	"vm1place/internal/sta"
	"vm1place/internal/tech"
)

// inputs are the generated LEF and DEF bytes the program is handed, plus
// how long the benchmark took to make them (outside every job metric).
type inputs struct {
	lef, def  []byte
	generateS float64
	placeS    float64
}

// makeBatch makes the inputs of every block of a run: block k is the
// workload's design generated from seed 1000·seed + k. The same
// (workload, seed) gives the same bytes.
func makeBatch(w workload, seed int64) ([]inputs, error) {
	batch := make([]inputs, w.Blocks)
	for k := range batch {
		in, err := makeInputs(w, blockSeed(seed, k))
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", k, err)
		}
		batch[k] = in
	}
	return batch, nil
}

func blockSeed(seed int64, k int) int64 { return 1000*seed + int64(k) }

// makeInputs generates, floorplans and globally places one synthetic
// design and serializes it.
func makeInputs(w workload, seed int64) (inputs, error) {
	var in inputs
	t := tech.Default()
	lib, err := cells.NewLibrary(t, w.arch)
	if err != nil {
		return in, fmt.Errorf("inputs: %w", err)
	}
	start := time.Now()
	d, err := netlist.Generate(lib, netlist.DefaultGenConfig(w.Design, w.Insts, seed))
	if err != nil {
		return in, fmt.Errorf("inputs: %w", err)
	}
	in.generateS = time.Since(start).Seconds()
	p, err := layout.NewFloorplan(t, d, w.Util)
	if err != nil {
		return in, fmt.Errorf("inputs: %w", err)
	}
	start = time.Now()
	if err := place.Global(p, place.Options{}); err != nil {
		return in, fmt.Errorf("inputs: %w", err)
	}
	in.placeS = time.Since(start).Seconds()
	var lef, def bytes.Buffer
	if err := lefdef.WriteLEF(&lef, lib); err != nil {
		return in, fmt.Errorf("inputs: %w", err)
	}
	if err := lefdef.WriteDEF(&def, p); err != nil {
		return in, fmt.Errorf("inputs: %w", err)
	}
	in.lef, in.def = lef.Bytes(), def.Bytes()
	return in, nil
}

// jobConfig is what a user of the flow chooses: the technology and cell
// architecture the files are read against, and the optimizer's
// work-pinned parameters and sequence. The router runs with the
// optimizer's worker count.
type jobConfig struct {
	tech *tech.Tech
	arch tech.Arch
	prm  core.Params
	seq  core.Sequence
}

func (w workload) config(workers int) jobConfig {
	t := tech.Default()
	prm := core.DefaultParams(t, w.arch)
	prm.TimeLimit = 0 // work-pinned: every window stops at MaxNodes only
	prm.MaxNodes = w.MaxNodes
	prm.Workers = workers
	prm.MaxOuterIters = w.Pairs
	bw := expt.UmToDBU(w.WindowUm)
	return jobConfig{
		tech: t,
		arch: w.arch,
		prm:  prm,
		seq:  core.Sequence{{BW: bw, BH: bw, LX: w.LX, LY: w.LY}},
	}
}

// qor is everything a job computes that must repeat exactly for one seed:
// routed metrics of both routes, the optimizer's objectives and iteration
// count, its simplex-kernel counts and a hash of the DEF it wrote.
type qor struct {
	Init, Final route.Metrics
	ObjInit     core.Objective
	ObjFinal    core.Objective
	Iters       int
	LP          lp.Stats
	Conns       int // router connections of one routing (Σ endpoints-1)
	WNS         float64
	DEFBytes    int
	DEFHash     uint64
}

// jobOut is one timed job's measurements and outputs. The phase times are
// on the speed meter's reference clock; flowCPUS and flowWallS are the
// whole job's CPU and wall seconds as the host gave them.
type jobOut struct {
	setupS, optS, flowS float64
	flowCPUS, flowWallS float64
	allocMB             float64
	optMallocs          uint64
	optAllocMB          float64
	q                   qor
	final               *layout.Placement
	res                 core.Result
	def                 []byte
}

// runJob is the user's job, timed from outside: parse LEF/DEF, route,
// VM1Opt, route again, STA, write DEF. tr (nil when tracing is off)
// records a span around every layer call; clk times the phases.
func runJob(ctx context.Context, in inputs, cfg jobConfig, tr *tracer, clk *speedMeter) (jobOut, error) {
	var o jobOut
	var ms0, ms1, ms2, ms3 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start, cpuStart, wallStart := clk.now(), cpuSeconds(), time.Now()
	root := tr.begin("flow")

	sp := tr.begin("lefdef.parse")
	p, err := readInput(in, cfg)
	if err != nil {
		return o, fmt.Errorf("job: %w", err)
	}
	tr.end(sp)

	rcfg := route.DefaultConfig(cfg.tech, cfg.arch)
	rcfg.Workers = cfg.prm.Workers
	sp = tr.begin("route.build")
	r := route.New(p, rcfg)
	tr.end(sp)
	sp = tr.begin("route.init")
	o.q.Init, err = r.RouteAllCtx(ctx)
	if err != nil {
		return o, fmt.Errorf("job: initial route: %w", err)
	}
	tr.end(sp)
	o.setupS = clk.now() - start

	runtime.ReadMemStats(&ms1)
	lp0 := lp.GlobalStats()
	optStart := clk.now()
	sp = tr.begin("core.vm1opt")
	o.res, err = core.VM1OptCtx(ctx, p, cfg.prm, cfg.seq)
	if err != nil {
		return o, fmt.Errorf("job: %w", err)
	}
	tr.end(sp)
	o.optS = clk.now() - optStart
	o.q.LP = lpDelta(lp0, lp.GlobalStats())
	runtime.ReadMemStats(&ms2)
	o.optMallocs = ms2.Mallocs - ms1.Mallocs
	o.optAllocMB = float64(ms2.TotalAlloc-ms1.TotalAlloc) / (1 << 20)

	sp = tr.begin("route.build")
	r = route.New(p, rcfg)
	tr.end(sp)
	sp = tr.begin("route.final")
	o.q.Final, err = r.RouteAllCtx(ctx)
	if err != nil {
		return o, fmt.Errorf("job: final route: %w", err)
	}
	tr.end(sp)

	sp = tr.begin("sta.analyze")
	rep := sta.Analyze(p, sta.DefaultConfig(), nil)
	tr.end(sp)

	sp = tr.begin("lefdef.write")
	var out bytes.Buffer
	if err := lefdef.WriteDEF(&out, p); err != nil {
		return o, fmt.Errorf("job: %w", err)
	}
	tr.end(sp)
	tr.end(root)
	o.flowS = clk.now() - start
	o.flowCPUS, o.flowWallS = cpuSeconds()-cpuStart, time.Since(wallStart).Seconds()
	runtime.ReadMemStats(&ms3)
	o.allocMB = float64(ms3.TotalAlloc-ms0.TotalAlloc) / (1 << 20)

	o.final, o.def = p, out.Bytes()
	o.q.ObjInit, o.q.ObjFinal, o.q.Iters = o.res.Initial, o.res.Final, o.res.Iters
	o.q.Conns = routerConns(p.Design)
	o.q.WNS = rep.WNS
	o.q.DEFBytes = len(o.def)
	h := fnv.New64a()
	h.Write(o.def)
	o.q.DEFHash = h.Sum64()
	return o, nil
}

// readInput parses a block's LEF and DEF bytes.
func readInput(in inputs, cfg jobConfig) (*layout.Placement, error) {
	lib, err := lefdef.ParseLEF(bytes.NewReader(in.lef), cfg.tech)
	if err != nil {
		return nil, err
	}
	return lefdef.ParseDEF(bytes.NewReader(in.def), cfg.tech, lib)
}

func lpDelta(a, b lp.Stats) lp.Stats {
	return lp.Stats{
		Solves:    b.Solves - a.Solves,
		Pivots:    b.Pivots - a.Pivots,
		Refactors: b.Refactors - a.Refactors,
		FillNnz:   b.FillNnz - a.FillNnz,
		EtaNnz:    b.EtaNnz - a.EtaNnz,
	}
}

// routerConns counts the connections one routing attempts: a signal net
// with k >= 2 endpoints (instance pins and ports) is k-1 connections of
// its route tree. It is the base of failed_conn_frac.
func routerConns(d *netlist.Design) int {
	ports := make([]int, len(d.Nets))
	for _, pt := range d.Ports {
		if pt.Net >= 0 && pt.Net < len(ports) {
			ports[pt.Net]++
		}
	}
	conns := 0
	for ni := range d.Nets {
		n := &d.Nets[ni]
		if n.IsClock {
			continue
		}
		if k := n.NumConns() + ports[ni]; k >= 2 {
			conns += k - 1
		}
	}
	return conns
}

// errCheck marks an output check failure, as opposed to a job error.
var errCheck = errors.New("output check failed")

// checkJob verifies what a job produced: a legal final placement, a
// tracked objective equal to a rescan, no objective regression, and a
// DEF that reads back to the same sites, rows and flips.
func checkJob(o jobOut, cfg jobConfig) error {
	if err := o.final.CheckLegal(); err != nil {
		return fmt.Errorf("%w: final placement illegal: %w", errCheck, err)
	}
	if got := core.CalculateObj(o.final, cfg.prm); got != o.res.Final {
		return fmt.Errorf("%w: Result.Final %+v != rescan %+v", errCheck, o.res.Final, got)
	}
	if o.res.Final.Value > o.res.Initial.Value {
		return fmt.Errorf("%w: objective rose %v -> %v", errCheck, o.res.Initial.Value, o.res.Final.Value)
	}
	q, err := lefdef.ParseDEF(bytes.NewReader(o.def), cfg.tech, o.final.Design.Lib)
	if err != nil {
		return fmt.Errorf("%w: output DEF does not parse: %w", errCheck, err)
	}
	p := o.final
	if len(q.Design.Insts) != len(p.Design.Insts) {
		return fmt.Errorf("%w: output DEF has %d instances, want %d", errCheck, len(q.Design.Insts), len(p.Design.Insts))
	}
	for i := range p.Design.Insts {
		if q.Design.Insts[i].Name != p.Design.Insts[i].Name ||
			q.SiteX[i] != p.SiteX[i] || q.Row[i] != p.Row[i] || q.Flip[i] != p.Flip[i] {
			return fmt.Errorf("%w: output DEF instance %s reads back at (%d,%d,%v), want (%d,%d,%v)",
				errCheck, p.Design.Insts[i].Name, q.SiteX[i], q.Row[i], q.Flip[i], p.SiteX[i], p.Row[i], p.Flip[i])
		}
	}
	return nil
}
