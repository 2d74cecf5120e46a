package expt

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"vm1place/internal/tech"
)

// Scale sweep: the full flow at growing instance counts, recording wall
// time, peak heap and routed QoR. This is the harness behind
// `make bench-scale` (BENCH_scale.json) and the exptables -scalesweep
// flag; the peak-heap column substantiates the optimizer's bounded
// live-window memory — peak heap sublinear in the window count.

// ScalePoint is one design-size sample of the sweep.
type ScalePoint struct {
	Design   string
	NumInsts int
	// OptSec/RouteSec split the flow wall time; BuildSec covers
	// generation + floorplan + global placement.
	BuildSec, OptSec, RouteSec float64
	// PeakHeapMB is the maximum sampled live heap during the flow.
	PeakHeapMB float64
	// Routed QoR after optimization.
	RWL  int64
	DM1  int
	DRVs int
}

// ScaleSweepPoints expands a scale series for one paper design into
// deduplicated specs: scales below MinScaledInsts/NumInsts all clamp to
// the same floored point (see MinScaledInsts), so duplicates by
// NumInsts are dropped rather than silently re-run. Scales above 1
// are allowed — they grow the synthetic design past the paper's counts
// (vga at scale ~14.6 is the 1M-instance point).
func ScaleSweepPoints(design string, scales []float64) ([]DesignSpec, error) {
	var base DesignSpec
	found := false
	for _, d := range PaperDesigns {
		if d.Name == design {
			base, found = d, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDesign, design)
	}
	var out []DesignSpec
	for _, s := range scales {
		n := int(float64(base.NumInsts) * s)
		if n < MinScaledInsts {
			n = MinScaledInsts
		}
		dup := false
		for _, o := range out {
			if o.NumInsts == n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, DesignSpec{Name: base.Name, NumInsts: n, Seed: base.Seed})
		}
	}
	return out, nil
}

// PeakHeapSampler watches the live heap from a background goroutine,
// recording the maximum HeapAlloc it observes. It measures, never
// steers: the flows it wraps are bit-deterministic with or without it.
type PeakHeapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

// StartPeakHeapSampler begins sampling the heap at the given interval
// (<= 0: 10ms).
func StartPeakHeapSampler(interval time.Duration) *PeakHeapSampler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	s := &PeakHeapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *PeakHeapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	s.mu.Unlock()
}

// Stop ends sampling (taking one final sample) and returns the peak
// observed live-heap bytes.
func (s *PeakHeapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// RunScaleSweep runs the ClosedM1 flow for every deduplicated scale of
// one design, sampling peak heap around each flow. Points run
// sequentially — concurrent flows would blur the per-point heap
// attribution — so expect wall time to be the sum of the flows; size the
// scales to the machine. cfg.Workers feeds the optimizer/router worker
// pools as usual.
func RunScaleSweep(cfg SuiteConfig, design string, scales []float64) ([]ScalePoint, error) {
	specs, err := ScaleSweepPoints(design, scales)
	if err != nil {
		return nil, err
	}
	var out []ScalePoint
	for _, spec := range specs {
		fc := FlowConfig{
			Arch:          tech.ClosedM1,
			MaxOuterIters: 1,
			Workers:       cfg.Workers,
		}
		samp := StartPeakHeapSampler(0)
		start := time.Now()
		r, err := RunFlow(spec, fc)
		wall := time.Since(start).Seconds()
		peak := samp.Stop()
		if err != nil {
			return out, fmt.Errorf("expt: scale sweep %s n=%d: %w", spec.Name, spec.NumInsts, err)
		}
		out = append(out, ScalePoint{
			Design:     spec.Name,
			NumInsts:   r.NumInsts,
			BuildSec:   wall - r.OptRuntime.Seconds() - r.RouteRuntime.Seconds(),
			OptSec:     r.OptRuntime.Seconds(),
			RouteSec:   r.RouteRuntime.Seconds(),
			PeakHeapMB: float64(peak) / (1 << 20),
			RWL:        r.Final.RWL,
			DM1:        r.Final.DM1,
			DRVs:       r.Final.DRVs,
		})
	}
	return out, nil
}

// WriteScaleSweep prints the sweep series.
func WriteScaleSweep(w io.Writer, pts []ScalePoint) {
	fmt.Fprintln(w, "# Scale sweep: wall, peak heap and routed QoR vs instance count (ClosedM1)")
	fmt.Fprintln(w, "design  insts    build_s  opt_s   route_s  peak_mb   rwl_um      dm1    drvs")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6s  %7d  %7.1f  %6.1f  %7.1f  %7.1f  %10.1f  %6d  %6d\n",
			p.Design, p.NumInsts, p.BuildSec, p.OptSec, p.RouteSec,
			p.PeakHeapMB, um(p.RWL), p.DM1, p.DRVs)
	}
}
