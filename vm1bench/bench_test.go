package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"vm1place/internal/expt"
)

// spec is the part of BENCHMARK.json the test checks the output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// exact lists the metrics that must repeat bit for bit between runs of
// one seed: routed QoR, objectives and every count.
var exact = map[string]bool{
	"dm1_final": true, "rwl_final_um": true, "via12_final": true, "route.overflow_final": true,
	"obj_final": true, "routed_conn_frac": true,
	"lp.solves": true, "lp.pivots": true, "lp.refactors": true, "lp.fill_nnz": true, "lp.eta_nnz": true,
	"lp.pivots_per_solve": true, "lp.eta_nnz_per_pivot": true, "lp.pivots_per_refactor": true,
	"lp.fill_nnz_per_refactor": true, "lp.pivots.perturb": true, "lp.pivots.flip": true,
	"core.iters": true, "core.obj_gain_pct": true,
	"route.overflow_init": true, "route.dm1_init": true, "route.conns": true,
	"route.failed_conns": true, "route.failed_conn_frac": true, "lefdef.def_bytes": true,
}

// shrinkWorkloads makes every workload a tiny batch for the rest of the
// test: two 200-instance blocks at a node cap of 4.
func shrinkWorkloads(t *testing.T) {
	saved := workloads
	workloads = append([]workload(nil), saved...)
	for i := range workloads {
		workloads[i].Blocks, workloads[i].Insts, workloads[i].MaxNodes = 2, 200, 4
	}
	t.Cleanup(func() { workloads = saved })
}

// runTiny runs one workload and returns its result line.
func runTiny(t *testing.T, workload, trace, out string) result {
	t.Helper()
	var buf bytes.Buffer
	args := []string{"--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--out", out}
	code, err := run(context.Background(), args, &buf)
	if err != nil || code != 0 {
		t.Fatalf("%s --trace %s: exit %d, %v\n%s", workload, trace, code, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, buf.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s --trace %s: result %+v", workload, trace, r)
	}
	return r
}

// TestWorkloadsTiny runs every workload on a tiny batch, traced and not,
// twice each: every metric BENCHMARK.json names is emitted with its
// unit, the output checks pass, and the counts and QoR of the two runs
// are exactly equal (the second run also checks them against the QoR
// record the first one left).
func TestWorkloadsTiny(t *testing.T) {
	s := loadSpec(t)
	shrinkWorkloads(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			for _, mode := range []struct {
				trace   string
				metrics []specMetric
			}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
				first := runTiny(t, w.Name, mode.trace, out)
				second := runTiny(t, w.Name, mode.trace, out)
				if len(first.Metrics) != len(mode.metrics) {
					t.Errorf("--trace %s emits %d metrics, BENCHMARK.json names %d", mode.trace, len(first.Metrics), len(mode.metrics))
				}
				for _, m := range mode.metrics {
					got, ok := first.Metrics[m.Name]
					if !ok {
						t.Errorf("--trace %s: metric %s missing", mode.trace, m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if exact[m.Name] && second.Metrics[m.Name] != got {
						t.Errorf("metric %s differs between runs: %v vs %v", m.Name, got.Value, second.Metrics[m.Name].Value)
					}
				}
			}
		})
	}
}

// TestUnknownWorkload checks a bad workload name fails without a result.
func TestUnknownWorkload(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(context.Background(), []string{"--workload", "nope", "--out", t.TempDir()}, &buf)
	if err == nil || code == 0 || buf.Len() != 0 {
		t.Fatalf("exit %d, err %v, output %q", code, err, buf.String())
	}
}

// TestBatchTotals checks the self-time arithmetic: a parent's self time
// excludes its children, passes reduce to their median per block, and
// blocks add up; baseline spans are left out.
func TestBatchTotals(t *testing.T) {
	spans := []span{
		{Name: "flow", Block: 0, Pass: 0, Parent: -1, Start: 0, End: 10e9},
		{Name: "route.init", Block: 0, Pass: 0, Parent: 0, Start: 1e9, End: 4e9},
		{Name: "flow", Block: 0, Pass: 1, Parent: -1, Start: 20e9, End: 32e9},
		{Name: "route.init", Block: 0, Pass: 1, Parent: 2, Start: 21e9, End: 26e9},
		{Name: "flow", Block: 1, Pass: 0, Parent: -1, Start: 40e9, End: 42e9},
		{Name: "core.wn", Block: -1, Parent: -1, Start: 50e9, End: 90e9},
	}
	d := batchTotals(spans, false)
	self := batchTotals(spans, true)
	if d["flow"] != 13 || d["route.init"] != 4 || d["core.wn"] != 0 {
		t.Errorf("durations %v", d)
	}
	if self["flow"] != 9 || self["route.init"] != 4 {
		t.Errorf("self times %v", self)
	}
}

// TestWorkloadsDoc checks workloads.json against BENCHMARK.json and the
// paper designs: the same workloads in the same order, each defaulting
// to its design's seed, and a layer map naming only metrics
// BENCHMARK.json defines, each exactly once.
func TestWorkloadsDoc(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, s.Workloads[i].Name, w.Name)
		}
		for _, d := range expt.PaperDesigns {
			if d.Name == w.Design && d.Seed != w.DefaultSeed {
				t.Errorf("workload %s: default seed %d, design %s has %d", w.Name, w.DefaultSeed, d.Name, d.Seed)
			}
		}
	}
	var doc struct {
		LayerMap []struct {
			Metrics []string `json:"metrics"`
		} `json:"layer_map"`
	}
	if err := json.Unmarshal(workloadsJSON, &doc); err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range s.PerLayer {
		defined[m.Name] = true
	}
	seen := map[string]bool{}
	for _, l := range doc.LayerMap {
		for _, m := range l.Metrics {
			if !defined[m] || seen[m] {
				t.Errorf("layer map metric %s: defined %v, listed twice %v", m, defined[m], seen[m])
			}
			seen[m] = true
		}
	}
	for m := range defined {
		if !seen[m] {
			t.Errorf("per-layer metric %s is in no layer of the map", m)
		}
	}
}

// TestSpeedMeter checks the reference clock on a busy thread: it
// advances with the CPU time the work takes, scaled by a plausible speed,
// and closing the meter stops its goroutine.
func TestSpeedMeter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := startSpeedMeter()
	ref0, cpu0 := m.now(), cpuSeconds()
	for cpuSeconds()-cpu0 < 0.3 {
		calibrate()
	}
	ref, cpu := m.now()-ref0, cpuSeconds()-cpu0
	m.close()
	if f := m.meanFactor(); ref <= 0 || ref < cpu*f/2 || ref > cpu*f*2 {
		t.Errorf("reference clock advanced %.3f s over %.3f CPU seconds at mean speed %.3f", ref, cpu, f)
	}
}
