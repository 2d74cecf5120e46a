// Command vm1bench is the repository's end-to-end benchmark. A workload
// is a batch of blocks: seeded synthetic designs of one kind. For each
// block the benchmark hands the flow only LEF and DEF bytes and times the
// user's job from outside: parse LEF/DEF, route, VM1Opt, route again,
// STA, write DEF. Every workload is work-pinned (no per-window time
// limit, a fixed branch-and-bound node cap), so QoR and kernel counts
// repeat exactly and the times measure the code. A batch of several
// designs keeps the metrics steady across seeds: one small design's work
// depends strongly on its seed.
//
//	bash vm1bench/run.sh --workload aes-closedm1-w20 --seed 102 --seconds 10 --trace 0
//
// The timed jobs run on one thread, and their phases are timed on the
// speed meter's reference clock (speed.go): CPU seconds scaled by the
// core speed measured alongside, so that a shared host's changing clock
// speed does not show as a change of the code.
//
// With --trace 0 it runs the batch in passes until --seconds have passed
// (at least one pass) and reports the end-to-end metrics: per block the
// median over passes, summed over the batch. With --trace 1 every job is
// traced with a span around every layer call; the run adds an untraced
// twin of block 0's job (for the tracing overhead), the nproc-worker
// baselines and standalone DistOpt passes on block 0, writes the spans to
// a file and reports the per-layer metrics. Either mode prints every
// metric it measured as "name value unit" lines (a traced run prints the
// end-to-end ones too, tracing overhead included) and ends its output
// with one JSON line. Every job's outputs are checked; a failed check
// makes the exit status 1.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vm1place/internal/tech"
)

// workload is one benchmark configuration, decoded from workloads.json.
type workload struct {
	Name        string  `json:"name"`
	Design      string  `json:"design"`       // paper design the workload is modelled on
	DefaultSeed int64   `json:"default_seed"` // the design's seed in expt.PaperDesigns
	Blocks      int     `json:"blocks"`       // designs in the batch
	Insts       int     `json:"insts_per_block"`
	ArchName    string  `json:"arch"`
	Util        float64 `json:"util"`
	WindowUm    float64 `json:"window_um"` // window width and height in paper µm
	LX          int     `json:"lx"`        // perturbation range in sites
	LY          int     `json:"ly"`        // perturbation range in rows
	Pairs       int     `json:"pairs"`     // perturb+flip pairs; 0 runs Algorithm 1 to convergence
	MaxNodes    int     `json:"max_nodes"` // branch-and-bound node cap per window MILP

	arch tech.Arch
}

//go:embed workloads.json
var workloadsJSON []byte

// workloads are the benchmark's batches, as workloads.json defines them.
// Each block's window MILPs stop at MaxNodes branch-and-bound nodes and
// never at a time limit.
var workloads = mustDecodeWorkloads(workloadsJSON)

func mustDecodeWorkloads(data []byte) []workload {
	var doc struct {
		Workloads []workload `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		panic(fmt.Sprintf("workloads.json: %v", err))
	}
	for i := range doc.Workloads {
		w := &doc.Workloads[i]
		found := false
		for _, a := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
			if a.String() == w.ArchName {
				w.arch, found = a, true
			}
		}
		if !found {
			panic(fmt.Sprintf("workloads.json: workload %s: unknown arch %q", w.Name, w.ArchName))
		}
	}
	return doc.Workloads
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() {
	code, err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vm1bench:", err)
	}
	os.Exit(code)
}

// options are the command-line settings of one benchmark run.
type options struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	workers  int
	recordID string
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("vm1bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", -1, "design seed (-1: the workload's default seed)")
	seconds := fs.Float64("seconds", 10, "seconds to repeat the job for")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for span files and QoR records")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return o, err
	}
	o.w, o.seed, o.seconds, o.trace = w, *seed, *seconds, *trace == 1
	if o.seed < 0 {
		o.seed = w.DefaultSeed
	}
	o.workers = runtime.NumCPU()
	o.recordID = fmt.Sprintf("%s-seed%d-%dx%d-nodes%d", w.Name, o.seed, w.Blocks, w.Insts, w.MaxNodes)
	return o, nil
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and returns the process exit code.
func run(ctx context.Context, args []string, stdout io.Writer) (int, error) {
	opt, err := parseOptions(args)
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return 1, fmt.Errorf("output directory: %w", err)
	}
	batch, err := makeBatch(opt.w, opt.seed)
	if err != nil {
		return 1, err
	}
	// The timed jobs run on one thread: a job's CPU time then is its work,
	// where parallel workers on a shared host would add scheduler waits
	// and idle spinning. The traced run's baselines measure nproc workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := opt.w.config(1)
	fmt.Fprintf(stdout, "# workload %s seed %d blocks %d x %d insts, nproc %d, jobs on 1 thread, trace %v\n",
		opt.w.Name, opt.seed, opt.w.Blocks, opt.w.Insts, opt.workers, opt.trace)

	s := newSession(ctx, opt, batch, cfg)
	s.measure()
	if opt.trace && s.err == nil {
		s.baselines()
	}
	if s.err == nil {
		s.compareRecord()
	}
	if s.err != nil {
		fmt.Fprintln(os.Stderr, "vm1bench:", s.err)
	}

	res := result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	if s.failed == 0 {
		s.printBlocks(stdout)
		e2e := s.endToEnd()
		title := "end-to-end"
		if opt.trace {
			title += " (traced jobs)"
		}
		printMetrics(stdout, title, e2e)
		if opt.trace {
			layers := s.perLayer()
			printMetrics(stdout, "per-layer", layers)
			s.printSelfTimes(stdout)
			path := filepath.Join(opt.outDir, fmt.Sprintf("spans-%s-%d.json", opt.recordID, time.Now().UnixNano()))
			if err := writeSpans(path, s.tr.spans); err != nil {
				return 1, err
			}
			fmt.Fprintf(stdout, "# spans written to %s\n", path)
			res.Metrics = layers
		} else {
			res.Metrics = e2e
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s metrics\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
