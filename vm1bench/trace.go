package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed layer call recorded by the benchmark around a call
// into the program. Block and Pass name the job it belongs to (Block -1
// for the baselines); Parent is the index of the enclosing span in the
// tracer's list, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Run    string `json:"run"`
	Block  int    `json:"block"`
	Pass   int    `json:"pass"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced jobs pay only a nil check.
type tracer struct {
	run   string
	epoch time.Time
	block int
	pass  int
	spans []span
	open  int // innermost open span, -1 at top level
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), open: -1}
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Run: t.run, Block: t.block, Pass: t.pass, Parent: t.open,
		Start: time.Since(t.epoch).Nanoseconds(),
	})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.spans[id].Parent
}

// batchTotals returns, per span name, its seconds over the batch: per
// block, the median over passes of that name's summed spans in the job,
// summed over blocks. With self set it uses self times instead: a span's
// duration minus the part of its interval its direct children cover (the
// benchmark calls layers in sequence, so children never overlap).
// Baseline spans (block < 0) are left out.
func batchTotals(spans []span, self bool) map[string]float64 {
	child := make([]int64, len(spans))
	if self {
		for _, s := range spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
	}
	type key struct {
		name        string
		block, pass int
	}
	sums := map[key]float64{}
	for i, s := range spans {
		if s.Block >= 0 {
			sums[key{s.Name, s.Block, s.Pass}] += float64(s.End-s.Start-child[i]) / 1e9
		}
	}
	type nb struct {
		name  string
		block int
	}
	passes := map[nb][]float64{}
	for k, v := range sums {
		passes[nb{k.name, k.block}] = append(passes[nb{k.name, k.block}], v)
	}
	out := map[string]float64{}
	for k, v := range passes {
		out[k.name] += median(v)
	}
	return out
}

// writeSpans writes the span list as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
