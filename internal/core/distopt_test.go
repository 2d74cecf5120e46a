package core

import (
	"context"
	"testing"
	"time"

	"vm1place/internal/tech"
)

// maxFamilyLen returns the window count of the grid's largest diagonal
// family.
func maxFamilyLen(g passGrid) int {
	n := 0
	for _, fam := range diagonalFamilies(g) {
		n = max(n, len(fam))
	}
	return n
}

// TestVM1OptWorkersInvariance is DistOpt's core parallelism guarantee:
// window solves are independent of the worker that runs them and each
// family's moves commit as one batch in family window order, so every
// Workers count yields bit-identical placements and objectives. The
// windows are small enough that families outgrow the next-family
// prebuild budget, so both prebuilt and lazily built windows are solved.
func TestVM1OptWorkersInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full optimizer passes")
	}
	seq := Sequence{{BW: 1000, BH: 1000, LX: 3, LY: 1}}
	type snap struct {
		site []int
		row  []int
		flip []bool
		res  Result
	}
	run := func(workers int) snap {
		p := genPlaced(t, tech.ClosedM1, 300, 29, 0.75)
		if n := maxFamilyLen(makeGrid(p, seq[0], 0, 0)); n <= workers {
			t.Fatalf("largest family has %d windows; want > %d so it outgrows the prebuild budget",
				n, workers)
		}
		prm := DefaultParams(p.Tech, tech.ClosedM1)
		prm.Workers = workers
		prm.MaxNodes = 40
		prm.TimeLimit = 0 // untimed: identical work regardless of wall clock
		prm.MaxOuterIters = 1
		res := VM1Opt(p, prm, seq)
		return snap{
			site: append([]int(nil), p.SiteX...),
			row:  append([]int(nil), p.Row...),
			flip: append([]bool(nil), p.Flip...),
			res:  res,
		}
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		got := run(w)
		if got.res.Final != base.res.Final {
			t.Fatalf("Workers=%d final objective diverged:\n got %+v\nwant %+v",
				w, got.res.Final, base.res.Final)
		}
		for i := range base.site {
			if got.site[i] != base.site[i] || got.row[i] != base.row[i] ||
				got.flip[i] != base.flip[i] {
				t.Fatalf("Workers=%d placement diverged at inst %d: "+
					"(%d,%d,%v) vs (%d,%d,%v)", w, i,
					got.site[i], got.row[i], got.flip[i],
					base.site[i], base.row[i], base.flip[i])
			}
		}
	}
}

// TestVM1OptParallelLegalAndTracked checks that the parallel loop
// composes with the deadline machinery: a short timed run with four
// workers stays legal and its tracked Final matches a fresh rescan.
func TestVM1OptParallelLegalAndTracked(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 300, 31, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.Workers = 4
	prm.MaxNodes = 40
	prm.TimeLimit = 100 * time.Millisecond
	prm.MaxOuterIters = 1
	res := VM1Opt(p, prm, Sequence{{BW: 2000, BH: 2000, LX: 3, LY: 1}})
	if err := p.CheckLegal(); err != nil {
		t.Fatalf("illegal after parallel pass: %v", err)
	}
	if want := CalculateObj(p, prm); res.Final != want {
		t.Fatalf("final objective diverged from rescan:\n got %+v\nwant %+v",
			res.Final, want)
	}
}

// TestDistOptLiveWindowsBounded checks DistOpt's memory bound: each
// window is released as soon as its moves are extracted, and at most
// pool.workers windows of the next family are prebuilt, each from a
// released window, so a pass never holds more than 2 x workers windows
// (workers solving plus one prebuild budget) however many windows a
// family has. The freelist keeps every window ever allocated, so its size
// after the pass is the peak live-window count.
func TestDistOptLiveWindowsBounded(t *testing.T) {
	const workers = 2
	p := genPlaced(t, tech.ClosedM1, 800, 7, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.Workers = workers
	prm.MaxNodes = 4
	prm.TimeLimit = 0
	ps := ParamSet{BW: 500, BH: 500, LX: 3, LY: 1}
	g := makeGrid(p, ps, 0, 0)
	if n := maxFamilyLen(g); n <= 3*workers {
		t.Fatalf("largest family has %d windows; want > %d for a meaningful bound", n, 3*workers)
	}

	pool := newSolverPool(workers)
	tr := NewObjTracker(p, prm)
	if _, err := distPass(context.Background(), tr, ps, g, pool, true, false); err != nil {
		t.Fatal(err)
	}
	if pool.made != len(pool.free) {
		t.Errorf("%d windows allocated but %d back on the freelist", pool.made, len(pool.free))
	}
	if len(pool.free) > 2*workers {
		t.Errorf("pass held %d windows at once; want <= 2 x workers = %d", len(pool.free), 2*workers)
	}
}
