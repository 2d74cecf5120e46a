package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vm1place/internal/geom"
	"vm1place/internal/layout"
)

// passGrid is the window decomposition of one DistOpt call: the window
// rectangles, the grid dimensions, and per-window instance buckets. The
// perturbation and flip passes of one Algorithm 1 iteration use the same
// offset (tx, ty), and a movable cell only ever relocates within the one
// window that fully contains it, so the grid stays exact across the pass
// pair and is computed once per iteration instead of once per pass.
type passGrid struct {
	rects    []geom.Rect
	nwx, nwy int
	buckets  [][]int
}

func makeGrid(p *layout.Placement, ps ParamSet, tx, ty int64) passGrid {
	rects, nwx, nwy := partition(p, ps, tx, ty)
	return passGrid{
		rects:   rects,
		nwx:     nwx,
		nwy:     nwy,
		buckets: bucketInsts(p, ps, tx, ty, nwx, nwy),
	}
}

func workersOf(prm Params) int {
	if prm.Workers <= 0 {
		return 1
	}
	return prm.Workers
}

// DistOpt is Algorithm 2: partition the layout into bw x bh windows at
// offset (tx, ty), then optimize diagonal families of windows (disjoint x
// and y projections, Figure 3) in parallel. allowMove/allowFlip select the
// pass mode of Algorithm 1 (perturb with f=0, or flip-only with f=1).
//
// This entry point builds a fresh objective tracker and grid for a single
// standalone pass; VM1Opt drives distPass directly so the tracker, grid
// and solve workspaces persist across passes.
func DistOpt(p *layout.Placement, prm Params, ps ParamSet, tx, ty int64,
	allowMove, allowFlip bool) Objective {
	t := NewObjTracker(p, prm)
	if prm.guided() {
		t.AttachEstimator(prm.Proxy)
	}
	// ctx-ok: context-free compatibility entry point; cancellable callers use distPass via VM1OptCtx.
	obj, _ := distPass(context.Background(), t, ps, makeGrid(p, ps, tx, ty),
		newSolverPool(workersOf(prm)), allowMove, allowFlip)
	return obj
}

// diagonalFamilies groups the grid's windows into diagonal families:
// family f holds windows with (wi - wj) ≡ f (mod D); within a family,
// window x indices and y indices are all distinct, so projections are
// disjoint and the family's windows never interfere.
func diagonalFamilies(g passGrid) [][]int {
	d := g.nwx
	if g.nwy > d {
		d = g.nwy
	}
	var families [][]int
	for f := 0; f < d; f++ {
		var fam []int
		for wj := 0; wj < g.nwy; wj++ {
			for wi := 0; wi < g.nwx; wi++ {
				if ((wi-wj)%d+d)%d == f {
					fam = append(fam, wj*g.nwx+wi)
				}
			}
		}
		if len(fam) > 0 {
			families = append(families, fam)
		}
	}
	return families
}

// appendWindowMoves appends one solved window's accepted relocations to
// moves, comparing each candidate against the live (pre-commit)
// placement so unmoved cells produce no Move. During a family the
// placement is read-only, so the comparison is race-free on any worker.
func appendWindowMoves(moves []Move, p *layout.Placement, w *window, assign []int) []Move {
	if assign == nil {
		return moves
	}
	for ci, inst := range w.movable {
		cd := w.cand[ci][assign[ci]]
		if cd.site == p.SiteX[inst] && cd.row == p.Row[inst] && cd.flip == p.Flip[inst] {
			continue // cell kept its placement; nothing to refresh
		}
		moves = append(moves, Move{Inst: inst, Site: cd.site, Row: cd.row, Flip: cd.flip})
	}
	return moves
}

// distPass runs one DistOpt pass through an ObjTracker. Each family's
// windows are built against the live placement and solved in parallel;
// every build in a family completes (and only reads) before any of the
// family's moves are applied, and families with disjoint projections never
// conflict, so no placement snapshot is needed. Accepted relocations are
// funneled through t.ApplyMoves, which updates only the nets incident to
// moved cells instead of rescanning the design.
//
// Workers drain one atomic cursor per family. Its tasks are first the
// family's solves, in family order, then the geometry prebuilds (movable
// sets, blocked sites, candidates — see window.buildGeom for why that
// stage is invariant under this family's moves) of the next family's
// first pool.workers windows, which keep workers busy through the
// family's tail. A prebuild only recycles a window a finished solve has
// released, and is skipped when none is free; a window it skips is built
// when its solve task runs. A solve task takes its window's prebuilt
// geometry or builds it from the freelist, finishes the net/pair stage
// (which reads terminal positions anywhere on the die, so it waits for the
// previous family's commit), solves, writes the accepted moves to the
// window's family-order slot and releases the window at once. Live
// windows are therefore bounded by the in-flight solves plus one prebuild
// budget — at most 2 x pool.workers, and in practice one per worker —
// however large the grid.
//
// At the family barrier the slots are concatenated in family order into
// one ApplyMoves batch. A window's solve depends only on the pre-family
// placement, never on the worker, arena or recycled window that ran it,
// so the committed batch — and the placement — is identical for every
// worker count.
//
// Cancellation is checked between window families — the pass's commit
// boundaries — so an interrupted pass returns with the placement legal and
// the tracker consistent, together with the ctx error. A context deadline
// additionally clamps the per-window MILP wall budget: familyParams
// derives one budget from the shared pass deadline at pass start, and the
// milp solver arms lp.Arena.SetDeadline with exactly that budget.
func distPass(ctx context.Context, t *ObjTracker, ps ParamSet, g passGrid,
	pool *solverPool, allowMove, allowFlip bool) (Objective, error) {
	p, prm := t.p, t.prm
	fprm := familyParams(ctx, prm)
	families := diagonalFamilies(g)

	// Guided selection: score the windows with the QoR proxy and derive
	// the family processing order, skip set and per-window budgets;
	// otherwise run every family in diagonal order under the uniform
	// budget. Reordering and skipping are safe for the prebuilds below:
	// windows of different families occupy disjoint rectangles and
	// boundary straddlers are immovable, so a family's geometry stage is
	// invariant under any other family's moves, whichever one runs first.
	plan := uniformPlan(g, families, fprm.TimeLimit)
	if prm.guided() {
		plan = guidedPlan(prm, prm.Proxy, g, families, fprm.TimeLimit)
	}
	buildGeom := func(w *window, wid int) *window {
		q := fprm
		q.TimeLimit = plan.wtl[wid]
		w.buildGeom(p, q, g.rects[wid], ps, g.buckets[wid], allowMove, allowFlip)
		return w
	}

	var moves []Move
	var slots [][]Move // slots[k]: accepted moves of the family's k-th window
	var pre []*window  // prebuilt geometry of the family about to run
	for oi := range plan.order {
		if err := ctx.Err(); err != nil {
			for _, w := range pre {
				pool.putWindow(w)
			}
			return t.Objective(), err
		}
		fam := families[plan.order[oi]]
		cur := pre
		var nextFam []int
		var next []*window
		if oi+1 < len(plan.order) {
			nextFam = families[plan.order[oi+1]]
			next = make([]*window, min(pool.workers, len(nextFam)))
		}
		pre = next
		for len(slots) < len(fam) {
			slots = append(slots, nil)
		}

		total := len(fam) + len(next)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for wk := 0; wk < min(pool.workers, total); wk++ {
			wg.Add(1)
			sv := <-pool.solvers
			go func(sv *winSolver) {
				defer wg.Done()
				defer func() { pool.solvers <- sv }()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= total {
						return
					}
					if i >= len(fam) {
						if w := pool.getWindow(false); w != nil {
							j := i - len(fam)
							next[j] = buildGeom(w, nextFam[j])
						}
						continue
					}
					var w *window
					if i < len(cur) {
						w = cur[i]
					}
					if w == nil {
						w = buildGeom(pool.getWindow(true), fam[i])
					}
					w.buildNetsPairs()
					w.sv = sv
					assign := w.solve()
					w.sv = nil
					slots[i] = appendWindowMoves(slots[i][:0], p, w, assign)
					pool.putWindow(w)
				}
			}(sv)
		}
		wg.Wait()

		moves = moves[:0]
		for _, wm := range slots[:len(fam)] {
			moves = append(moves, wm...)
		}
		if len(moves) > 0 {
			t.ApplyMoves(moves)
		}
	}
	return t.Objective(), nil
}

// familyParams clamps the per-window MILP budget of one pass to the
// remaining time before the context deadline. The budget is derived once
// at pass start from the shared deadline — not re-read per family — so
// every family of the pass solves under the same wall budget and an
// untimed run's params pass through untouched, keeping that path identical
// to the pre-context engine. (The per-family ctx.Err() gate in distPass is
// what stops a pass whose deadline has already expired.)
func familyParams(ctx context.Context, prm Params) Params {
	dl, ok := ctx.Deadline()
	if !ok {
		return prm
	}
	rem := time.Until(dl) // clock-ok: converts the caller's ctx deadline into a milp TimeLimit; budgets, not results
	if rem < time.Millisecond {
		// The pass runs anyway (the caller's ctx.Err() gate decides when to
		// stop); a floor keeps the milp deadline armed rather than treating
		// a non-positive TimeLimit as "no budget".
		rem = time.Millisecond
	}
	if prm.TimeLimit <= 0 || rem < prm.TimeLimit {
		prm.TimeLimit = rem
	}
	return prm
}

// partition tiles the die with bw x bh windows offset by (tx, ty),
// returning the window rectangles in row-major order plus grid dimensions.
func partition(p *layout.Placement, ps ParamSet, tx, ty int64) ([]geom.Rect, int, int) {
	bw, bh := ps.BW, ps.BH
	if bw <= 0 {
		bw = p.DieWidth()
	}
	if bh <= 0 {
		bh = p.DieHeight()
	}
	x0 := mod64(tx, bw) - bw
	y0 := mod64(ty, bh) - bh
	nwx := int((p.DieWidth()-x0)/bw) + 1
	nwy := int((p.DieHeight()-y0)/bh) + 1
	rects := make([]geom.Rect, 0, nwx*nwy)
	for wj := 0; wj < nwy; wj++ {
		for wi := 0; wi < nwx; wi++ {
			rects = append(rects, geom.Rect{
				XLo: x0 + int64(wi)*bw,
				YLo: y0 + int64(wj)*bh,
				XHi: x0 + int64(wi+1)*bw,
				YHi: y0 + int64(wj+1)*bh,
			})
		}
	}
	return rects, nwx, nwy
}

// bucketInsts assigns every instance to each window its rectangle
// intersects.
func bucketInsts(p *layout.Placement, ps ParamSet, tx, ty int64, nwx, nwy int) [][]int {
	bw, bh := ps.BW, ps.BH
	if bw <= 0 {
		bw = p.DieWidth()
	}
	if bh <= 0 {
		bh = p.DieHeight()
	}
	x0 := mod64(tx, bw) - bw
	y0 := mod64(ty, bh) - bh
	buckets := make([][]int, nwx*nwy)
	for i := range p.Design.Insts {
		r := p.InstRect(i)
		wi0 := int((r.XLo - x0) / bw)
		wi1 := int((r.XHi - 1 - x0) / bw)
		wj0 := int((r.YLo - y0) / bh)
		wj1 := int((r.YHi - 1 - y0) / bh)
		for wj := clampInt(wj0, 0, nwy-1); wj <= clampInt(wj1, 0, nwy-1); wj++ {
			for wi := clampInt(wi0, 0, nwx-1); wi <= clampInt(wi1, 0, nwx-1); wi++ {
				buckets[wj*nwx+wi] = append(buckets[wj*nwx+wi], i)
			}
		}
	}
	return buckets
}

func mod64(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
