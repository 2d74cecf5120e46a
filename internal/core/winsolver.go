package core

import (
	"sync"

	"vm1place/internal/lp"
	"vm1place/internal/milp"
)

// winSolver is one DistOpt worker's reusable solve workspace: the LP scratch
// arena, a pooled model pair rebuilt in place for every window (lp.Model.
// Reset bumps the model generation, so the arena's model-keyed caches are
// correctly invalidated), and every buffer the window MILP assembly,
// decoding, repair and greedy fallback need. One solver is owned by exactly
// one worker goroutine at a time; windows borrow it for the duration of one
// solve via window.sv.
type winSolver struct {
	arena *lp.Arena
	mdl   *lp.Model
	mm    *milp.Model

	// buildModel scratch.
	lambda   [][]int // λ variable ids per cell/candidate (carved from lamSlab)
	lamSlab  []int
	tbuf     []lp.Term // row-assembly buffer (AddRow copies terms)
	occTerms [][]lp.Term
	contrib  []winPin // net-bound contributors per axis

	// solveMILP / repair / greedy scratch.
	incumbent []float64
	vec       []float64
	assign    []int
	order     []int
	occ       []bool
	netsOf    [][]*winNet
	pairsOf   [][]*winPair
	stamp     []int
}

func newWinSolver() *winSolver { return &winSolver{arena: lp.NewArena()} }

// models returns the pooled (lp, milp) model pair, reset for a fresh build.
func (sv *winSolver) models() (*lp.Model, *milp.Model) {
	if sv.mdl == nil {
		sv.mdl = lp.NewModel()
		sv.mm = milp.NewModel(sv.mdl)
		return sv.mdl, sv.mm
	}
	sv.mdl.Reset()
	sv.mm.Reset(sv.mdl)
	return sv.mdl, sv.mm
}

// solver returns the window's solve workspace, lazily creating a private
// one for standalone (non-DistOpt) use.
func (w *window) solver() *winSolver {
	if w.sv == nil {
		w.sv = newWinSolver()
	}
	return w.sv
}

// solverPool hands out per-worker solve workspaces and recycles window
// structs across families and passes, so the steady-state DistOpt inner
// loop allocates per pass, not per window.
type solverPool struct {
	workers int
	solvers chan *winSolver

	mu   sync.Mutex
	free []*window
	made int // windows ever allocated; all are on free between passes
}

// newSolverPool builds one solve workspace per worker. Workspaces are
// handed out through the channel so a worker owns one exclusively for a
// batch of window solves; across families and passes the same arenas and
// model buffers keep serving windows, which avoids re-allocating the basis
// factorization and constraint matrix storage for every MILP.
func newSolverPool(workers int) *solverPool {
	sp := &solverPool{
		workers: workers,
		solvers: make(chan *winSolver, workers),
	}
	for i := 0; i < workers; i++ {
		sp.solvers <- newWinSolver()
	}
	return sp
}

// getWindow returns a recycled window (to be rebuilt with buildGeom). When
// the freelist is empty it returns a fresh window if alloc is set, nil
// otherwise.
func (sp *solverPool) getWindow(alloc bool) *window {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if n := len(sp.free); n > 0 {
		w := sp.free[n-1]
		sp.free = sp.free[:n-1]
		return w
	}
	if !alloc {
		return nil
	}
	sp.made++
	return &window{}
}

// putWindow returns one window to the freelist. DistOpt releases each
// window the moment its moves are extracted, so live window storage is
// bounded by the worker count, not by the grid.
func (sp *solverPool) putWindow(w *window) {
	if w == nil {
		return
	}
	sp.mu.Lock()
	sp.free = append(sp.free, w)
	sp.mu.Unlock()
}
