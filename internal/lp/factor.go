package lp

import "sync/atomic"

// Sparse LU factorization of the simplex basis.
//
// The basis matrix B has one column per basis slot i holding the constraint
// column of basis[i]. Window-MILP bases are overwhelmingly sparse — unit
// slack/artificial columns, exactly-one candidate rows and big-G indicator
// rows contribute a handful of nonzeros each — so the factorization and the
// FTRAN/BTRAN solves built on it (ftran.go) run in O(nnz) instead of the
// O(rows²) per pivot the dense explicit inverse paid.
//
// Factorization is Gaussian elimination with Markowitz ordering: each step
// pivots on an entry minimizing (rowCount−1)·(colCount−1) among the lowest
// column counts, subject to a relative magnitude threshold, which keeps
// fill-in near zero on these assignment-structured bases (singleton slack
// columns eliminate for free).
//
// Basis changes are Forrest–Tomlin updates of U (appendEta): the entering
// column's partial spike R·L⁻¹·a_q replaces the U column of the leaving
// slot's step, that step moves to the end of the triangular order, and
// its U row is eliminated into a row eta R_t. An update stores the spike's
// few nonzeros before U (about a dozen on window bases) where a product-
// form eta stored the full B⁻¹·a_q (hundreds), and the solves touch only
// the U rows and columns a vector reaches. A fresh factorization replaces
// the updates when they pass a count or fill trigger, or when an update
// fails its stability check, bounding both work and floating-point drift.

const (
	// markowitzThresh accepts a pivot only when its magnitude is at least
	// this fraction of the largest entry in its column (threshold partial
	// pivoting): small enough to let Markowitz choose freely, large enough
	// to bound element growth.
	markowitzThresh = 0.01
	// absPivotTol is the hard floor below which an entry never pivots; a
	// factorization that cannot avoid it reports a singular basis.
	absPivotTol = 1e-11
	// maxEtas triggers refactorization once this many basis updates
	// accumulate.
	maxEtas = 96
	// etaFillFactor triggers refactorization when the nonzeros the updates
	// added (row etas plus replacement U columns) exceed this multiple of
	// the base factorization's fill.
	etaFillFactor = 4
	// updateTol bounds the relative disagreement between an update's new
	// U diagonal and α_r times the old one (equal in exact arithmetic,
	// since det B′ = α_r·det B); a larger gap means the update lost too
	// much precision, and the pivot refactorizes instead.
	updateTol = 1e-8
)

// Stats counts simplex-kernel work, for telemetry. Per-arena counts are
// cumulative over the arena's lifetime (Arena.Stats); GlobalStats
// aggregates across all arenas in the process.
type Stats struct {
	Solves    int64 // LP solves completed (cold or warm)
	Pivots    int64 // basis changes, primal and dual
	Refactors int64 // sparse LU factorizations performed
	FillNnz   int64 // total L+U nonzeros produced by those factorizations
	// EtaNnz totals the nonzeros basis updates added between them: row-eta
	// multipliers plus replacement U columns.
	EtaNnz int64
	// UpdateRejects counts basis updates refused by the stability check;
	// each one costs a refactorization.
	UpdateRejects int64
}

var globalStats struct {
	solves, pivots, refactors, fillNnz, etaNnz, updateRejects atomic.Int64
}

// GlobalStats returns process-wide kernel counters, aggregated once per
// completed solve (cheap enough to leave always-on; benchmarks report the
// deltas via b.ReportMetric).
func GlobalStats() Stats {
	return Stats{
		Solves:        globalStats.solves.Load(),
		Pivots:        globalStats.pivots.Load(),
		Refactors:     globalStats.refactors.Load(),
		FillNnz:       globalStats.fillNnz.Load(),
		EtaNnz:        globalStats.etaNnz.Load(),
		UpdateRejects: globalStats.updateRejects.Load(),
	}
}

// flushGlobal publishes the delta since the last flush to the process-wide
// counters (one batch of atomic adds per solve, not per pivot).
func (f *luFactor) flushGlobal() {
	d := f.stats
	p := f.flushed
	globalStats.solves.Add(d.Solves - p.Solves)
	globalStats.pivots.Add(d.Pivots - p.Pivots)
	globalStats.refactors.Add(d.Refactors - p.Refactors)
	globalStats.fillNnz.Add(d.FillNnz - p.FillNnz)
	globalStats.etaNnz.Add(d.EtaNnz - p.EtaNnz)
	globalStats.updateRejects.Add(d.UpdateRejects - p.UpdateRejects)
	f.flushed = d
}

// luFactor holds the factorization B = L·R⁻¹·U (up to row and column
// permutations) — base L, the Forrest–Tomlin row etas R = R_t···R_1 and the
// updated U — along with the scratch both factorization and solves use.
// One luFactor lives in each Arena and is reused by every solve sharing
// it.
type luFactor struct {
	m int // basis dimension (= nRows of the model)

	// Elimination order: step k pivoted on constraint row pr[k] and basis
	// slot pc[k]; colOf inverts pc (slot → step) and stepOf inverts pr
	// (row → step). Updates never change these maps: a replaced column
	// keeps its slot's step.
	pr, pc []int32
	colOf  []int32
	stepOf []int32

	// L multipliers of step k (lptr[k]..lptr[k+1]): elimination subtracted
	// lval × (pivot row k) from row lrow; FTRAN replays the same
	// operations on the right-hand side. lsteps lists the steps that have
	// any multipliers at all — sparse bases eliminate mostly singletons, so
	// the replays walk this short list instead of all m steps.
	lptr   []int32
	lrow   []int32
	lval   []float64
	lsteps []int32

	// U row of step k as elimination produced it (uptr[k]..uptr[k+1]);
	// ucol holds the *elimination step* of each off-pivot column (remapped
	// from slots after factorization). Only the transposition into the
	// column store below reads it. upiv[k] is step k's U diagonal, which
	// updates overwrite.
	uptr []int32
	ucol []int32
	uval []float64
	upiv []float64

	// U by columns: the off-diagonal entries of step c's column sit at
	// ucbeg[c]..ucend[c] of ucrow (the constraint row pr[k] of entry
	// U[k,c], the index FTRAN scatters into), ucval and uccol (c itself,
	// for the row index). An update appends the replacement column at the
	// end and zeroes the entries it retires; factorize compacts. The FTRAN
	// back substitution scatters through these columns and skips zero
	// steps outright.
	ucbeg, ucend []int32
	ucrow, uccol []int32
	ucval        []float64

	// U by rows, as an index into the column store: row k's entries are
	// at positions urpos[urbeg[k]..urend[k]], with room up to urlim[k]; a
	// full row moves to the end of urpos when an update appends to it. The
	// BTRAN forward solve and the update's row elimination scatter through
	// these rows, skipping zero steps.
	urbeg, urend, urlim []int32
	urpos               []int32

	// Triangular processing order: U[k,c] ≠ 0 implies posOf[k] < posOf[c].
	// Refactorization resets it to elimination order; each update moves
	// one step to the end.
	ord, posOf []int32

	// Row etas of the updates: update t subtracted rval[e] times U row
	// rrow[e] from U row rtgt[t], for e in rptr[t]..rptr[t+1]. U rows are
	// named by their constraint rows (pr of the step), the index space
	// FTRAN and BTRAN apply the etas in.
	rptr []int32
	rrow []int32
	rval []float64
	rtgt []int32

	// Partial spike R·L⁻¹·a_q of the last ftranSpike, in row space: the
	// U column an update installs.
	spike []float64

	updNnz int // nonzeros the current updates added (fill trigger)

	// Factorization scratch: the active submatrix as live sparse rows plus
	// a (superset) column→rows incidence. The per-row/-column slices are
	// carved from the flat backing arrays below (exact pre-counted
	// capacities); only fill-in pushes a row past its carve and reallocates
	// that one slice.
	rowCol  [][]int32
	rowVal  [][]float64
	colRows [][]int32
	rcBack  []int32
	rvBack  []float64
	crBack  []int32
	rowCnt  []int32
	colCnt  []int32
	cntHist []int32 // cntHist[c]: live columns whose colCnt is c
	rowDone []bool
	colDone []bool
	csing   []int32 // queue of columns whose live count dropped to 1

	// Fill-in overflow arena: a row (or column incidence list) that outgrows
	// its exact-capacity carve from the backing arrays above is moved here
	// instead of reallocating on the heap. The arena is bump-allocated per
	// factorization and its backing is kept across calls, so once it reaches
	// the high-water fill of a window's bases, factorize allocates nothing.
	ovCol []int32
	ovVal []float64
	ovPos int

	// Solve scratch: tmp is the step-ordered intermediate of the
	// triangular solves; dense is a spare vector, zero between uses
	// outside factorize.
	tmp   []float64
	dense []float64

	nnzLU int // fill of the current base factorization (L + U + pivots)

	stats   Stats
	flushed Stats
}

// reset sizes the factor for an m-row basis, invalidating any previous
// factorization and its updates.
func (f *luFactor) reset(m int) {
	f.m = m
	f.pr = growSlice(f.pr, m)
	f.pc = growSlice(f.pc, m)
	f.colOf = growSlice(f.colOf, m)
	f.stepOf = growSlice(f.stepOf, m)
	f.tmp = growSlice(f.tmp, m)
	f.dense = growSlice(f.dense, m)
	f.spike = growSlice(f.spike, m)
	f.lptr = append(f.lptr[:0], 0)
	f.lsteps = f.lsteps[:0]
	f.uptr = append(f.uptr[:0], 0)
	f.upiv = f.upiv[:0]
	f.clearUpdates()
}

func (f *luFactor) clearUpdates() {
	f.rptr = append(f.rptr[:0], 0)
	f.rrow = f.rrow[:0]
	f.rval = f.rval[:0]
	f.rtgt = f.rtgt[:0]
	f.updNnz = 0
}

// nUpdates returns the number of basis updates applied since the last
// factorization.
func (f *luFactor) nUpdates() int { return len(f.rtgt) }

// needsRefactor reports whether the updates have outgrown their triggers.
// The update cap scales with the basis dimension: each update adds a row
// eta and a U column that every later FTRAN/BTRAN may walk, while
// refactorizing a small basis is nearly free, so tiny bases (single-row
// knapsack relaxations) refactor after a handful of updates and big
// windows amortize up to maxEtas.
func (f *luFactor) needsRefactor() bool {
	cap := f.m/2 + 4
	if cap > maxEtas {
		cap = maxEtas
	}
	return f.nUpdates() >= cap || f.updNnz > etaFillFactor*(f.nnzLU+f.m)
}

// factorize computes a fresh factorization of the basis (slot i holds the
// column of variable basis[i]) and drops all updates. It returns false
// when the basis is numerically singular, leaving the factor unusable; the
// caller must then rebuild from a basis it can factor.
func (f *luFactor) factorize(cols [][]entry, basis []int) bool {
	m := f.m
	f.ovPos = 0
	f.clearUpdates()
	f.lptr = append(f.lptr[:0], 0)
	f.lrow = f.lrow[:0]
	f.lval = f.lval[:0]
	f.lsteps = f.lsteps[:0]
	f.uptr = append(f.uptr[:0], 0)
	f.ucol = f.ucol[:0]
	f.uval = f.uval[:0]
	f.upiv = f.upiv[:0]

	// Build the active matrix row-wise with column incidence.
	if cap(f.rowCol) < m {
		f.rowCol = make([][]int32, m)
		f.rowVal = make([][]float64, m)
		f.colRows = make([][]int32, m)
	}
	f.rowCol = f.rowCol[:m]
	f.rowVal = f.rowVal[:m]
	f.colRows = f.colRows[:m]
	f.rowCnt = growSlice(f.rowCnt, m)
	f.colCnt = growSlice(f.colCnt, m)
	f.rowDone = growSlice(f.rowDone, m)
	f.colDone = growSlice(f.colDone, m)
	// Count nonzeros per row, carve the backing arrays into exact-capacity
	// per-row/-column slices, then fill by (alloc-free) appends.
	nnz := 0
	for i := 0; i < m; i++ {
		f.rowCnt[i], f.colCnt[i] = 0, 0
		f.rowDone[i], f.colDone[i] = false, false
	}
	for j := 0; j < m; j++ {
		for _, e := range cols[basis[j]] {
			f.rowCnt[e.row]++
		}
		nnz += len(cols[basis[j]])
	}
	f.rcBack = growSlice(f.rcBack, nnz)
	f.rvBack = growSlice(f.rvBack, nnz)
	f.crBack = growSlice(f.crBack, nnz)
	pos := 0
	for i := 0; i < m; i++ {
		c := pos + int(f.rowCnt[i])
		f.rowCol[i] = f.rcBack[pos:pos:c]
		f.rowVal[i] = f.rvBack[pos:pos:c]
		pos = c
	}
	pos = 0
	for j := 0; j < m; j++ {
		c := pos + len(cols[basis[j]])
		f.colRows[j] = f.crBack[pos:pos:c]
		pos = c
	}
	f.csing = f.csing[:0]
	for j := 0; j < m; j++ {
		for _, e := range cols[basis[j]] {
			f.rowCol[e.row] = append(f.rowCol[e.row], int32(j))
			f.rowVal[e.row] = append(f.rowVal[e.row], e.val)
			f.colRows[j] = append(f.colRows[j], int32(e.row))
			f.colCnt[j]++
		}
		if f.colCnt[j] == 1 {
			f.csing = append(f.csing, int32(j))
		}
	}
	f.cntHist = growSlice(f.cntHist, m+1)
	clear(f.cntHist)
	for j := 0; j < m; j++ {
		f.cntHist[f.colCnt[j]]++
	}

	// val: dense scatter scratch for row combination; zero outside the
	// current row's support (restored after every gather).
	val := f.dense
	clear(val)

	for step := 0; step < m; step++ {
		// Singleton fast path: a column with one live entry pivots with no
		// elimination work and no fill. Crash bases (mostly unit slack and
		// artificial columns) and assignment-structured bases factor almost
		// entirely through this queue, skipping the Markowitz scans.
		pi, pj := -1, -1
		for len(f.csing) > 0 {
			j := int(f.csing[len(f.csing)-1])
			f.csing = f.csing[:len(f.csing)-1]
			if f.colDone[j] || f.colCnt[j] != 1 {
				continue // stale queue entry
			}
			for _, ri := range f.colRows[j] {
				i := int(ri)
				if f.rowDone[i] {
					continue
				}
				if v, found := f.rowEntry(i, j); found {
					// A too-small singleton entry falls through to the
					// Markowitz/fallback path (near-singular basis).
					if abs(v) >= absPivotTol {
						pi, pj = i, j
					}
					break
				}
			}
			if pi >= 0 {
				break
			}
		}
		if pi < 0 {
			var ok bool
			pi, pj, ok = f.pickPivot()
			if !ok {
				return false
			}
		}
		f.pr[step], f.pc[step] = int32(pi), int32(pj)
		f.colOf[pj] = int32(step)
		f.rowDone[pi] = true
		f.colDone[pj] = true
		f.cntHist[f.colCnt[pj]]--

		// Split the pivot row into pivot entry and U-row remainder.
		var piv float64
		uStart := len(f.ucol)
		for t, c := range f.rowCol[pi] {
			if int(c) == pj {
				piv = f.rowVal[pi][t]
			} else {
				f.ucol = append(f.ucol, c)
				f.uval = append(f.uval, f.rowVal[pi][t])
				if f.addColCnt(c, -1) == 1 { // row pi leaves the active matrix
					f.csing = append(f.csing, c)
				}
			}
		}
		f.upiv = append(f.upiv, piv)
		uRowC := f.ucol[uStart:]
		uRowV := f.uval[uStart:]
		f.uptr = append(f.uptr, int32(len(f.ucol)))

		// Eliminate pj from every other live row carrying it.
		for _, ri := range f.colRows[pj] {
			i := int(ri)
			if f.rowDone[i] {
				continue
			}
			rc, rv := f.rowCol[i], f.rowVal[i]
			at := -1
			for t, c := range rc {
				if int(c) == pj {
					at = t
					break
				}
			}
			if at == -1 {
				continue // stale incidence entry (earlier cancellation)
			}
			l := rv[at] / piv
			f.lrow = append(f.lrow, int32(i))
			f.lval = append(f.lval, l)

			// row_i -= l × (U part of pivot row), via dense scatter. The
			// pivot-column entry is dropped; exact cancellations too.
			rc[at], rv[at] = rc[len(rc)-1], rv[len(rv)-1]
			rc, rv = rc[:len(rc)-1], rv[:len(rv)-1]
			for t, c := range rc {
				val[c] = rv[t]
			}
			// Fill can add up to len(uRowC) entries; rows carved at exact
			// capacity move to the overflow arena instead of reallocating.
			if cap(rc) < len(rc)+len(uRowC) {
				rc, rv = f.overflowRow(rc, rv, len(rc)+len(uRowC))
			}
			nc, nv := rc, rv
			for t, c := range uRowC {
				if val[c] != 0 {
					val[c] -= l * uRowV[t]
					continue
				}
				fill := -l * uRowV[t]
				if fill == 0 {
					continue
				}
				val[c] = fill
				nc = append(nc, c)
				nv = append(nv, 0) // value gathered below
				if len(f.colRows[c]) == cap(f.colRows[c]) {
					f.colRows[c] = f.overflowCol(f.colRows[c])
				}
				f.colRows[c] = append(f.colRows[c], ri)
				f.addColCnt(c, 1)
			}
			// Gather back, compacting out cancellations.
			w := 0
			for _, c := range nc {
				v := val[c]
				val[c] = 0
				if v == 0 {
					if f.addColCnt(c, -1) == 1 && !f.colDone[c] {
						f.csing = append(f.csing, c)
					}
					continue
				}
				nc[w], nv[w] = c, v
				w++
			}
			f.rowCol[i], f.rowVal[i] = nc[:w], nv[:w]
			f.rowCnt[i] = int32(w)
		}
		f.colRows[pj] = f.colRows[pj][:0]
		f.colCnt[pj] = 0
		f.lptr = append(f.lptr, int32(len(f.lrow)))
		if f.lptr[step+1] > f.lptr[step] {
			f.lsteps = append(f.lsteps, int32(step))
		}
	}

	// Remap U columns from basis slots to elimination steps so the
	// triangular solves can index step-ordered scratch directly.
	for t, c := range f.ucol {
		f.ucol[t] = f.colOf[c]
	}
	for k := 0; k < m; k++ {
		f.stepOf[f.pr[k]] = int32(k)
	}
	f.buildU()
	f.nnzLU = len(f.lval) + len(f.uval) + m
	f.stats.Refactors++
	f.stats.FillNnz += int64(f.nnzLU)
	return true
}

// buildU transposes the row-form U of a fresh elimination into the column
// store, indexes the rows into it, and resets the triangular order.
func (f *luFactor) buildU() {
	m := f.m
	nnz := len(f.ucol)
	// colCnt is dead after elimination and serves as the counting scratch.
	cnt := f.colCnt
	clear(cnt[:m])
	for _, c := range f.ucol {
		cnt[c]++
	}
	f.ucbeg = growSlice(f.ucbeg, m)
	f.ucend = growSlice(f.ucend, m)
	at := int32(0)
	for c := 0; c < m; c++ {
		f.ucbeg[c], f.ucend[c] = at, at
		at += cnt[c]
	}
	f.ucrow = growSlice(f.ucrow, nnz)
	f.uccol = growSlice(f.uccol, nnz)
	f.ucval = growSlice(f.ucval, nnz)
	f.urbeg = growSlice(f.urbeg, m)
	f.urend = growSlice(f.urend, m)
	f.urlim = growSlice(f.urlim, m)
	f.urpos = growSlice(f.urpos, nnz)
	for k := 0; k < m; k++ {
		f.urbeg[k], f.urend[k], f.urlim[k] = f.uptr[k], f.uptr[k+1], f.uptr[k+1]
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			c := f.ucol[e]
			q := f.ucend[c]
			f.ucend[c]++
			f.ucrow[q], f.uccol[q], f.ucval[q] = f.pr[k], c, f.uval[e]
			f.urpos[e] = q
		}
	}
	f.ord = growSlice(f.ord, m)
	f.posOf = growSlice(f.posOf, m)
	for k := 0; k < m; k++ {
		f.ord[k], f.posOf[k] = int32(k), int32(k)
	}
}

// ovCarve reserves c entries in the overflow arena and returns their start
// offset. When the arena is full it reallocates fresh backing: carves
// already handed out keep referencing the old arrays (rows are independent
// slices), and the larger backing is what later factorizations reuse.
func (f *luFactor) ovCarve(c int) int {
	if f.ovPos+c > len(f.ovCol) {
		n := 2 * (f.ovPos + c)
		if n < 1024 {
			n = 1024
		}
		f.ovCol = make([]int32, n)
		f.ovVal = make([]float64, n)
		f.ovPos = 0
	}
	at := f.ovPos
	f.ovPos += c
	return at
}

// overflowRow moves a live row into the overflow arena with capacity for
// want entries plus headroom for further fill.
func (f *luFactor) overflowRow(rc []int32, rv []float64, want int) ([]int32, []float64) {
	c := want + want/2 + 8
	at := f.ovCarve(c)
	nc := f.ovCol[at : at+len(rc) : at+c]
	nv := f.ovVal[at : at+len(rc) : at+c]
	copy(nc, rc)
	copy(nv, rv)
	return nc, nv
}

// overflowCol doubles a full column incidence list into the overflow arena.
func (f *luFactor) overflowCol(cr []int32) []int32 {
	c := 2*len(cr) + 8
	at := f.ovCarve(c)
	ncr := f.ovCol[at : at+len(cr) : at+c]
	copy(ncr, cr)
	return ncr
}

// addColCnt moves live column c's count by d, keeping the count histogram
// in step, and returns the new count.
func (f *luFactor) addColCnt(c, d int32) int32 {
	f.cntHist[f.colCnt[c]]--
	f.colCnt[c] += d
	f.cntHist[f.colCnt[c]]++
	return f.colCnt[c]
}

// pickPivot selects the next Markowitz pivot: among the live columns with
// the lowest counts, the entry of minimal (rowCnt−1)·(colCnt−1) whose
// magnitude passes the relative threshold of its column.
func (f *luFactor) pickPivot() (pi, pj int, ok bool) {
	m := f.m
	minCnt := int32(0)
	for c := 1; c < len(f.cntHist); c++ {
		if f.cntHist[c] > 0 {
			minCnt = int32(c)
			break
		}
	}
	pi, pj = -1, -1
	if minCnt == 0 {
		// No live column has entries: structurally singular (a zero column
		// slipped into the basis, or everything cancelled numerically).
		return f.pickPivotFallback()
	}
	bestCost := int64(1) << 62
	var bestVal float64
	const maxCand = 8
	cands := 0
	for j := 0; j < m && cands < maxCand; j++ {
		if f.colDone[j] || f.colCnt[j] == 0 || f.colCnt[j] > minCnt+1 {
			continue
		}
		cands++
		colMax, _ := f.colEntry(j, -1)
		if colMax < absPivotTol {
			continue
		}
		thresh := markowitzThresh * colMax
		for _, ri := range f.colRows[j] {
			i := int(ri)
			if f.rowDone[i] {
				continue
			}
			v, found := f.rowEntry(i, j)
			if !found || abs(v) < thresh || abs(v) < absPivotTol {
				continue
			}
			cost := int64(f.rowCnt[i]-1) * int64(f.colCnt[j]-1)
			if cost < bestCost || (cost == bestCost && abs(v) > abs(bestVal)) {
				bestCost, bestVal = cost, v
				pi, pj = i, j
			}
		}
	}
	if pi >= 0 {
		return pi, pj, true
	}
	return f.pickPivotFallback()
}

// pickPivotFallback scans the whole live submatrix for the entry of
// largest magnitude — the last resort when no candidate column offers a
// threshold-passing pivot. Failing here means the basis is singular.
func (f *luFactor) pickPivotFallback() (pi, pj int, ok bool) {
	best := absPivotTol
	pi, pj = -1, -1
	for i := 0; i < f.m; i++ {
		if f.rowDone[i] {
			continue
		}
		for t, c := range f.rowCol[i] {
			if f.colDone[c] {
				continue
			}
			if v := abs(f.rowVal[i][t]); v >= best {
				best, pi, pj = v, i, int(c)
			}
		}
	}
	return pi, pj, pi >= 0
}

// colEntry returns the largest live magnitude in column j, and the value
// at row want (when want >= 0).
func (f *luFactor) colEntry(j, want int) (colMax, atWant float64) {
	for _, ri := range f.colRows[j] {
		i := int(ri)
		if f.rowDone[i] {
			continue
		}
		if v, found := f.rowEntry(i, j); found {
			if abs(v) > colMax {
				colMax = abs(v)
			}
			if i == want {
				atWant = v
			}
		}
	}
	return colMax, atWant
}

// rowEntry returns row i's value in column j.
func (f *luFactor) rowEntry(i, j int) (float64, bool) {
	for t, c := range f.rowCol[i] {
		if int(c) == j {
			return f.rowVal[i][t], true
		}
	}
	return 0, false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
