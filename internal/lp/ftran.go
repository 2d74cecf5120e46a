package lp

// Sparse FTRAN/BTRAN over the factorization in factor.go, and the
// Forrest–Tomlin basis update.
//
// FTRAN solves B·x = b (constraint-row space → basis-slot space); BTRAN
// solves Bᵀ·y = c (slot space → row space). With B = L·R⁻¹·U each is three
// passes: FTRAN applies L⁻¹, the row etas R, then U⁻¹; BTRAN applies U⁻ᵀ,
// Rᵀ, then L⁻ᵀ. The triangular passes skip steps whose value is still
// zero, so a hyper-sparse right-hand side (an entering column with three
// nonzeros, a unit vector for a dual pivot row) touches only the U rows
// and columns it can reach, and ftranSpike returns an indexed nonzero list
// so the ratio test and the basic-value update iterate nonzeros instead of
// dense m-vectors.

// ftranDense solves B·x = v in place: v enters indexed by constraint row,
// leaves indexed by basis slot.
func (f *luFactor) ftranDense(v []float64) {
	f.ftranL(v)
	f.ftranR(v)
	f.ftranU(v)
	for s := 0; s < f.m; s++ {
		v[s] = f.tmp[f.colOf[s]]
	}
}

// ftranL replays the elimination on v in row space: rows reduced during
// elimination get the same multiples of the pivot row subtracted. Only
// the steps with multipliers (lsteps) are visited, and a step whose
// pivot-row value is zero moves nothing — the hyper-sparse skip.
func (f *luFactor) ftranL(v []float64) {
	for _, k := range f.lsteps {
		t := v[f.pr[k]]
		if t == 0 {
			continue
		}
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			v[f.lrow[e]] -= f.lval[e] * t
		}
	}
}

// ftranR applies the row etas in update order: each target row absorbs
// the multiples of the rows its U row was eliminated with.
func (f *luFactor) ftranR(v []float64) {
	for t, tgt := range f.rtgt {
		acc := 0.0
		for e := f.rptr[t]; e < f.rptr[t+1]; e++ {
			acc += f.rval[e] * v[f.rrow[e]]
		}
		v[tgt] -= acc
	}
}

// ftranU back-substitutes through U in reverse triangular order, column-
// scatter form: once step c's value is known, its contribution is
// subtracted from every earlier row carrying column c. A step whose
// right-hand side is zero yields zero and scatters nothing — its whole U
// column is skipped. The solution is left in tmp, indexed by step; v is
// consumed.
func (f *luFactor) ftranU(v []float64) {
	m := f.m
	tmp := f.tmp
	for i := m - 1; i >= 0; i-- {
		c := f.ord[i]
		t := v[f.pr[c]]
		if t == 0 {
			tmp[c] = 0
			continue
		}
		t /= f.upiv[c]
		tmp[c] = t
		for e := f.ucbeg[c]; e < f.ucend[c]; e++ {
			v[f.ucrow[e]] -= f.ucval[e] * t
		}
	}
}

// ftranSpike solves B·w = A_col for a sparse constraint column. w must be
// zero on entry; the result is left in w with its nonzero slots appended
// to ind (returned). The list is what keeps the downstream ratio test and
// xB update O(nnz) instead of O(m). The partial spike R·L⁻¹·A_col is kept
// for a following appendEta.
func (f *luFactor) ftranSpike(col []entry, w []float64, ind []int32) []int32 {
	for _, e := range col {
		w[e.row] += e.val
	}
	f.ftranL(w)
	f.ftranR(w)
	copy(f.spike, w[:f.m])
	f.ftranU(w)
	ind = ind[:0]
	for s := 0; s < f.m; s++ {
		x := f.tmp[f.colOf[s]]
		w[s] = x
		if x != 0 {
			ind = append(ind, int32(s))
		}
	}
	return ind
}

// clearSpike rezeroes w using its nonzero list.
func clearSpike(w []float64, ind []int32) {
	for _, i := range ind {
		w[i] = 0
	}
}

// btranDense solves Bᵀ·y = v in place: v enters indexed by basis slot,
// leaves indexed by constraint row.
func (f *luFactor) btranDense(v []float64) {
	m := f.m
	// Uᵀ forward solve in triangular order, row-scatter form: once step
	// k's value is known, it is subtracted from every later step its U row
	// reaches. A zero step scatters nothing, so a unit vector touches only
	// the rows it reaches.
	tmp := f.tmp
	for k := 0; k < m; k++ {
		tmp[k] = v[f.pc[k]]
	}
	for _, k := range f.ord[:m] {
		t := tmp[k]
		if t == 0 {
			continue
		}
		t /= f.upiv[k]
		tmp[k] = t
		for _, q := range f.urpos[f.urbeg[k]:f.urend[k]] {
			tmp[f.uccol[q]] -= f.ucval[q] * t
		}
	}
	for k := 0; k < m; k++ {
		v[f.pr[k]] = tmp[k]
	}
	// Rᵀ in reverse update order: each row eta's target row feeds its
	// multipliers back to the rows it was eliminated with.
	for t := len(f.rtgt) - 1; t >= 0; t-- {
		pv := v[f.rtgt[t]]
		if pv == 0 {
			continue
		}
		for e := f.rptr[t]; e < f.rptr[t+1]; e++ {
			v[f.rrow[e]] -= f.rval[e] * pv
		}
	}
	// Lᵀ replay in reverse elimination order: the pivot row of step k
	// absorbs the multipliers times the rows they fed during elimination.
	for s := len(f.lsteps) - 1; s >= 0; s-- {
		k := f.lsteps[s]
		acc := 0.0
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			acc += f.lval[e] * v[f.lrow[e]]
		}
		if acc != 0 {
			v[f.pr[k]] -= acc
		}
	}
}

// btranUnit solves Bᵀ·ρ = e_slot into rho (zeroed here first), yielding
// the constraint-row-space vector whose dot with a column gives that
// column's entry in basis row `slot` — the dual simplex pivot row.
func (f *luFactor) btranUnit(slot int, rho []float64) {
	clear(rho)
	rho[slot] = 1
	f.btranDense(rho)
}

// appendEta applies the Forrest–Tomlin update for the pivot that brings
// the column of the last ftranSpike into slot r; alpha is that spike's
// entry α_r in slot r (the pivot). The saved partial spike replaces the U
// column of r's step, the step moves to the end of the triangular order,
// and its U row is eliminated into a new row eta.
//
// The update is refused — false, with the factorization of the old basis
// left intact — when the new U diagonal falls below absPivotTol or
// disagrees with α_r times the old diagonal by more than updateTol
// relative (the two are equal in exact arithmetic because det B′ =
// α_r·det B). The caller must then refactorize, recompute the spike and
// retry. force skips the agreement check but not the floor; callers set
// it when the factorization is already fresh, where refusing would loop
// (the ratio test has bounded α_r away from zero).
func (f *luFactor) appendEta(r int, alpha float64, force bool) bool {
	m := int32(f.m)
	p := f.colOf[r]
	sp := f.spike // the new column p, by constraint row

	// Eliminate U row p against the rows after it in triangular order — a
	// Uᵀ solve in row-scatter form that skips zero steps — collecting the
	// multipliers as the tentative row eta and folding their products with
	// the new column into the new diagonal. wk is left zero.
	wk := f.dense
	for _, q := range f.urpos[f.urbeg[p]:f.urend[p]] {
		wk[f.uccol[q]] += f.ucval[q]
	}
	diag := sp[f.pr[p]]
	r0 := len(f.rrow)
	for i := f.posOf[p] + 1; i < m; i++ {
		c := f.ord[i]
		x := wk[c]
		if x == 0 {
			continue
		}
		wk[c] = 0
		x /= f.upiv[c]
		row := f.pr[c]
		f.rrow = append(f.rrow, row)
		f.rval = append(f.rval, x)
		for _, q := range f.urpos[f.urbeg[c]:f.urend[c]] {
			wk[f.uccol[q]] -= f.ucval[q] * x
		}
		diag -= x * sp[row]
	}
	want := alpha * f.upiv[p]
	// Written so that a NaN diagonal fails both tests.
	if !(abs(diag) >= absPivotTol && (force || abs(diag-want) <= updateTol*abs(want))) {
		f.rrow, f.rval = f.rrow[:r0], f.rval[:r0]
		f.stats.UpdateRejects++
		return false
	}

	// Commit: retire the old column p and the off-diagonal entries of row
	// p (zeroed in place; factorize compacts them away), install the
	// spike as column p, and move step p to the end of the order.
	for q := f.ucbeg[p]; q < f.ucend[p]; q++ {
		f.ucval[q] = 0
	}
	for _, q := range f.urpos[f.urbeg[p]:f.urend[p]] {
		f.ucval[q] = 0
	}
	f.urend[p] = f.urbeg[p]
	f.ucbeg[p] = int32(len(f.ucrow))
	for i, v := range sp[:m] {
		if v == 0 || int32(i) == f.pr[p] {
			continue
		}
		f.urowAppend(f.stepOf[i], int32(len(f.ucrow)))
		f.ucrow = append(f.ucrow, int32(i))
		f.uccol = append(f.uccol, p)
		f.ucval = append(f.ucval, v)
	}
	f.ucend[p] = int32(len(f.ucrow))
	f.upiv[p] = diag
	pos := f.posOf[p]
	copy(f.ord[pos:m], f.ord[pos+1:m])
	f.ord[m-1] = p
	for i := pos; i < m; i++ {
		f.posOf[f.ord[i]] = i
	}
	f.rptr = append(f.rptr, int32(len(f.rrow)))
	f.rtgt = append(f.rtgt, f.pr[p])
	n := len(f.rrow) - r0 + int(f.ucend[p]-f.ucbeg[p])
	f.updNnz += n
	f.stats.EtaNnz += int64(n)
	return true
}

// urowAppend adds column-store position q to U row k's index, moving the
// row to the end of urpos with doubled room when it is full.
func (f *luFactor) urowAppend(k, q int32) {
	if f.urend[k] == f.urlim[k] {
		b, e := f.urbeg[k], f.urend[k]
		nb := int32(len(f.urpos))
		f.urpos = append(f.urpos, f.urpos[b:e]...)
		f.urpos = append(f.urpos, make([]int32, e-b+4)...)
		f.urbeg[k], f.urend[k], f.urlim[k] = nb, nb+e-b, int32(len(f.urpos))
	}
	f.urpos[f.urend[k]] = q
	f.urend[k]++
}
