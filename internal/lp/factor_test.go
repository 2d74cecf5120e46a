package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Oracle test for the Forrest–Tomlin update: after every column
// replacement, FTRAN and BTRAN through the updated factorization must
// agree with a dense solve of the current basis matrix.

// denseLU is a dense LU with partial pivoting (P·A = L·U stored in place),
// the reference the sparse factor is checked against. It factors once per
// basis and then solves four systems, both A and Aᵀ, where solveSquare
// would eliminate the whole matrix again for each.
type denseLU struct {
	a    [][]float64
	perm []int // row i of P·A is row perm[i] of A
}

func newDenseLU(a [][]float64) *denseLU {
	n := len(a)
	d := &denseLU{a: make([][]float64, n), perm: make([]int, n)}
	for i := range a {
		d.a[i] = append([]float64(nil), a[i]...)
		d.perm[i] = i
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(d.a[i][k]) > math.Abs(d.a[p][k]) {
				p = i
			}
		}
		d.a[k], d.a[p] = d.a[p], d.a[k]
		d.perm[k], d.perm[p] = d.perm[p], d.perm[k]
		for i := k + 1; i < n; i++ {
			l := d.a[i][k] / d.a[k][k]
			d.a[i][k] = l
			for j := k + 1; j < n; j++ {
				d.a[i][j] -= l * d.a[k][j]
			}
		}
	}
	return d
}

// solve returns x with A·x = b.
func (d *denseLU) solve(b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		v := b[d.perm[i]]
		for j := 0; j < i; j++ {
			v -= d.a[i][j] * x[j]
		}
		x[i] = v
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= d.a[i][j] * x[j]
		}
		x[i] /= d.a[i][i]
	}
	return x
}

// solveT returns y with Aᵀ·y = c.
func (d *denseLU) solveT(c []float64) []float64 {
	n := len(c)
	z := make([]float64, n)
	for i := 0; i < n; i++ { // Uᵀ·z = c
		v := c[i]
		for j := 0; j < i; j++ {
			v -= d.a[j][i] * z[j]
		}
		z[i] = v / d.a[i][i]
	}
	for i := n - 1; i >= 0; i-- { // Lᵀ·w = z, then y = Pᵀ·w
		for j := i + 1; j < n; j++ {
			z[i] -= d.a[j][i] * z[j]
		}
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[d.perm[i]] = z[i]
	}
	return y
}

// luOracle is a basis under test: its slot columns, a dominant row per
// slot that keeps every generated basis strictly diagonally dominant
// (after a row permutation), and the sparse factor being updated.
type luOracle struct {
	t     *testing.T
	rng   *rand.Rand
	m     int
	cols  [][]entry
	basis []int
	dom   []int // dominant row of each slot's column
	f     *luFactor
}

// randCol draws a column whose entry at row dom has magnitude in [2, 3)
// and whose other entries sum to at most 1.5 in magnitude; about a third
// are unit columns, like the slacks of a window basis.
func (o *luOracle) randCol(dom int) []entry {
	if o.rng.Intn(3) == 0 {
		return []entry{{row: dom, val: 1}}
	}
	v := 2 + o.rng.Float64()
	if o.rng.Intn(2) == 0 {
		v = -v
	}
	col := []entry{{row: dom, val: v}}
	seen := map[int]bool{dom: true}
	for k := o.rng.Intn(4); k > 0; k-- {
		i := o.rng.Intn(o.m)
		if seen[i] {
			continue
		}
		seen[i] = true
		col = append(col, entry{row: i, val: (o.rng.Float64() - 0.5) * 0.99})
	}
	return col
}

func (o *luOracle) dense() [][]float64 {
	a := make([][]float64, o.m)
	for i := range a {
		a[i] = make([]float64, o.m)
	}
	for j, c := range o.basis {
		for _, e := range o.cols[c] {
			a[e.row][j] = e.val
		}
	}
	return a
}

// check compares FTRAN and BTRAN of a dense random vector and a unit
// vector against the dense reference, to 1e-8 relative.
func (o *luOracle) check(tag string) {
	o.t.Helper()
	ref := newDenseLU(o.dense())
	unit := make([]float64, o.m)
	unit[o.rng.Intn(o.m)] = 1
	rnd := make([]float64, o.m)
	for i := range rnd {
		rnd[i] = o.rng.NormFloat64()
	}
	for _, b := range [][]float64{rnd, unit} {
		got := append([]float64(nil), b...)
		o.f.ftranDense(got)
		o.agree(tag+" ftran", got, ref.solve(b))
		got = append(got[:0], b...)
		o.f.btranDense(got)
		o.agree(tag+" btran", got, ref.solveT(b))
	}
}

func (o *luOracle) agree(tag string, got, want []float64) {
	o.t.Helper()
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= 1e-8*scale) {
			o.t.Fatalf("%s: entry %d = %.15g, dense reference %.15g (scale %.3g)", tag, i, got[i], want[i], scale)
		}
	}
}

// replace runs the simplex's update sequence for column col entering slot
// r: FTRAN of the column, then appendEta. It returns appendEta's verdict
// and commits the column to the oracle's basis only on success.
func (o *luOracle) replace(r int, col []entry) bool {
	w := make([]float64, o.m)
	o.f.ftranSpike(col, w, nil)
	if !o.f.appendEta(r, w[r], false) {
		return false
	}
	o.cols = append(o.cols, col)
	o.basis[r] = len(o.cols) - 1
	return true
}

func TestLUUpdateAgainstDense(t *testing.T) {
	for trial, m := range []int{30, 57, 120, 200} {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		o := &luOracle{t: t, rng: rng, m: m, f: &luFactor{}, dom: rng.Perm(m), basis: make([]int, m)}
		for j := 0; j < m; j++ {
			o.cols = append(o.cols, o.randCol(o.dom[j]))
			o.basis[j] = j
		}
		o.f.reset(m)
		if !o.f.factorize(o.cols, o.basis) {
			t.Fatalf("m=%d: dominant basis reported singular", m)
		}
		o.check("fresh")
		// Updates well past the refactor cap: the update path alone must
		// stay accurate, and a dominant basis must never be refused.
		for u := 0; u < 220; u++ {
			r := rng.Intn(m)
			if !o.replace(r, o.randCol(o.dom[r])) {
				t.Fatalf("m=%d update %d: stable replacement refused", m, u)
			}
			o.check("update")
		}
		if n := o.f.nUpdates(); n != 220 {
			t.Fatalf("m=%d: %d updates recorded, want 220", m, n)
		}

		// Refusal: a copy of another slot's column, exact or nudged by
		// 1e-14, makes the basis (near-)singular. The update must be
		// refused and counted, and the solves must still be the old
		// basis's.
		for _, nudge := range []float64{0, 1e-14} {
			r, r2 := rng.Intn(m), rng.Intn(m-1)
			if r2 >= r {
				r2++
			}
			col := append([]entry(nil), o.cols[o.basis[r2]]...)
			col[0].val += nudge
			rejects := o.f.stats.UpdateRejects
			if o.replace(r, col) {
				t.Fatalf("m=%d: singular replacement (nudge %g) accepted", m, nudge)
			}
			if o.f.stats.UpdateRejects != rejects+1 {
				t.Fatalf("m=%d: refusal not counted", m)
			}
			o.check("after refusal")
		}
	}
}
