package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the sparse LU simplex kernel: on randomly generated
// bounded LPs — including degenerate (duplicate rows, fixed variables) and
// near-singular (almost-parallel rows) instances — the factorized kernel
// must report the same status as the dense-inverse reference in
// denseref_test.go, and when both are optimal the objectives must agree to
// 1e-7. The warm half re-solves each instance through one shared Arena with
// branch-and-bound style bound tightenings, checking the dual warm-start
// path (basis-update accumulation, refactorization triggers) against cold
// reference solves of the identical bounds.

const objTol = 1e-7

// genLP builds a random sparse bounded LP from the seed. Roughly a quarter
// of the instances get a duplicated row (primal degeneracy), a fixed
// variable, and/or a nearly parallel row (ill-conditioned basis candidates).
func genLP(rng *rand.Rand) *Model {
	m := NewModel()
	n := 3 + rng.Intn(20)
	rows := 2 + rng.Intn(16)

	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(9)) - 4 // -4..4
		width := float64(1 + rng.Intn(12))
		hi := lo + width
		if rng.Intn(4) == 0 && j > 0 {
			hi = lo // fixed variable
		}
		obj := float64(rng.Intn(21)-10) / 2 // -5..5 in halves
		m.AddVar(lo, hi, obj, "")
	}

	addRow := func() []Term {
		nt := 2 + rng.Intn(4)
		terms := make([]Term, 0, nt)
		for k := 0; k < nt; k++ {
			c := float64(rng.Intn(11) - 5)
			if c == 0 {
				c = 1
			}
			terms = append(terms, Term{Var: rng.Intn(n), Coef: c})
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		// Anchor the RHS near the row's value at a random interior point so
		// most instances are feasible; the offset still leaves a healthy
		// share of clearly infeasible ones.
		v := 0.0
		for _, t := range terms {
			frac := rng.Float64()
			v += t.Coef * (m.lo[t.Var] + frac*(m.hi[t.Var]-m.lo[t.Var]))
		}
		rhs := math.Round(v) + float64(rng.Intn(13)-4)
		m.AddRow(sense, rhs, terms...)
		return terms
	}

	var prev []Term
	for i := 0; i < rows; i++ {
		terms := addRow()
		if prev == nil || rng.Intn(4) == 0 {
			prev = append([]Term(nil), terms...)
		}
	}
	if prev != nil && rng.Intn(4) == 0 {
		// Duplicate row: same terms, same-or-looser RHS. Degenerate basis.
		m.AddRow(LE, float64(rng.Intn(20)), prev...)
	}
	if prev != nil && rng.Intn(4) == 0 {
		// Nearly parallel row: one coefficient nudged by 1e-9. If both end
		// up basic the basis is near-singular, exercising the Markowitz
		// pivot tolerance and the update stability check.
		near := append([]Term(nil), prev...)
		near[0].Coef += 1e-9
		m.AddRow(GE, float64(-rng.Intn(20)), near...)
	}
	return m
}

// checkAgainstRef solves m with the live kernel (through a, warm or cold as
// a's state dictates) and the dense reference (always cold) under the same
// bounds, and fails the test on any disagreement. Returns the live solution.
func checkAgainstRef(t *testing.T, m *Model, lo, hi []float64, a *Arena, tag string) *Solution {
	t.Helper()
	got := m.SolveWithScratch(lo, hi, nil, a)
	want := refSolve(m, lo, hi)
	if got.Status == IterLimit || want.Status == IterLimit {
		t.Fatalf("%s: iteration limit hit (lu=%v ref=%v) — cycling?", tag, got.Status, want.Status)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status mismatch: lu=%v ref=%v", tag, got.Status, want.Status)
	}
	if got.Status == Optimal {
		if diff := math.Abs(got.Obj - want.Obj); diff > objTol*(1+math.Max(math.Abs(got.Obj), math.Abs(want.Obj))) {
			t.Fatalf("%s: objective mismatch: lu=%.12g ref=%.12g (diff %.3g)", tag, got.Obj, want.Obj, diff)
		}
	}
	return got
}

// tightenBounds mimics a branch-and-bound child: shrink a few random
// variable intervals, keeping lo <= hi.
func tightenBounds(rng *rand.Rand, lo, hi []float64) {
	for k := 0; k < 1+rng.Intn(3); k++ {
		j := rng.Intn(len(lo))
		if math.IsInf(lo[j], -1) || math.IsInf(hi[j], 1) || hi[j]-lo[j] < 0.5 {
			continue
		}
		cut := lo[j] + rng.Float64()*(hi[j]-lo[j])
		if rng.Intn(2) == 0 {
			hi[j] = math.Ceil(cut)
			if hi[j] < lo[j] {
				hi[j] = lo[j]
			}
		} else {
			lo[j] = math.Floor(cut)
			if lo[j] > hi[j] {
				lo[j] = hi[j]
			}
		}
	}
}

// runKernelAgreement checks one generated model cold and then through a
// warm sequence, and returns how many warm (dual simplex) solves
// refactorized the basis on top of accumulated updates.
func runKernelAgreement(t *testing.T, seed int64) (warmRefactors int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := genLP(rng)
	a := NewArena()

	sol := checkAgainstRef(t, m, nil, nil, a, "cold")
	if sol.Status != Optimal {
		return 0 // nothing to warm-start from
	}

	// Warm sequence: bound tightenings through the same arena, backing up
	// to the root bounds after a child that is not optimal and every
	// eighth step, as a branch-and-bound dive would. The live kernel takes
	// the dual warm-start path; the reference re-solves cold each time.
	// Long enough for the basis updates to cross the refactorization
	// trigger (m/2+4 updates) several times on most models.
	rootLo, rootHi := m.Bounds()
	lo, hi := m.Bounds()
	for step := 0; step < 48; step++ {
		if step%8 == 7 {
			copy(lo, rootLo)
			copy(hi, rootHi)
		}
		tightenBounds(rng, lo, hi)
		warm, ws, refactors := a.warm, a.warmSolves, a.lu.stats.Refactors
		sol = checkAgainstRef(t, m, lo, hi, a, "warm")
		if warm && a.warmSolves == ws+1 && a.lu.stats.Refactors > refactors {
			warmRefactors++
		}
		if sol.Status != Optimal {
			copy(lo, rootLo)
			copy(hi, rootHi)
		}
	}
	return warmRefactors
}

func TestLPKernelAgreement(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	warmRefactors := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		if !t.Run("", func(t *testing.T) { warmRefactors += runKernelAgreement(t, seed) }) {
			t.Fatalf("seed %d failed", seed)
		}
	}
	// The warm sequences must exercise refactorization on top of
	// accumulated updates, not only update runs shorter than the cap.
	if warmRefactors < n/4 {
		t.Fatalf("%d warm solves over %d seeds refactorized, want at least %d", warmRefactors, n, n/4)
	}
}

// FuzzLPKernelAgreement is the same property exposed to `go test -fuzz`:
// each fuzz input is a generator seed.
func FuzzLPKernelAgreement(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1337, 99991} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runKernelAgreement(t, seed)
	})
}

// TestLPDegenerateHandcrafted pins a few constructed worst cases that random
// generation only hits occasionally: a fully degenerate transportation-style
// block, exactly duplicated equality rows, and an equality pair differing by
// 1e-9 (a basis one eps from singular).
func TestLPDegenerateHandcrafted(t *testing.T) {
	t.Run("degenerate-assignment", func(t *testing.T) {
		m := NewModel()
		var v [9]int
		for i := range v {
			v[i] = m.AddVar(0, 1, float64((i*7)%5)-2, "")
		}
		for r := 0; r < 3; r++ {
			m.AddRow(EQ, 1, Term{v[3*r], 1}, Term{v[3*r+1], 1}, Term{v[3*r+2], 1})
			m.AddRow(EQ, 1, Term{v[r], 1}, Term{v[r+3], 1}, Term{v[r+6], 1})
		}
		checkAgainstRef(t, m, nil, nil, NewArena(), "assignment")
	})
	t.Run("duplicate-equalities", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(0, 10, 1, "")
		y := m.AddVar(0, 10, -2, "")
		m.AddRow(EQ, 7, Term{x, 1}, Term{y, 1})
		m.AddRow(EQ, 7, Term{x, 1}, Term{y, 1})
		m.AddRow(EQ, 7, Term{x, 1}, Term{y, 1})
		checkAgainstRef(t, m, nil, nil, NewArena(), "dup-eq")
	})
	t.Run("near-singular-pair", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(-5, 5, 1, "")
		y := m.AddVar(-5, 5, 1, "")
		z := m.AddVar(-5, 5, -1, "")
		m.AddRow(LE, 3, Term{x, 1}, Term{y, 2}, Term{z, 1})
		m.AddRow(LE, 3, Term{x, 1}, Term{y, 2 + 1e-9}, Term{z, 1})
		m.AddRow(GE, -2, Term{x, 1}, Term{y, -1})
		checkAgainstRef(t, m, nil, nil, NewArena(), "near-singular")
	})
}
