package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randModel builds a random bounded LP with n vars and r rows.
func randModel(rng *rand.Rand, n, r int) *Model {
	m := NewModel()
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		lo := float64(rng.Intn(5) - 2)
		vars[i] = m.AddVar(lo, lo+float64(1+rng.Intn(8)), float64(rng.Intn(9)-4), "v")
	}
	for i := 0; i < r; i++ {
		var terms []Term
		for k := 0; k < 1+rng.Intn(4); k++ {
			terms = append(terms, Term{Var: vars[rng.Intn(n)], Coef: float64(rng.Intn(7) - 3)})
		}
		m.AddRow(Sense(rng.Intn(3)), float64(rng.Intn(15)-5), terms...)
	}
	return m
}

// TestHintInvariance: warm-start hints must never change the optimum.
func TestHintInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(6)
		m := randModel(rng, n, 1+rng.Intn(5))
		base := m.Solve()

		hint := make([]float64, n)
		for i := range hint {
			hint[i] = float64(rng.Intn(10) - 3)
		}
		hinted := m.SolveWithHint(nil, nil, hint)

		if base.Status != hinted.Status {
			t.Fatalf("trial %d: status %s vs hinted %s", trial, base.Status, hinted.Status)
		}
		if base.Status == Optimal && math.Abs(base.Obj-hinted.Obj) > 1e-5 {
			t.Fatalf("trial %d: obj %f vs hinted %f", trial, base.Obj, hinted.Obj)
		}
	}
}

// TestSolveIsRepeatable: solving the same model twice gives identical
// results (no hidden state).
func TestSolveIsRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		m := randModel(rng, 3+rng.Intn(4), 2+rng.Intn(4))
		a := m.Solve()
		b := m.Solve()
		if a.Status != b.Status || math.Abs(a.Obj-b.Obj) > 1e-12 {
			t.Fatalf("trial %d: %v vs %v", trial, a, b)
		}
	}
}

// TestTightenedBoundsOnlyRestrict: shrinking a variable's bounds can never
// improve the optimum of a minimization.
func TestTightenedBoundsOnlyRestrict(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		m := randModel(rng, n, 1+rng.Intn(4))
		base := m.Solve()
		if base.Status != Optimal {
			continue
		}
		lo, hi := m.Bounds()
		j := rng.Intn(n)
		mid := (lo[j] + hi[j]) / 2
		if rng.Intn(2) == 0 {
			lo[j] = mid
		} else {
			hi[j] = mid
		}
		tight := m.SolveWithBounds(lo, hi)
		if tight.Status == Optimal && tight.Obj < base.Obj-1e-6 {
			t.Fatalf("trial %d: tightening improved objective %f -> %f",
				trial, base.Obj, tight.Obj)
		}
	}
}

// TestEqualityChainExactness: long chains of equalities solve exactly.
func TestEqualityChainExactness(t *testing.T) {
	m := NewModel()
	const n = 40
	vars := make([]int, n)
	for i := range vars {
		vars[i] = m.AddVar(math.Inf(-1), math.Inf(1), 0, "x")
	}
	m.SetObj(vars[n-1], 1)
	// x0 = 1; x_{i} - x_{i-1} = 2.
	m.AddRow(EQ, 1, Term{Var: vars[0], Coef: 1})
	for i := 1; i < n; i++ {
		m.AddRow(EQ, 2, Term{Var: vars[i], Coef: 1}, Term{Var: vars[i-1], Coef: -1})
	}
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status %s", sol.Status)
	}
	want := 1.0 + 2*float64(n-1)
	if math.Abs(sol.X[vars[n-1]]-want) > 1e-6 {
		t.Errorf("x[last] = %f, want %f", sol.X[vars[n-1]], want)
	}
}

// TestLargeSparseAssignment exercises the solver at window-MILP scale.
func TestLargeSparseAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := NewModel()
	const groups, per = 30, 12
	var allVars [][]int
	var costs [][]float64
	for g := 0; g < groups; g++ {
		var terms []Term
		var vars []int
		var cs []float64
		for k := 0; k < per; k++ {
			c := float64(rng.Intn(100))
			v := m.AddVar(0, 1, c, "l")
			vars = append(vars, v)
			cs = append(cs, c)
			terms = append(terms, Term{Var: v, Coef: 1})
		}
		m.AddRow(EQ, 1, terms...)
		allVars = append(allVars, vars)
		costs = append(costs, cs)
	}
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status %s", sol.Status)
	}
	// The LP optimum of independent exactly-one groups is the sum of the
	// per-group cost minima.
	want := 0.0
	for g := 0; g < groups; g++ {
		best := math.Inf(1)
		for _, c := range costs[g] {
			if c < best {
				best = c
			}
		}
		want += best
	}
	if math.Abs(sol.Obj-want) > 1e-5 {
		t.Fatalf("obj = %f, want %f", sol.Obj, want)
	}
	for g := 0; g < groups; g++ {
		sum := 0.0
		for _, v := range allVars[g] {
			sum += sol.X[v]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("group %d sums to %f", g, sum)
		}
	}
}

// TestRatioHeapMatchesSort: the dual ratio walk pops candidates in exactly
// the (ratio, column) order a full sort gives, ties in ratio included.
func TestRatioHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200)
		h := make(ratioHeap, 0, n)
		for _, j := range rng.Perm(4 * (n + 1))[:n] {
			// Few distinct ratios, so most candidates tie on ratio.
			h = append(h, ratioCand{j: j, ratio: float64(rng.Intn(6)) / 4})
		}
		want := append([]ratioCand(nil), h...)
		slices.SortFunc(want, func(a, b ratioCand) int {
			switch {
			case a.ratio < b.ratio:
				return -1
			case a.ratio > b.ratio:
				return 1
			}
			return a.j - b.j
		})
		h.init()
		for k, w := range want {
			if got := h.pop(); got != w {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, k, got, w)
			}
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d candidates left after popping all", trial, len(h))
		}
	}
}
