package cpsat

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Differential harness: the CDCL engine and the naive fixpoint reference
// (reference_test.go) must agree on every randomized model — identical
// status, identical optimal objective, and any returned assignment must
// satisfy every constraint of the model. Budgets are branch-free and
// generous so both searches run to completion; the two may return
// different optimal assignments, so Values are checked for feasibility,
// not equality. An aggressively small Luby unit (diffOpts) makes restarts,
// clause installs, database reductions, and learned-row propagation all
// fire on models this size.

var diffOpts = Options{RestartBase: 4}

// randomModel draws a small model: interval domains, a few two-sided
// linears (some deliberately unsatisfiable), implications, and usually an
// objective. Returning the raw constraint lists lets the harness check
// solutions independently of either solver.
func randomModel(rng *rand.Rand) (*Model, []linear, []implication) {
	m := NewModel()
	nv := 2 + rng.Intn(6)
	vars := make([]Var, nv)
	for i := range vars {
		lo := int64(rng.Intn(15) - 7)
		hi := lo + int64(rng.Intn(10))
		vars[i] = m.NewIntVar(lo, hi, fmt.Sprintf("v%d", i))
	}

	var lins []linear
	nc := 1 + rng.Intn(4)
	for c := 0; c < nc; c++ {
		// Sparse rows with mixed-sign, occasionally zero coefficients.
		coefs := make([]int64, nv)
		for i := range coefs {
			coefs[i] = int64(rng.Intn(7) - 3)
		}
		mid := int64(rng.Intn(21) - 10)
		lo, hi := mid-int64(rng.Intn(8)), mid+int64(rng.Intn(8))
		switch rng.Intn(4) {
		case 0:
			m.AddLinearEQ(vars, coefs, mid)
			lins = append(lins, linear{vars: vars, coefs: coefs, lo: mid, hi: mid})
		case 1:
			m.AddLinearLE(vars, coefs, hi)
			lins = append(lins, linear{vars: vars, coefs: coefs, lo: -1 << 40, hi: hi})
		default:
			m.AddLinearRange(vars, coefs, lo, hi)
			lins = append(lins, linear{vars: vars, coefs: coefs, lo: lo, hi: hi})
		}
	}

	var imps []implication
	for c := rng.Intn(3); c > 0; c-- {
		x, y := vars[rng.Intn(nv)], vars[rng.Intn(nv)]
		if x == y {
			continue
		}
		thr := int64(rng.Intn(10) - 4)
		lim := int64(rng.Intn(10) - 4)
		m.AddImplication(x, thr, y, lim)
		imps = append(imps, implication{x: x, c: thr, y: y, d: lim})
	}

	if rng.Intn(5) > 0 {
		coefs := make([]int64, nv)
		for i := range coefs {
			coefs[i] = int64(rng.Intn(9) - 4)
		}
		m.Minimize(vars, coefs)
	}
	return m, lins, imps
}

// checkSolution verifies an assignment against the raw constraint lists.
func checkSolution(t *testing.T, tag string, seed int64, vals []int64, lins []linear, imps []implication) {
	t.Helper()
	for i, l := range lins {
		var sum int64
		for j, v := range l.vars {
			sum += l.coefs[j] * vals[v]
		}
		if sum < l.lo || sum > l.hi {
			t.Errorf("seed %d: %s violates linear %d: %d not in [%d,%d]", seed, tag, i, sum, l.lo, l.hi)
		}
	}
	for i, im := range imps {
		if vals[im.x] >= im.c && vals[im.y] > im.d {
			t.Errorf("seed %d: %s violates implication %d", seed, tag, i)
		}
	}
}

func TestDifferentialAgainstReference(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, lins, imps := randomModel(rng)
		want := refSolve(m, Options{})

		got := m.Solve(diffOpts)
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v vs %v (reference)", seed, got.Status, want.Status)
		}
		if got.Status == Optimal && m.hasObj && got.Objective != want.Objective {
			t.Fatalf("seed %d: objective %d vs %d (reference)", seed, got.Objective, want.Objective)
		}
		if got.Values != nil {
			checkSolution(t, "solution", seed, got.Values, lins, imps)
		}
		if want.Values != nil {
			checkSolution(t, "reference solution", seed, want.Values, lins, imps)
		}
	}
}

// TestDifferentialOPGShapedModels repeats the comparison on the window
// shapes tryCP emits: completeness equalities, per-layer capacities,
// cumulative in-flight rows, and loading-distance implications.
func TestDifferentialOPGShapedModels(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		nw := 2 + rng.Intn(3)
		nl := 2 + rng.Intn(3)
		m := NewModel()
		caps := make([]int64, nl)
		var capSum int64
		for l := range caps {
			caps[l] = int64(1 + rng.Intn(5))
			capSum += caps[l]
		}
		layerVars := make([][]Var, nl)
		var objVars []Var
		var objCoefs []int64
		for w := 0; w < nw; w++ {
			chunks := int64(1 + rng.Intn(5))
			if chunks > capSum {
				chunks = capSum
			}
			row := make([]Var, nl)
			ones := make([]int64, nl)
			z := m.NewIntVar(0, int64(nl), "z")
			for l := 0; l < nl; l++ {
				hi := chunks
				if caps[l] < hi {
					hi = caps[l]
				}
				row[l] = m.NewIntVar(0, hi, "x")
				ones[l] = 1
				layerVars[l] = append(layerVars[l], row[l])
				m.AddImplication(row[l], 1, z, int64(l))
				objVars = append(objVars, row[l])
				objCoefs = append(objCoefs, int64(l))
			}
			m.AddLinearEQ(row, ones, chunks)
			objVars = append(objVars, z)
			objCoefs = append(objCoefs, -8)
		}
		for l, vars := range layerVars {
			ones := make([]int64, len(vars))
			for i := range ones {
				ones[i] = 1
			}
			m.AddLinearLE(vars, ones, caps[l])
		}
		m.Minimize(objVars, objCoefs)

		want := refSolve(m, Options{})
		got := m.Solve(diffOpts)
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v vs reference %v", seed, got.Status, want.Status)
		}
		if got.Status == Optimal && got.Objective != want.Objective {
			t.Fatalf("seed %d: objective %d vs reference %d", seed, got.Objective, want.Objective)
		}
	}
}

// TestWallClockPolledDuringPropagation pins the satellite fix: a single
// adversarial propagation burst (two linear rows walking two huge domains
// toward an infeasibility one unit per wake) must notice the deadline
// mid-fixpoint instead of only at the next branch.
func TestWallClockPolledDuringPropagation(t *testing.T) {
	m := NewModel()
	const huge = 200_000_000
	x := m.NewIntVar(0, huge, "x")
	y := m.NewIntVar(0, huge, "y")
	// x = y and 2x = 2y+2 (coefficients differ so root row-dedup cannot
	// collapse them): bounds-consistency converges only after ~hugely many
	// one-unit tightenings, all inside the root fixpoint.
	m.AddLinearEQ([]Var{x, y}, []int64{1, -1}, 0)
	m.AddLinearEQ([]Var{x, y}, []int64{2, -2}, 2)

	done := make(chan Result, 1)
	go func() { done <- m.Solve(Options{TimeLimit: 30 * time.Millisecond}) }()
	select {
	case r := <-done:
		// Infeasibility was not proven within the budget; the result must
		// say so rather than claim completeness.
		if r.Status == Optimal || r.Status == Feasible {
			t.Fatalf("infeasible model reported %v", r.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solver ignored the time limit during a propagation burst")
	}
}
