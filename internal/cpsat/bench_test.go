package cpsat

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks over the model shapes OPG actually emits: knapsack-style
// chunk allocation (C0 completeness rows + C3 capacity rows + C2-like
// cumulative rows) and implication-heavy loading-distance models. `make
// bench-solver` runs these plus the Table 4 cold solves; the nightly CI job
// archives the results as BENCH_solver.json so the solver's perf trajectory
// is comparable across PRs.

// buildKnapsack models one OPG window: nw weights of up to maxChunks chunks
// allocated across nl layers under per-layer capacities, minimizing a
// proximity-ranked objective — the same row/column structure tryCP builds.
func buildKnapsack(nw, nl, maxChunks int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	caps := make([]int64, nl)
	layerVars := make([][]Var, nl)
	for l := range caps {
		caps[l] = int64(2 + rng.Intn(maxChunks))
	}
	var objVars []Var
	var objCoefs []int64
	for w := 0; w < nw; w++ {
		chunks := int64(1 + rng.Intn(maxChunks))
		row := make([]Var, nl)
		ones := make([]int64, nl)
		for l := 0; l < nl; l++ {
			hi := chunks
			if caps[l] < hi {
				hi = caps[l]
			}
			row[l] = m.NewIntVar(0, hi, "x")
			ones[l] = 1
			layerVars[l] = append(layerVars[l], row[l])
			objVars = append(objVars, row[l])
			objCoefs = append(objCoefs, int64(l))
		}
		// C0: the weight's chunks must all be placed — but never more than
		// the layers can jointly carry, so the model stays feasible.
		var capSum int64
		for l := 0; l < nl; l++ {
			capSum += caps[l]
		}
		if chunks > capSum {
			chunks = capSum
		}
		m.AddLinearEQ(row, ones, chunks)
	}
	for l, vars := range layerVars {
		m.AddLinearLE(vars, onesBench(len(vars)), caps[l]*int64(1+nw/3))
	}
	m.Minimize(objVars, objCoefs)
	return m
}

// buildImplicationChain models C1 loading-distance reasoning: a chain of
// (x_i >= 1) => (z <= d_i) implications against a maximized z.
func buildImplicationChain(n int) *Model {
	m := NewModel()
	z := m.NewIntVar(0, int64(n), "z")
	var vars []Var
	var coefs []int64
	for i := 0; i < n; i++ {
		x := m.NewIntVar(0, 4, "x")
		m.AddImplication(x, 1, z, int64(n-i))
		vars = append(vars, x)
		coefs = append(coefs, 1)
	}
	m.AddLinearRange(vars, coefs, int64(n), int64(4*n))
	vars = append(vars, z)
	coefs = append(coefs, -int64(8*n))
	m.Minimize(vars, coefs)
	return m
}

func benchSolve(b *testing.B, build func() *Model, opts Options) {
	b.Helper()
	b.ReportAllocs()
	var last Result
	for i := 0; i < b.N; i++ {
		last = build().Solve(opts)
	}
	if last.Status == Unknown && opts.MaxBranches == 0 {
		b.Fatal("unbounded solve returned UNKNOWN")
	}
	b.ReportMetric(float64(last.Branches), "branches")
	b.ReportMetric(float64(last.Propagations), "props")
}

func BenchmarkKnapsackSmall(b *testing.B) {
	benchSolve(b, func() *Model { return buildKnapsack(6, 4, 8, 1) }, Options{})
}

func BenchmarkKnapsackWindow(b *testing.B) {
	// One realistic OPG window: 12 weights × 12 candidate layers.
	benchSolve(b, func() *Model { return buildKnapsack(12, 12, 16, 7) }, Options{MaxBranches: 20000})
}

func BenchmarkKnapsackWide(b *testing.B) {
	// A wide budget-bound window: per-branch cost dominates.
	benchSolve(b, func() *Model { return buildKnapsack(24, 16, 24, 3) }, Options{MaxBranches: 8000})
}

func BenchmarkImplicationChain(b *testing.B) {
	benchSolve(b, func() *Model { return buildImplicationChain(64) }, Options{MaxBranches: 20000})
}

// buildContendedKnapsack is buildKnapsack without the capacity headroom:
// layer capacities barely cover the joint demand, which is the boundary
// window of a contended Llama2-70B solve — the shape where the search
// conflicts constantly and CDCL's backjumping pays or doesn't.
func buildContendedKnapsack(nw, nl, maxChunks int, seed int64) *Model {
	m := buildKnapsack(nw, nl, maxChunks, seed)
	// Retighten every capacity row to its bare cap (buildKnapsack scales
	// them by 1+nw/3): the same rows exist, so this only shrinks hi.
	for i := range m.linears {
		l := &m.linears[i]
		if l.lo < -1<<40 && len(l.vars) == nw { // capacity rows span all weights
			l.hi = l.hi / int64(1+nw/3)
		}
	}
	return m
}

// BenchmarkKnapsackContended70B is the contended boundary-window family
// at Llama2-70B window width, budget-bound like the cold solves: the
// branch budget is exhausted, so time measures per-branch cost under
// constant conflict pressure (1-UIP analysis + backjumping included).
func BenchmarkKnapsackContended70B(b *testing.B) {
	benchSolve(b, func() *Model { return buildContendedKnapsack(24, 16, 24, 3) },
		Options{MaxBranches: 4000})
}

func onesBench(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
