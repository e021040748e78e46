package cpsat

import "testing"

// Conflict-driven learning tests: restarts must actually fire, learned
// nogoods must be installed and propagated, and the search must stay
// deterministic and exact (same status and objective as the fixpoint
// reference) on the window shapes OPG emits.

// hardKnapsack builds a window model contended enough to generate many
// conflicts: tight per-layer capacities against full-allocation rows.
func hardKnapsack(nw, nl int) *Model {
	m := NewModel()
	layerVars := make([][]Var, nl)
	var objVars []Var
	var objCoefs []int64
	for w := 0; w < nw; w++ {
		row := make([]Var, nl)
		ones := make([]int64, nl)
		for l := 0; l < nl; l++ {
			row[l] = m.NewIntVar(0, 3, "x")
			ones[l] = 1
			layerVars[l] = append(layerVars[l], row[l])
			objVars = append(objVars, row[l])
			objCoefs = append(objCoefs, int64(l+w%3))
		}
		m.AddLinearEQ(row, ones, int64(nl))
	}
	for _, vars := range layerVars {
		ones := make([]int64, len(vars))
		for i := range ones {
			ones[i] = 1
		}
		m.AddLinearLE(vars, ones, int64(nw+1))
	}
	m.Minimize(objVars, objCoefs)
	return m
}

func TestLearningRestartsAndNogoodsFire(t *testing.T) {
	m := hardKnapsack(4, 4)
	res := m.Solve(Options{RestartBase: 8})
	if res.Status != Optimal {
		t.Fatalf("status = %v, want OPTIMAL", res.Status)
	}
	if res.Restarts == 0 {
		t.Error("no Luby restarts fired despite a tiny restart base")
	}
	if res.Nogoods == 0 {
		t.Error("no nogoods learned despite conflicts")
	}
	ref := refSolve(hardKnapsack(4, 4), Options{})
	if ref.Status != res.Status || ref.Objective != res.Objective {
		t.Fatalf("learning changed the answer: %v/%d vs reference %v/%d",
			res.Status, res.Objective, ref.Status, ref.Objective)
	}
}

func TestLearningIsDeterministic(t *testing.T) {
	opts := Options{RestartBase: 8, MaxBranches: 2000}
	a := hardKnapsack(6, 5).Solve(opts)
	b := hardKnapsack(6, 5).Solve(opts)
	if a.Status != b.Status || a.Objective != b.Objective ||
		a.Branches != b.Branches || a.Nogoods != b.Nogoods || a.Restarts != b.Restarts {
		t.Fatalf("two identical learning solves diverged: %+v vs %+v", a, b)
	}
	if a.TimedOut || b.TimedOut {
		t.Error("branch-budget expiry must not set TimedOut (it is the wall-clock flag)")
	}
}

func TestLearningOnInfeasibleModel(t *testing.T) {
	// Infeasible by capacity: every weight needs nl chunks but the joint
	// capacity rows cannot carry them.
	m := NewModel()
	const nw, nl = 5, 4
	layerVars := make([][]Var, nl)
	for w := 0; w < nw; w++ {
		row := make([]Var, nl)
		ones := make([]int64, nl)
		for l := 0; l < nl; l++ {
			row[l] = m.NewIntVar(0, int64(nl), "x")
			ones[l] = 1
			layerVars[l] = append(layerVars[l], row[l])
		}
		m.AddLinearEQ(row, ones, int64(nl))
	}
	for _, vars := range layerVars {
		ones := make([]int64, len(vars))
		for i := range ones {
			ones[i] = 1
		}
		m.AddLinearLE(vars, ones, 2) // nw*nl demand vs nl*2 capacity
	}
	res := m.Solve(Options{RestartBase: 2})
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want INFEASIBLE", res.Status)
	}
}
