package cpsat

import "testing"

// White-box tests for the CDCL core: conflicts are staged on hand-built
// models by driving the searcher directly — root propagation, manual
// decisions, drain to conflict — so analyze()'s first-UIP cut, backjump
// level, and self-subsumption minimization can be asserted literal by
// literal against conflict graphs worked out on paper.

// newCDCL builds a searcher and runs root propagation.
func newCDCL(t *testing.T, m *Model) *searcher {
	t.Helper()
	s := newSearcher(m, Options{})
	if s.rootInfeasible || !s.propagateRoot() {
		t.Fatal("hand-built model conflicted at the root")
	}
	return s
}

// decide opens a new decision level, applies the literal, and drains to a
// fixpoint. It reports drain's value: false means a conflict is pending.
func decide(s *searcher, v Var, ge bool, bound int64) bool {
	s.levelStart = append(s.levelStart, int32(len(s.trail)))
	s.level++
	s.curReason = reasonDecision
	if ge {
		s.setLo(int(v), bound)
	} else {
		s.setHi(int(v), bound)
	}
	return s.drain()
}

func wantLits(t *testing.T, tag string, got, want []lit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: learned %v, want %v", tag, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: learned %v, want %v", tag, got, want)
		}
	}
}

// TestAnalyzeFirstUIPInterior: the classic diamond. Deciding d ≤ 0 forces
// u ≥ 1 (d+u ≥ 1), which forces a ≤ 0 and b ≤ 0 (u+a ≤ 1, u+b ≤ 1),
// violating a+b ≥ 1. Both conflict antecedents resolve back to the single
// interior node u ≥ 1 — the first UIP — so the learned nogood is the unit
// ¬(u ≥ 1), not the decision, and the cut is strictly stronger than the
// decision cut {d ≤ 0}.
func TestAnalyzeFirstUIPInterior(t *testing.T) {
	m := NewModel()
	d := m.NewIntVar(0, 1, "d")
	u := m.NewIntVar(0, 1, "u")
	a := m.NewIntVar(0, 1, "a")
	b := m.NewIntVar(0, 1, "b")
	m.AddLinearRange([]Var{d, u}, []int64{1, 1}, 1, 2)
	m.AddLinearLE([]Var{u, a}, []int64{1, 1}, 1)
	m.AddLinearLE([]Var{u, b}, []int64{1, 1}, 1)
	m.AddLinearRange([]Var{a, b}, []int64{1, 1}, 1, 2)

	s := newCDCL(t, m)
	if decide(s, d, false, 0) {
		t.Fatal("decision d<=0 should conflict")
	}
	lits, bj, pure, ok := s.analyze()
	if !ok {
		t.Fatal("analyze refuted the root on a satisfiable-at-root conflict")
	}
	wantLits(t, "first-UIP cut", lits, []lit{{v: int32(u), ge: true, bound: 1}})
	if bj != 0 {
		t.Fatalf("unit nogood must assert at the root: bj = %d", bj)
	}
	if !pure {
		t.Fatal("objective-free derivation must be pure")
	}
}

// TestAnalyzeDecisionUIP: when the decision itself is the only dominator
// (x ≤ 0 forces y ≥ 1 and z ≥ 1 through separate rows, violating
// y+z ≤ 1), resolution must walk all the way back and learn ¬(x ≤ 0).
func TestAnalyzeDecisionUIP(t *testing.T) {
	m := NewModel()
	x := m.NewIntVar(0, 1, "x")
	y := m.NewIntVar(0, 1, "y")
	z := m.NewIntVar(0, 1, "z")
	m.AddLinearRange([]Var{x, y}, []int64{1, 1}, 1, 2)
	m.AddLinearRange([]Var{x, z}, []int64{1, 1}, 1, 2)
	m.AddLinearLE([]Var{y, z}, []int64{1, 1}, 1)

	s := newCDCL(t, m)
	if decide(s, x, false, 0) {
		t.Fatal("decision x<=0 should conflict")
	}
	lits, bj, _, ok := s.analyze()
	if !ok {
		t.Fatal("analyze refuted the root")
	}
	wantLits(t, "decision-UIP cut", lits, []lit{{v: int32(x), ge: false, bound: 0}})
	if bj != 0 {
		t.Fatalf("bj = %d, want 0", bj)
	}
}

// TestAnalyzeBackjumpLevel: the diamond conflict additionally drags in
// e ≤ 0 from level 1 (conflict row a+b+e ≥ 1), with an unrelated decision
// on f padding level 2. The learned nogood {e ≤ 0, u ≥ 1} must order the
// level-1 literal first, assert at level 1 — skipping the intact level 2
// entirely — and count one non-chronological backjump.
func TestAnalyzeBackjumpLevel(t *testing.T) {
	m := NewModel()
	e := m.NewIntVar(0, 1, "e")
	f := m.NewIntVar(0, 1, "f")
	d := m.NewIntVar(0, 1, "d")
	u := m.NewIntVar(0, 1, "u")
	a := m.NewIntVar(0, 1, "a")
	b := m.NewIntVar(0, 1, "b")
	m.AddLinearRange([]Var{d, u}, []int64{1, 1}, 1, 2)
	m.AddLinearLE([]Var{u, a}, []int64{1, 1}, 1)
	m.AddLinearLE([]Var{u, b}, []int64{1, 1}, 1)
	m.AddLinearRange([]Var{a, b, e}, []int64{1, 1, 1}, 1, 3)

	s := newCDCL(t, m)
	if !decide(s, e, false, 0) || !decide(s, f, false, 0) {
		t.Fatal("levels 1-2 must not conflict")
	}
	if decide(s, d, false, 0) {
		t.Fatal("decision d<=0 should conflict")
	}
	if !s.analyzeAndJump() {
		t.Fatal("analyzeAndJump refuted the root")
	}
	if s.level != 1 {
		t.Fatalf("backjump landed at level %d, want 1 (skipping intact level 2)", s.level)
	}
	if s.backjumps != 1 {
		t.Fatalf("backjumps = %d, want 1", s.backjumps)
	}
	// The installed clause unit-asserts ¬(u ≥ 1) at level 1 on the next
	// drain, with e ≤ 0 still on the trail.
	if !s.drain() {
		t.Fatal("assertion drain conflicted")
	}
	if s.hi[u] != 0 {
		t.Fatalf("learned clause did not assert u <= 0: hi[u] = %d", s.hi[u])
	}
	if s.hi[e] != 0 {
		t.Fatal("level-1 context lost across the backjump")
	}
}

// TestAnalyzeMinimizesImpliedLiteral: the conflict set contains both the
// level-1 decision w ≥ 1 and its direct consequence c ≤ 0 (via the
// implication (w ≥ 1) ⇒ (c ≤ 0)). Self-subsumption must notice c ≤ 0 is
// redundant — its sole antecedent is already in the nogood — and emit the
// two-literal clause {w ≥ 1, d ≥ 1} instead of three.
func TestAnalyzeMinimizesImpliedLiteral(t *testing.T) {
	m := NewModel()
	w := m.NewIntVar(0, 1, "w")
	c := m.NewIntVar(0, 1, "c")
	d := m.NewIntVar(0, 1, "d")
	u := m.NewIntVar(0, 1, "u")
	p := m.NewIntVar(0, 1, "p")
	m.AddImplication(w, 1, c, 0)
	m.AddLinearLE([]Var{d, u}, []int64{1, 1}, 1)
	m.AddLinearLE([]Var{d, p}, []int64{1, 1}, 1)
	// u + p + c - w ≥ 0: violated exactly when u, p, c are all 0 and w is 1.
	m.AddLinearRange([]Var{u, p, c, w}, []int64{1, 1, 1, -1}, 0, 3)

	s := newCDCL(t, m)
	if !decide(s, w, true, 1) {
		t.Fatal("level 1 must not conflict")
	}
	if decide(s, d, true, 1) {
		t.Fatal("decision d>=1 should conflict")
	}
	lits, bj, _, ok := s.analyze()
	if !ok {
		t.Fatal("analyze refuted the root")
	}
	wantLits(t, "minimized cut", lits,
		[]lit{{v: int32(w), ge: true, bound: 1}, {v: int32(d), ge: true, bound: 1}})
	if bj != 1 {
		t.Fatalf("bj = %d, want 1", bj)
	}
	if s.minimized != 1 {
		t.Fatalf("minimized = %d, want 1 (c <= 0 is subsumed by w >= 1)", s.minimized)
	}
}

// pigeonModel builds the pigeonhole principle PHP(n, n-1): n pigeons into
// n-1 holes, one 0/1 var per (pigeon, hole) pair. Infeasible, objective
// free, and — unlike a root wipeout — only provable by search, so the
// refutation exercises conflict analysis.
func pigeonModel(n int) *Model {
	m := NewModel()
	holes := n - 1
	x := make([][]Var, n)
	for i := range x {
		x[i] = make([]Var, holes)
		for j := range x[i] {
			x[i][j] = m.NewIntVar(0, 1, "x")
		}
	}
	ones := func(k int) []int64 {
		o := make([]int64, k)
		for i := range o {
			o[i] = 1
		}
		return o
	}
	for i := 0; i < n; i++ {
		m.AddLinearRange(x[i], ones(holes), 1, int64(holes))
	}
	for j := 0; j < holes; j++ {
		col := make([]Var, n)
		for i := 0; i < n; i++ {
			col[i] = x[i][j]
		}
		m.AddLinearLE(col, ones(n), 1)
	}
	return m
}

// TestInfeasibleRefutation: PHP(5,4) has no root wipeout, so the
// infeasibility proof must come from search, through conflict analysis.
func TestInfeasibleRefutation(t *testing.T) {
	res := pigeonModel(5).Solve(Options{})
	if res.Status != Infeasible {
		t.Fatalf("PHP(5,4) status %v, want Infeasible", res.Status)
	}
	if res.Conflicts == 0 {
		t.Fatal("refutation reported zero conflicts — analysis never ran")
	}
}
