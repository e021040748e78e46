// Package cpsat is a small constraint-programming solver over bounded
// integer variables: the stand-in for Google OR-Tools CP-SAT that §3
// reduces the Overlap Plan Generation problem to.
//
// It supports exactly the fragment OPG needs — interval domains, linear
// constraints with two-sided bounds, reified threshold implications
// ((x ≥ c) ⇒ (y ≤ d)), and linear objective minimization — implemented
// honestly: bounds-consistency propagation driven by var→constraint
// watchlists (only constraints watching a tightened variable wake up),
// trail-based backtracking (an undo stack of bound changes instead of
// domain-array copies at every branch), incremental expression-bound
// maintenance for linear rows, and a conflict-driven branch-and-bound
// search (cdcl.go) with most-constrained-variable selection,
// objective-directed value ordering, incumbent-driven objective
// tightening, and a wall-clock time limit yielding OPTIMAL / FEASIBLE /
// INFEASIBLE / UNKNOWN statuses like the paper's Table 4 reports.
package cpsat

import (
	"fmt"
	"math"
	"time"
)

// Var is a variable handle within one Model.
type Var int

// Status is the solver outcome.
type Status int

// Solver outcomes; FEASIBLE means the time limit expired with an incumbent
// whose optimality was not proven.
const (
	Unknown Status = iota
	Optimal
	Feasible
	Infeasible
)

// String names the status like CP-SAT logs do.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "OPTIMAL"
	case Feasible:
		return "FEASIBLE"
	case Infeasible:
		return "INFEASIBLE"
	default:
		return "UNKNOWN"
	}
}

// linear is lo ≤ Σ coefs·vars ≤ hi.
type linear struct {
	vars  []Var
	coefs []int64
	lo    int64
	hi    int64
}

// implication is (x ≥ c) ⇒ (y ≤ d).
type implication struct {
	x Var
	c int64
	y Var
	d int64
}

// Model accumulates variables and constraints.
type Model struct {
	lo, hi []int64
	names  []string

	linears []linear
	implies []implication

	objVars  []Var
	objCoefs []int64
	hasObj   bool
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NewIntVar adds a variable with inclusive domain [lo, hi].
func (m *Model) NewIntVar(lo, hi int64, name string) Var {
	if lo > hi {
		panic(fmt.Sprintf("cpsat: var %s has empty domain [%d,%d]", name, lo, hi))
	}
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.names = append(m.names, name)
	return Var(len(m.lo) - 1)
}

// NumVars returns the variable count.
func (m *Model) NumVars() int { return len(m.lo) }

// AddLinearRange adds lo ≤ Σ coefs·vars ≤ hi.
func (m *Model) AddLinearRange(vars []Var, coefs []int64, lo, hi int64) {
	if len(vars) != len(coefs) {
		panic("cpsat: vars/coefs length mismatch")
	}
	m.linears = append(m.linears, linear{
		vars: append([]Var(nil), vars...), coefs: append([]int64(nil), coefs...),
		lo: lo, hi: hi,
	})
}

// AddLinearLE adds Σ coefs·vars ≤ hi.
func (m *Model) AddLinearLE(vars []Var, coefs []int64, hi int64) {
	m.AddLinearRange(vars, coefs, math.MinInt64/4, hi)
}

// AddLinearEQ adds Σ coefs·vars = v.
func (m *Model) AddLinearEQ(vars []Var, coefs []int64, v int64) {
	m.AddLinearRange(vars, coefs, v, v)
}

// AddImplication adds (x ≥ c) ⇒ (y ≤ d), propagated in both directions.
func (m *Model) AddImplication(x Var, c int64, y Var, d int64) {
	m.implies = append(m.implies, implication{x: x, c: c, y: y, d: d})
}

// Minimize sets the objective Σ coefs·vars.
func (m *Model) Minimize(vars []Var, coefs []int64) {
	if len(vars) != len(coefs) {
		panic("cpsat: objective vars/coefs length mismatch")
	}
	m.objVars = append([]Var(nil), vars...)
	m.objCoefs = append([]int64(nil), coefs...)
	m.hasObj = true
}

// Options bounds the search.
type Options struct {
	TimeLimit   time.Duration // wall-clock budget; 0 = no limit
	MaxBranches int64         // branch budget; 0 = no limit

	// RestartBase is the conflict budget of the first run; later runs scale
	// it by the Luby sequence (1,1,2,1,1,2,4,…). 0 means the package
	// default.
	RestartBase int64
}

// defaultRestartBase is the Luby unit: easy solves finish well under it and
// never restart, so learning costs them nothing.
const defaultRestartBase = 256

// maxNogoods bounds the watched learned store: once it overflows, the next
// restart halves it by activity.
const maxNogoods = 4096

// initialDBMax is the starting watched-clause budget; it grows by half at
// every overflowing database reduction (up to maxNogoods). Budget-bounded
// window solves learn ~1-2k clauses and want all of them hot — aggressive
// early reduction measurably re-learns the same conflicts — so the
// starting budget is the cap itself.
const initialDBMax = maxNogoods

// reasonOnlyLen is the watched-clause length cutoff: a learned nogood
// wider than this almost never re-propagates but would bloat the watch
// lists every solve long, so it is stored un-watched purely as the
// assertion's reason. Impure reason-only clauses are dead weight once
// their assertion unwinds and are dropped at the next database reduction;
// pure ones are kept. Which clauses a reduction keeps decides when it
// renumbers the store and rebuilds the watch lists, so changing the rule
// moves search trajectories and plans.
const reasonOnlyLen = 4

// Result is a solve outcome.
type Result struct {
	Status    Status
	Values    []int64
	Objective int64

	Branches      int64
	Propagations  int64 // propagator executions (queue pops)
	Wakes         int64 // constraint activations scheduled by bound changes
	TrailOps      int64 // bound changes pushed to (and undone from) the trail
	Nogoods       int64 // learned nogoods installed (incl. root-unit ones)
	Restarts      int64 // Luby restarts performed
	Conflicts     int64 // conflicts hit (wipeouts, violated rows, re-entered nogoods)
	Backjumps     int64 // non-chronological backjumps (skipping over ≥1 intact level)
	MinimizedLits int64 // literals removed from learned nogoods by self-subsumption
	Elapsed       time.Duration

	// TimedOut reports that the wall clock expired mid-search. A solve cut
	// short only by MaxBranches leaves it false: branch budgets are
	// deterministic, so equal inputs still produce equal results.
	TimedOut bool
}

// Value returns the solution value of v.
func (r Result) Value(v Var) int64 { return r.Values[v] }

// propPollStride is how many propagator executions may pass between
// wall-clock deadline polls. Without it, a long propagation burst between
// two branches would only notice an expired TimeLimit at the next branch —
// arbitrarily late, since a single fixpoint can run for seconds on
// adversarial chains.
const propPollStride = 2048

// watch is one linear row's interest in a variable.
type watch struct {
	c    int32 // row index in searcher.lins
	coef int64
}

// trailEntry records one single-side bound tightening: which side of which
// variable, the bound it replaced, the propagation reason (a constraint id,
// or reasonDecision/reasonAssert), the decision level, and a link to the
// variable's previous tightening of the same side. Backtracking restores
// bounds (and the incremental row sums) by replaying entries in reverse;
// conflict analysis walks the per-variable chains to find, for any entailed
// bound literal, the entry that first established it.
type trailEntry struct {
	v      int32
	ge     bool  // true: lower-bound tightening, false: upper-bound
	useLo  bool  // linear-row reasons: tightening used the row's lo (vs hi) bound
	old    int64 // bound value before this entry
	prev   int32 // previous same-side entry for v (-1 at chain end)
	reason int32 // constraint id, reasonDecision, or reasonAssert
	level  int32 // decision level the tightening happened at
}

// Reason codes for trail entries that were not forced by a constraint.
const (
	reasonDecision int32 = -1 // a branch decision
	reasonAssert   int32 = -2 // root-level enforcement (unit nogood)
)

// lit is a bound literal: x ≥ bound when ge, else x ≤ bound. Every branch
// decision is one literal (the other half of the assigned interval is
// already implied by the current domain), so a refuted decision path is a
// conjunction of literals — the learned nogood ¬(l₁ ∧ … ∧ lₖ).
type lit struct {
	v     int32
	ge    bool
	bound int64
}

type searcher struct {
	m *Model

	lo, hi []int64

	// lins holds the model's (deduplicated) linear rows plus, at objIdx,
	// the objective row obj ≤ incumbent-1 whose hi tightens as solutions
	// are found. linLo/linHi are each row's Σ bounds under the current
	// domains, maintained incrementally by setLo/setHi.
	lins   []linear
	objIdx int
	linLo  []int64
	linHi  []int64

	watchLin [][]watch // var → linear rows containing it
	watchImp [][]int32 // var → implications mentioning it
	degree   []int32   // var → watcher count (branching tie-break)
	objCoef  []int64   // var → objective coefficient (value ordering)

	// queue is a FIFO of pending constraint ids: [0,len(lins)) are linear
	// rows, len(lins)+i is implication i. inQueue suppresses duplicates.
	queue      []int32
	qhead      int
	inQueue    []bool
	objPending bool // objective row woken; propagated only at cheap-row fixpoint

	trail []trailEntry

	best    []int64
	bestObj int64
	hasBest bool

	rootInfeasible bool // empty constraint range found during row dedup

	// Conflict-driven learning state. Learned nogoods are watched rows
	// (ngWatchLo/Hi wake a nogood when a ≥/≤ literal of one of its vars may
	// have become entailed), branching follows conflict-bumped activities,
	// and a Luby restart fires whenever the conflict count reaches
	// restartAt.
	activity  []float64
	varInc    float64
	nogoods   [][]lit
	ngW       [][2]int32  // per nogood: the two watched literal indexes
	ngWatchLo [][]ngWatch // var → nogoods watching a ≥-literal of it (may hold stale entries)
	ngWatchHi [][]ngWatch
	conflicts int64
	restartAt int64 // conflict count that triggers the next restart
	runIdx    int64
	rstBase   int64
	learned   int64
	restarts  int64

	// Every trail entry carries its reason and level; loHead/hiHead are the
	// per-variable chains of same-side tightenings that conflict analysis
	// walks to find the entry establishing an entailed literal (and the
	// bounds that held at any earlier trail position, without shadow
	// copies). curReason and level stamp entries as they are pushed;
	// levelStart marks each decision level's first trail index so
	// backjumping is a truncation.
	loHead     []int32 // var → newest ≥-side trail entry (-1 if none)
	hiHead     []int32 // var → newest ≤-side trail entry
	curReason  int32
	curUseLo   bool // direction stamp for entries pushed by propLinear (see trailEntry.useLo)
	level      int32
	levelStart []int32 // levelStart[l] = trail length when level l began; [0]=0

	// Conflict site: conflV ≥ 0 means a domain wipeout on that var (the
	// wiping entry is already trailed); otherwise conflC is the violated
	// constraint id. Valid only between a failed drain and analysis.
	conflV int32
	conflC int32

	// Analysis scratch, reused across conflicts: seen marks trail
	// positions in the current conflict set, litAt holds the bound value
	// each marked entry established (the literal's bound), outPos collects
	// marked positions below the conflict level.
	seen    []bool
	litAt   []int64
	outPos  []int32
	markBuf []int32
	anteBuf []anteRef

	// Learned-clause metadata: per-nogood activity (bumped when a clause
	// appears in an analysis, decayed MiniSat-style) drives database
	// reduction. ngPure marks clauses whose derivation never touched the
	// objective row (directly, through a tainted nogood reason, or through
	// a tainted root), i.e. clauses implied by the hard constraints alone.
	// Purity steers the search in two places: reduceDB keeps pure
	// reason-only clauses and drops impure ones, and while a pure clause is
	// being minimized litRedundant refuses tainted reasons. rootTainted
	// flips once any objective-dependent fact lands at level 0, after which
	// no new derivation is pure (conflict analysis treats level-0 entries
	// as free facts).
	ngActivity  []float64
	ngInc       float64
	ngPure      []bool
	rootTainted bool
	dbMax       int // current watched-clause budget; grows geometrically per reduction up to maxNogoods

	backjumps int64
	minimized int64

	deadline    time.Time
	hasLimit    bool
	branches    int64
	maxBranch   int64
	props       int64
	wakes       int64
	trailOps    int64
	lastPoll    int64
	timedOut    bool
	timeExpired bool
}

// Solve runs conflict-driven branch-and-bound and returns the best
// solution found.
func (m *Model) Solve(opts Options) Result {
	start := time.Now()
	s := newSearcher(m, opts)
	if opts.TimeLimit > 0 {
		s.deadline = start.Add(opts.TimeLimit)
		s.hasLimit = true
	}

	complete := false
	switch {
	case s.rootInfeasible:
		complete = true
	case !s.propagateRoot():
		complete = !s.timedOut // root wipeout is proven unless the clock cut the fixpoint short
	default:
		complete = s.search()
	}

	res := Result{
		Branches:      s.branches,
		Propagations:  s.props,
		Wakes:         s.wakes,
		TrailOps:      s.trailOps,
		Nogoods:       s.learned,
		Restarts:      s.restarts,
		Conflicts:     s.conflicts,
		Backjumps:     s.backjumps,
		MinimizedLits: s.minimized,
		Elapsed:       time.Since(start),
		TimedOut:      s.timeExpired,
	}
	switch {
	case s.hasBest && (complete || !m.hasObj):
		res.Status = Optimal
		res.Values = s.best
		res.Objective = s.bestObj
	case s.hasBest:
		res.Status = Feasible
		res.Values = s.best
		res.Objective = s.bestObj
	case complete:
		res.Status = Infeasible
	default:
		res.Status = Unknown
	}
	return res
}

// newSearcher builds the watchlists, incremental row sums, and branching
// metadata for one solve.
func newSearcher(m *Model, opts Options) *searcher {
	nv := len(m.lo)
	s := &searcher{
		m:          m,
		lo:         append([]int64(nil), m.lo...),
		hi:         append([]int64(nil), m.hi...),
		objIdx:     -1,
		maxBranch:  opts.MaxBranches,
		curReason:  reasonAssert,
		conflV:     -1,
		conflC:     -1,
		activity:   make([]float64, nv),
		varInc:     1,
		rstBase:    opts.RestartBase,
		levelStart: []int32{0},
		ngInc:      1,
		dbMax:      initialDBMax,
	}
	if s.rstBase <= 0 {
		s.rstBase = defaultRestartBase
	}
	s.restartAt = s.rstBase
	s.loHead = make([]int32, nv)
	s.hiHead = make([]int32, nv)
	for v := 0; v < nv; v++ {
		s.loHead[v], s.hiHead[v] = -1, -1
	}

	// Root reduction: rows with identical terms collapse to one row with
	// intersected bounds. OPG's window models emit many such duplicates
	// (adjacent in-flight rows over an unchanged candidate set), and every
	// duplicate would otherwise wake — and scan — on each of its vars'
	// tightenings.
	s.lins = dedupRows(m.linears, &s.rootInfeasible)
	if m.hasObj {
		s.objIdx = len(s.lins)
		s.lins = append(s.lins, linear{
			vars: m.objVars, coefs: m.objCoefs,
			lo: math.MinInt64 / 4, hi: math.MaxInt64 / 4,
		})
	}

	nl := len(s.lins)
	s.linLo = make([]int64, nl)
	s.linHi = make([]int64, nl)
	s.inQueue = make([]bool, nl+len(m.implies))
	s.degree = make([]int32, nv)
	s.objCoef = make([]int64, nv)
	for i, v := range m.objVars {
		s.objCoef[v] += m.objCoefs[i]
	}

	// Watchlists over one flat backing array each: counting pass, then
	// capacity-sliced per-var lists, so construction does O(1) allocations.
	linCnt := make([]int32, nv)
	impCnt := make([]int32, nv)
	terms := 0
	for ci := range s.lins {
		c := &s.lins[ci]
		var exprLo, exprHi int64
		for j, v := range c.vars {
			k := c.coefs[j]
			if k >= 0 {
				exprLo += k * s.lo[v]
				exprHi += k * s.hi[v]
			} else {
				exprLo += k * s.hi[v]
				exprHi += k * s.lo[v]
			}
			if k != 0 {
				linCnt[v]++
				terms++
			}
		}
		s.linLo[ci], s.linHi[ci] = exprLo, exprHi
	}
	for i := range m.implies {
		impCnt[m.implies[i].x]++
		impCnt[m.implies[i].y]++
	}
	s.watchLin = make([][]watch, nv)
	s.watchImp = make([][]int32, nv)
	linFlat := make([]watch, terms)
	impFlat := make([]int32, 2*len(m.implies))
	linOff, impOff := 0, 0
	for v := 0; v < nv; v++ {
		s.watchLin[v] = linFlat[linOff : linOff : linOff+int(linCnt[v])]
		s.watchImp[v] = impFlat[impOff : impOff : impOff+int(impCnt[v])]
		linOff += int(linCnt[v])
		impOff += int(impCnt[v])
		s.degree[v] = linCnt[v] + impCnt[v]
	}
	for ci := range s.lins {
		c := &s.lins[ci]
		for j, v := range c.vars {
			if c.coefs[j] != 0 {
				s.watchLin[v] = append(s.watchLin[v], watch{c: int32(ci), coef: c.coefs[j]})
			}
		}
	}
	for i := range m.implies {
		im := &m.implies[i]
		s.watchImp[im.x] = append(s.watchImp[im.x], int32(i))
		s.watchImp[im.y] = append(s.watchImp[im.y], int32(i))
	}
	return s
}

// dedupRows merges rows with identical (vars, coefs) terms by intersecting
// their bound ranges. An empty intersection proves root infeasibility.
func dedupRows(rows []linear, infeasible *bool) []linear {
	if len(rows) < 2 {
		return append([]linear(nil), rows...)
	}
	seen := make(map[string]int, len(rows))
	keyBuf := make([]byte, 0, 256)
	out := make([]linear, 0, len(rows))
	for _, r := range rows {
		keyBuf = keyBuf[:0]
		for j, v := range r.vars {
			keyBuf = appendInt64(keyBuf, int64(v))
			keyBuf = appendInt64(keyBuf, r.coefs[j])
		}
		k := string(keyBuf)
		if i, ok := seen[k]; ok {
			if r.lo > out[i].lo {
				out[i].lo = r.lo
			}
			if r.hi < out[i].hi {
				out[i].hi = r.hi
			}
			if out[i].lo > out[i].hi {
				*infeasible = true
			}
			continue
		}
		seen[k] = len(out)
		out = append(out, r)
	}
	return out
}

func appendInt64(b []byte, v int64) []byte {
	u := uint64(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// expired reports whether a search budget ran out. The wall clock is also
// polled inside drain on a propagation stride, so a long fixpoint between
// branches cannot overshoot the limit.
func (s *searcher) expired() bool {
	if s.timedOut {
		return true
	}
	if s.maxBranch > 0 && s.branches >= s.maxBranch {
		s.timedOut = true
		return true
	}
	if s.hasLimit && s.branches%64 == 0 && time.Now().After(s.deadline) {
		s.timedOut = true
		s.timeExpired = true
		return true
	}
	return false
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// litHolds reports whether the current domains entail the literal.
func (s *searcher) litHolds(l lit) bool {
	if l.ge {
		return s.lo[l.v] >= l.bound
	}
	return s.hi[l.v] <= l.bound
}

// negateLit enforces the negation of a literal.
func (s *searcher) negateLit(l lit) bool {
	if l.ge {
		return s.setHi(int(l.v), l.bound-1)
	}
	return s.setLo(int(l.v), l.bound+1)
}

// regNgWatch registers nogood id in the watch list that fires when l may
// become entailed (setLo for ≥-literals, setHi for ≤-literals).
func (s *searcher) regNgWatch(id int32, l lit) {
	if l.ge {
		s.ngWatchLo[l.v] = append(s.ngWatchLo[l.v], ngWatch{ng: id, bound: l.bound})
	} else {
		s.ngWatchHi[l.v] = append(s.ngWatchHi[l.v], ngWatch{ng: id, bound: l.bound})
	}
}

// propNogood enforces one learned nogood ¬(l₁ ∧ … ∧ lₖ): with two free
// (non-entailed) literals it just re-points the watches at them; with a
// single free literal it asserts that literal's negation; with none the
// refuted path has been re-entered and the node fails. Backtracking never
// invalidates watches — relaxing bounds cannot entail a literal.
func (s *searcher) propNogood(k int) bool {
	s.props++
	ng := s.nogoods[k]
	f0, f1 := int32(-1), int32(-1)
	for i := len(ng) - 1; i >= 0; i-- {
		// Deepest-first: free literals cluster at the branch's deep end, so
		// the scan usually stops after a couple of probes, and relocated
		// watches stay on late-entailing literals.
		if !s.litHolds(ng[i]) {
			if f0 < 0 {
				f0 = int32(i)
			} else {
				f1 = int32(i)
				break
			}
		}
	}
	switch {
	case f0 < 0:
		s.conflV = -1
		s.conflC = int32(len(s.lins)+len(s.m.implies)) + int32(k)
		return false
	case f1 < 0:
		if s.level == 0 && !s.ngPure[k] {
			// An objective-tainted clause is asserting a root fact: later
			// derivations treating the root as free lose their purity.
			s.rootTainted = true
		}
		return s.negateLit(ng[f0])
	default:
		w := s.ngW[k]
		if w[0] != f0 && w[1] != f0 {
			s.regNgWatch(int32(k), ng[f0])
		}
		if w[0] != f1 && w[1] != f1 {
			s.regNgWatch(int32(k), ng[f1])
		}
		s.ngW[k] = [2]int32{f0, f1}
		return true
	}
}

// enqueue schedules constraint id c (a lins index, or len(lins)+i for
// implication i) unless it is already pending.
func (s *searcher) enqueue(c int32) {
	if int(c) == s.objIdx {
		// The objective row is by far the widest and purely redundant for
		// feasibility: defer it until the cheap rows reach fixpoint so one
		// scan sees all their tightenings instead of interleaving with them.
		if !s.objPending {
			s.objPending = true
			s.wakes++
		}
		return
	}
	if s.inQueue[c] {
		return
	}
	s.inQueue[c] = true
	s.wakes++
	s.queue = append(s.queue, c)
}

// clearQueue discards pending work after a wipeout or timeout.
func (s *searcher) clearQueue() {
	for _, c := range s.queue[s.qhead:] {
		s.inQueue[c] = false
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	s.objPending = false
}

// setLo tightens v's lower bound, trails the old bounds, refreshes the
// incremental sums of every row watching v, and wakes those watchers. It
// reports false on an emptied domain.
func (s *searcher) setLo(v int, nl int64) bool {
	ol := s.lo[v]
	if nl <= ol {
		return true
	}
	s.trail = append(s.trail, trailEntry{
		v: int32(v), ge: true, useLo: s.curUseLo, old: ol,
		prev: s.loHead[v], reason: s.curReason, level: s.level,
	})
	s.loHead[v] = int32(len(s.trail) - 1)
	s.trailOps++
	s.lo[v] = nl
	d := nl - ol
	for _, w := range s.watchLin[v] {
		if w.coef > 0 {
			s.linLo[w.c] += w.coef * d
		} else {
			s.linHi[w.c] += w.coef * d
		}
		s.enqueue(w.c)
	}
	nLin := int32(len(s.lins))
	for _, ii := range s.watchImp[v] {
		s.enqueue(nLin + ii)
	}
	if s.ngWatchLo != nil {
		s.wakeNogoods(v, true)
	}
	if nl > s.hi[v] {
		s.conflV, s.conflC = int32(v), -1
		return false
	}
	return true
}

// setHi is setLo's mirror for upper bounds.
func (s *searcher) setHi(v int, nh int64) bool {
	oh := s.hi[v]
	if nh >= oh {
		return true
	}
	s.trail = append(s.trail, trailEntry{
		v: int32(v), ge: false, useLo: s.curUseLo, old: oh,
		prev: s.hiHead[v], reason: s.curReason, level: s.level,
	})
	s.hiHead[v] = int32(len(s.trail) - 1)
	s.trailOps++
	s.hi[v] = nh
	d := nh - oh
	for _, w := range s.watchLin[v] {
		if w.coef > 0 {
			s.linHi[w.c] += w.coef * d
		} else {
			s.linLo[w.c] += w.coef * d
		}
		s.enqueue(w.c)
	}
	nLin := int32(len(s.lins))
	for _, ii := range s.watchImp[v] {
		s.enqueue(nLin + ii)
	}
	if s.ngWatchHi != nil {
		s.wakeNogoods(v, false)
	}
	if s.lo[v] > nh {
		s.conflV, s.conflC = int32(v), -1
		return false
	}
	return true
}

// ngWatch is one entry of a per-variable nogood watch list: the watching
// nogood plus the watched literal's bound, so a bound change that cannot
// have entailed the literal is filtered here without touching the nogood.
type ngWatch struct {
	ng    int32
	bound int64
}

// wakeNogoods schedules the nogoods watching a ≥-literal (ge) or ≤-literal
// of v that the bound change may have entailed. Entries whose nogood has
// since moved its watches off (v, bound) are stale — two-watch relocation
// appends to the new literal's list and leaves the old entry behind — and
// are swap-deleted here instead of waking.
func (s *searcher) wakeNogoods(v int, ge bool) {
	lists := s.ngWatchHi
	if ge {
		lists = s.ngWatchLo
	}
	list := lists[v]
	base := int32(len(s.lins) + len(s.m.implies))
	for i := 0; i < len(list); {
		e := list[i]
		if ge && s.lo[v] < e.bound || !ge && s.hi[v] > e.bound {
			i++ // the watched literal is still free: nothing to propagate
			continue
		}
		w := s.ngW[e.ng]
		lits := s.nogoods[e.ng]
		a, b := lits[w[0]], lits[w[1]]
		if (int(a.v) != v || a.ge != ge || a.bound != e.bound) &&
			(int(b.v) != v || b.ge != ge || b.bound != e.bound) {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			continue
		}
		s.enqueue(base + e.ng)
		i++
	}
	lists[v] = list
}

// undoTo pops the trail back to mark, restoring domains and replaying the
// incremental row-sum deltas in reverse. Watchers are not woken: relaxing
// a bound never enables new propagation.
func (s *searcher) undoTo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		e := &s.trail[i]
		v := int(e.v)
		if e.ge {
			if d := e.old - s.lo[v]; d != 0 {
				for _, w := range s.watchLin[v] {
					if w.coef > 0 {
						s.linLo[w.c] += w.coef * d
					} else {
						s.linHi[w.c] += w.coef * d
					}
				}
				s.lo[v] = e.old
			}
			s.loHead[v] = e.prev
		} else {
			if d := e.old - s.hi[v]; d != 0 {
				for _, w := range s.watchLin[v] {
					if w.coef > 0 {
						s.linHi[w.c] += w.coef * d
					} else {
						s.linLo[w.c] += w.coef * d
					}
				}
				s.hi[v] = e.old
			}
			s.hiHead[v] = e.prev
		}
	}
	s.trail = s.trail[:mark]
}

// propagateRoot wakes every constraint once and drains to fixpoint.
func (s *searcher) propagateRoot() bool {
	for c := range s.inQueue {
		s.enqueue(int32(c))
	}
	return s.drain()
}

// drain runs woken propagators until the queue empties (fixpoint), a
// domain wipes out, or the wall clock expires mid-burst. On failure the
// remaining queue is discarded.
func (s *searcher) drain() bool {
	nLin := len(s.lins)
	nImp := len(s.m.implies)
	for {
		for s.qhead < len(s.queue) {
			if s.hasLimit && s.props-s.lastPoll >= propPollStride {
				s.lastPoll = s.props
				if time.Now().After(s.deadline) {
					s.timedOut = true
					s.timeExpired = true
					s.clearQueue()
					return false
				}
			}
			c := int(s.queue[s.qhead])
			s.qhead++
			s.inQueue[c] = false
			s.curReason = int32(c)
			ok := true
			switch {
			case c < nLin:
				ok = s.propLinear(c)
			case c < nLin+nImp:
				ok = s.propImply(c - nLin)
			default:
				ok = s.propNogood(c - nLin - nImp)
			}
			if !ok {
				s.clearQueue()
				return false
			}
		}
		s.queue = s.queue[:0]
		s.qhead = 0
		if !s.objPending {
			return true
		}
		s.objPending = false
		s.curReason = int32(s.objIdx)
		if !s.propLinear(s.objIdx) {
			s.clearQueue()
			return false
		}
	}
}

// propLinear tightens variable bounds against one linear row using the
// incrementally maintained expression bounds: the O(1) feasibility and
// entailment checks come first, and any tightening refreshes linLo/linHi
// through setLo/setHi instead of a full O(n) recomputation.
func (s *searcher) propLinear(ci int) bool {
	c := &s.lins[ci]
	s.props++
	hiBound := c.hi
	exprLo, exprHi := s.linLo[ci], s.linHi[ci]
	if exprLo > hiBound || exprHi < c.lo {
		s.conflV, s.conflC = -1, int32(ci)
		return false
	}
	if exprLo >= c.lo && exprHi <= hiBound {
		return true // entailed: no filtering can tighten anything
	}
	for i, v := range c.vars {
		k := c.coefs[i]
		if k == 0 || s.lo[v] == s.hi[v] {
			continue
		}
		var termLo, termHi int64
		if k > 0 {
			termLo, termHi = k*s.lo[v], k*s.hi[v]
		} else {
			termLo, termHi = k*s.hi[v], k*s.lo[v]
		}
		// k·v ≤ c.hi − restLo  and  k·v ≥ c.lo − restHi. A division is only
		// worth paying when the term bound actually exceeds its budget:
		// termHi ≤ ubTerm (resp. termLo ≥ lbTerm) already proves v cannot
		// be tightened by this row.
		ubTerm := c.hi - (exprLo - termLo)
		lbTerm := c.lo - (exprHi - termHi)
		tightened := false
		if termHi > ubTerm {
			// k·v ≤ ubTerm bites: caps v from above for k > 0, below for k < 0.
			s.curUseLo = false // derived from c.hi against the rest's lower bounds
			ok := false
			if k > 0 {
				ok = s.setHi(int(v), floorDiv(ubTerm, k))
			} else {
				ok = s.setLo(int(v), ceilDiv(ubTerm, k))
			}
			if !ok {
				return false
			}
			tightened = true
		}
		if termLo < lbTerm {
			// k·v ≥ lbTerm bites: caps v from below for k > 0, above for k < 0.
			s.curUseLo = true // derived from c.lo against the rest's upper bounds
			ok := false
			if k > 0 {
				ok = s.setLo(int(v), ceilDiv(lbTerm, k))
			} else {
				ok = s.setHi(int(v), floorDiv(lbTerm, k))
			}
			if !ok {
				return false
			}
			tightened = true
		}
		if tightened {
			exprLo, exprHi = s.linLo[ci], s.linHi[ci]
			if exprLo > c.hi || exprHi < c.lo {
				s.conflV, s.conflC = -1, int32(ci)
				return false
			}
		}
	}
	return true
}

// propImply enforces (x ≥ c) ⇒ (y ≤ d) and its contrapositive.
func (s *searcher) propImply(ii int) bool {
	im := &s.m.implies[ii]
	s.props++
	if s.lo[im.x] >= im.c && s.hi[im.y] > im.d {
		if !s.setHi(int(im.y), im.d) {
			return false
		}
	}
	if s.lo[im.y] > im.d && s.hi[im.x] >= im.c {
		if !s.setHi(int(im.x), im.c-1) {
			return false
		}
	}
	return true
}

// record stores the current (fully fixed) assignment, tightening the
// objective row's bound so the rest of the search only accepts strict
// improvements.
func (s *searcher) record() {
	var obj int64
	for i, v := range s.m.objVars {
		obj += s.m.objCoefs[i] * s.lo[v]
	}
	if !s.hasBest || obj < s.bestObj {
		s.best = append(s.best[:0], s.lo...)
		s.bestObj = obj
		s.hasBest = true
		if s.objIdx >= 0 {
			s.lins[s.objIdx].hi = obj - 1
			s.enqueue(int32(s.objIdx))
		}
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
