// Conflict-driven clause learning over bound literals.
//
// This file is the search: an iterative branch-and-bound loop in which
// every propagation records its reason on the trail, every conflict is resolved
// into a first-UIP bound-literal nogood (Σ-style lazy clause generation:
// linear rows, implications, and nogoods each explain the tightenings they
// forced), the nogood is minimized by self-subsumption against the
// reasons, installed with the existing two-watch machinery, and the search
// backjumps non-chronologically to the nogood's assertion level where unit
// propagation asserts the UIP's negation. Luby restarts keep the clause
// database (reducing it by activity when it overflows), and conflict
// activity drives both variable branching and clause retention.
//
// Explanations are time-correct: a reason is expanded using the bounds
// that held just before the explained trail entry, reconstructed by
// walking the per-variable bound-change chains (trailEntry.prev) instead
// of shadow domain copies. That keeps resolution acyclic — every
// antecedent literal's establishing entry sits strictly below the entry it
// explains.
package cpsat

import "sort"

// search runs the iterative CDCL branch-and-bound loop. It reports whether
// the search completed (proved optimality or infeasibility); false with
// s.timedOut means a budget expired.
func (s *searcher) search() bool {
	for {
		if s.expired() {
			return false
		}
		if s.conflicts >= s.restartAt {
			s.restarts++
			s.runIdx++
			s.restartAt = s.conflicts + s.rstBase*luby(s.runIdx+1)
			s.backjumpTo(0)
			s.reduceDB()
			if s.hasBest && s.objIdx >= 0 {
				// Re-propagate the incumbent bound at the root: its row
				// tightened at depth and those propagations were undone.
				// Any root tightening it causes depends on the incumbent,
				// so every later derivation that treats root facts as free
				// is objective-tainted (conservatively: all of them).
				s.rootTainted = true
				s.enqueue(int32(s.objIdx))
				if !s.resolveConflicts() {
					return !s.timedOut
				}
			}
			continue
		}
		v := s.pickBranch()
		if v < 0 {
			// All fixed: feasible leaf (the objective row propagated to
			// fixpoint, so with an incumbent this strictly improves on it).
			s.record()
			if s.objIdx < 0 {
				return true // satisfaction problem: first solution ends it
			}
			// record tightened the objective row below the new incumbent,
			// contradicting the fixed assignment; resolving that conflict
			// is what moves the search on (and proves optimality when the
			// contradiction reaches the root).
			if !s.resolveConflicts() {
				return !s.timedOut
			}
			continue
		}
		s.branches++
		l := s.decisionLit(v)
		s.levelStart = append(s.levelStart, int32(len(s.trail)))
		s.level++
		s.curReason = reasonDecision
		if l.ge {
			s.setLo(int(l.v), l.bound) // within the current domain: cannot wipe out
		} else {
			s.setHi(int(l.v), l.bound)
		}
		if !s.resolveConflicts() {
			return !s.timedOut
		}
	}
}

// resolveConflicts drains propagation to fixpoint, analyzing and
// backjumping past every conflict on the way. It reports false when the
// root is refuted (the search is complete) or a budget expired (s.timedOut
// distinguishes the two).
func (s *searcher) resolveConflicts() bool {
	for {
		if s.drain() {
			return true
		}
		if s.timedOut {
			return false
		}
		s.conflicts++
		if s.level == 0 {
			return false
		}
		if !s.analyzeAndJump() {
			return false
		}
	}
}

// analyzeAndJump derives the first-UIP nogood for the pending conflict,
// backjumps to its assertion level, and installs it (the next drain
// asserts the UIP's negation by unit propagation). It reports false when
// the derivation refutes the root.
func (s *searcher) analyzeAndJump() bool {
	lits, bj, pure, ok := s.analyze()
	if !ok {
		return false
	}
	if int(s.level)-bj > 1 {
		s.backjumps++
	}
	s.backjumpTo(bj)
	return s.installLearned(lits, pure)
}

// pickBranch selects the branching variable: most-constrained first
// (smallest span), conflict activity as the tie-break above watcher
// degree. The small-domain dive is what makes branch budgets productive on
// wide windows, while activity steers equals toward contended columns.
func (s *searcher) pickBranch() int {
	branch := -1
	var bestSpan int64 = int64(^uint64(0) >> 1)
	var bestDeg int32 = -1
	bestAct := -1.0
	for v := range s.lo {
		span := s.hi[v] - s.lo[v]
		if span <= 0 {
			continue
		}
		switch {
		case span < bestSpan:
		case span > bestSpan:
			continue
		case s.activity[v] < bestAct:
			continue
		case s.activity[v] == bestAct && s.degree[v] <= bestDeg:
			continue
		}
		bestAct = s.activity[v]
		bestSpan = span
		bestDeg = s.degree[v]
		branch = v
	}
	return branch
}

// decisionLit picks the objective-preferred endpoint of v's domain as the
// decision literal (the greedy dive; the refutation of the endpoint is
// learned, not enumerated). Minimization prefers small values under a
// non-negative coefficient and large ones under a negative coefficient.
func (s *searcher) decisionLit(v int) lit {
	if s.objCoef[v] < 0 {
		return lit{v: int32(v), ge: true, bound: s.hi[v]}
	}
	return lit{v: int32(v), ge: false, bound: s.lo[v]}
}

// backjumpTo unwinds the trail to the end of the given decision level in
// one truncation.
func (s *searcher) backjumpTo(level int) {
	if int(s.level) <= level {
		return
	}
	s.undoTo(int(s.levelStart[level+1]))
	s.levelStart = s.levelStart[:level+1]
	s.level = int32(level)
}

// crossing returns the trail entry that first established the entailed
// bound literal (v ≥ b when ge, else v ≤ b) along with the bound value the
// entry set, or (-1, 0) when the model's root domain already entails the
// literal. The caller guarantees the literal holds under current bounds.
func (s *searcher) crossing(v int32, ge bool, b int64) (int32, int64) {
	if ge {
		cur := s.lo[v]
		e := s.loHead[v]
		for e >= 0 {
			ent := &s.trail[e]
			if ent.old >= b {
				cur = ent.old
				e = ent.prev
				continue
			}
			return e, cur
		}
	} else {
		cur := s.hi[v]
		e := s.hiHead[v]
		for e >= 0 {
			ent := &s.trail[e]
			if ent.old <= b {
				cur = ent.old
				e = ent.prev
				continue
			}
			return e, cur
		}
	}
	return -1, 0
}

// loAt returns v's lower bound as it was just before trail position pos,
// reconstructed from the ≥-side chain. hiAt is the mirror.
func (s *searcher) loAt(v int32, pos int32) int64 {
	cur := s.lo[v]
	for e := s.loHead[v]; e >= pos; e = s.trail[e].prev {
		cur = s.trail[e].old
	}
	return cur
}

func (s *searcher) hiAt(v int32, pos int32) int64 {
	cur := s.hi[v]
	for e := s.hiHead[v]; e >= pos; e = s.trail[e].prev {
		cur = s.trail[e].old
	}
	return cur
}

// anteRef is one antecedent of a reason expansion: either a resolved trail
// position (pos ≥ 0, with the bound value its entry established), a root
// fact (pos == antePosRoot), or a literal whose establishing entry must
// still be located by a crossing walk (pos == antePosFind).
type anteRef struct {
	pos   int32
	v     int32
	ge    bool
	bound int64
}

const (
	antePosRoot int32 = -1
	antePosFind int32 = -2
)

// chainBelow returns the newest same-side chain entry of v strictly below
// pos together with the bound it established — simultaneously the bound
// that held just before pos and that literal's establishing (crossing)
// entry — or (antePosRoot, root bound) when no such entry exists.
func (s *searcher) chainBelow(v int32, ge bool, pos int32) (int32, int64) {
	if ge {
		cur := s.lo[v]
		for e := s.loHead[v]; e >= 0; e = s.trail[e].prev {
			if e < pos {
				return e, cur
			}
			cur = s.trail[e].old
		}
		return antePosRoot, cur
	}
	cur := s.hi[v]
	for e := s.hiHead[v]; e >= 0; e = s.trail[e].prev {
		if e < pos {
			return e, cur
		}
		cur = s.trail[e].old
	}
	return antePosRoot, cur
}

// antecedents expands the reason of the trail entry at pos into the bound
// literals that forced it, each evaluated with the bounds that held just
// before pos (so every antecedent's establishing entry lies strictly below
// pos). Row expansions resolve each antecedent's establishing entry during
// the same chain walk that reconstructs its bound; implication and nogood
// literals carry fixed bounds and are left for a crossing walk. The result
// lives in s.anteBuf, valid until the next call. The entry must have a
// constraint reason.
func (s *searcher) antecedents(pos int32) []anteRef {
	buf := s.anteBuf[:0]
	e := &s.trail[pos]
	r := e.reason
	nLin := int32(len(s.lins))
	nImp := int32(len(s.m.implies))
	switch {
	case r < 0:
		panic("cpsat: expanding a reason-less trail entry")
	case r < nLin:
		// The entry's useLo stamp records which row bound the propagation
		// used: the row's lo pairs with the rest's upper bounds, the row's
		// hi with the rest's lower bounds. Vars untouched on the needed
		// side (no chain, or a level-0 chain — the trail is level-sorted)
		// are root facts and contribute nothing.
		row := &s.lins[r]
		useLo := e.useLo
		for j, u := range row.vars {
			k := row.coefs[j]
			if k == 0 || int32(u) == e.v {
				continue
			}
			ge := useLo != (k > 0)
			var h int32
			if ge {
				h = s.loHead[u]
			} else {
				h = s.hiHead[u]
			}
			if h < 0 || s.trail[h].level == 0 {
				continue
			}
			p, val := s.chainBelow(int32(u), ge, pos)
			if p < 0 || s.trail[p].level == 0 {
				continue
			}
			buf = append(buf, anteRef{pos: p, v: int32(u), ge: ge, bound: val})
		}
	case r < nLin+nImp:
		im := &s.m.implies[r-nLin]
		if e.v == int32(im.y) && !e.ge {
			buf = append(buf, anteRef{pos: antePosFind, v: int32(im.x), ge: true, bound: im.c}) // forward: (x ≥ c) forced y ≤ d
		} else {
			buf = append(buf, anteRef{pos: antePosFind, v: int32(im.y), ge: true, bound: im.d + 1}) // contrapositive: (y > d) forced x < c
		}
	default:
		k := int(r - nLin - nImp)
		s.bumpClause(k)
		// The entry asserts the negation of exactly one literal of the
		// nogood; the remaining literals (all entailed at pos) are the
		// antecedents.
		var negBound int64
		if e.ge {
			negBound = s.loAt(e.v, pos+1) - 1 // entry set lo to b+1 ⇒ negated lit was (v ≤ b)
		} else {
			negBound = s.hiAt(e.v, pos+1) + 1 // entry set hi to b-1 ⇒ negated lit was (v ≥ b)
		}
		skipped := false
		for _, l := range s.nogoods[k] {
			if !skipped && l.v == e.v && l.ge != e.ge && l.bound == negBound {
				skipped = true
				continue
			}
			buf = append(buf, anteRef{pos: antePosFind, v: l.v, ge: l.ge, bound: l.bound})
		}
	}
	s.anteBuf = buf
	return buf
}

// bumpVar bumps a variable's conflict activity, rescaling on overflow.
func (s *searcher) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// bumpClause bumps a learned clause's activity (database-reduction merit).
func (s *searcher) bumpClause(k int) {
	if k >= len(s.ngActivity) {
		return
	}
	s.ngActivity[k] += s.ngInc
	if s.ngActivity[k] > 1e100 {
		for i := range s.ngActivity {
			s.ngActivity[i] *= 1e-100
		}
		s.ngInc *= 1e-100
	}
}

// analyze resolves the pending conflict to the first unique implication
// point. It returns the learned nogood (lower-level literals in trail
// order, the UIP literal last), the assertion level to backjump to,
// whether the clause is pure (its derivation never touched the objective
// row, an objective-tainted nogood, or a tainted root — hence implied by
// the hard constraints alone), and ok=false when the conflict resolves to
// the empty nogood — the root is refuted.
func (s *searcher) analyze() (learned []lit, bj int, pure bool, ok bool) {
	pure = !s.rootTainted
	for len(s.seen) < len(s.trail) {
		s.seen = append(s.seen, false)
		s.litAt = append(s.litAt, 0)
	}
	s.markBuf = s.markBuf[:0]

	// Seed the conflict set from the failure site. A domain wipeout or a
	// hard-row violation is an objective-free fact; the objective row and
	// tainted nogoods poison the derivation.
	switch {
	case s.conflV >= 0:
		v := s.conflV
		s.markAnte(v, true, s.lo[v])
		s.markAnte(v, false, s.hi[v])
	default:
		c := int(s.conflC)
		nLin := len(s.lins)
		nImp := len(s.m.implies)
		switch {
		case c < nLin:
			if c == s.objIdx {
				pure = false
			}
			row := &s.lins[c]
			overLo := s.linLo[c] > row.hi // else the upper sum fell below row.lo
			for j, u := range row.vars {
				k := row.coefs[j]
				if k == 0 {
					continue
				}
				if overLo == (k > 0) {
					s.markAnte(int32(u), true, s.lo[u])
				} else {
					s.markAnte(int32(u), false, s.hi[u])
				}
			}
		case c < nLin+nImp:
			panic("cpsat: implication as a direct conflict seed")
		default:
			k := c - nLin - nImp
			s.bumpClause(k)
			if !s.ngPure[k] {
				pure = false
			}
			for _, l := range s.nogoods[k] {
				s.markAnte(l.v, l.ge, l.bound)
			}
		}
	}
	s.conflV, s.conflC = -1, -1

	// The conflict may live entirely below the current level (e.g. the
	// objective row only woken at a leaf): drop to its true level first.
	maxLvl := int32(0)
	for _, p := range s.markBuf {
		if l := s.trail[p].level; l > maxLvl {
			maxLvl = l
		}
	}
	if maxLvl == 0 {
		s.clearMarks()
		return nil, 0, pure, false // all root facts: root refuted
	}
	if maxLvl < s.level {
		s.backjumpTo(int(maxLvl))
	}

	s.outPos = s.outPos[:0]
	nCur := s.classifyMarks(0, 0)
	s.varInc *= 1.052
	s.ngInc *= 1.001

	// Resolve top-down until one current-level literal remains (the UIP).
	idx := int32(len(s.trail) - 1)
	for {
		for !s.seen[idx] {
			idx--
		}
		if nCur == 1 {
			break
		}
		s.seen[idx] = false
		nCur--
		if r := s.trail[idx].reason; int(r) == s.objIdx {
			pure = false
		} else if base := int32(len(s.lins) + len(s.m.implies)); r >= base && !s.ngPure[r-base] {
			pure = false
		}
		before := len(s.markBuf)
		for _, a := range s.antecedents(idx) {
			s.markRef(a)
		}
		nCur = s.classifyMarks(before, nCur)
		idx--
	}
	uipPos := idx

	// Self-subsumption: a lower-level literal whose reason's antecedents
	// are all covered by the nogood (or the root) is redundant. Coverage
	// follows trail order, so removals cannot be circular. A pure clause
	// refuses removals through tainted reasons — they would smuggle an
	// objective dependency into a clause marked pure.
	kept := s.outPos[:0]
	for _, p := range s.outPos {
		if s.litRedundant(p, pure) {
			s.minimized++
		} else {
			kept = append(kept, p)
		}
	}
	s.outPos = kept

	// Insertion sort by trail position (ascending ≈ level ascending): the
	// slices are short and this avoids sort.Slice's indirection.
	for i := 1; i < len(s.outPos); i++ {
		p := s.outPos[i]
		j := i - 1
		for j >= 0 && s.outPos[j] > p {
			s.outPos[j+1] = s.outPos[j]
			j--
		}
		s.outPos[j+1] = p
	}
	learned = make([]lit, 0, len(s.outPos)+1)
	bj = 0
	for _, p := range s.outPos {
		e := &s.trail[p]
		learned = append(learned, lit{v: e.v, ge: e.ge, bound: s.litAt[p]})
		if l := int(e.level); l > bj {
			bj = l
		}
	}
	e := &s.trail[uipPos]
	learned = append(learned, lit{v: e.v, ge: e.ge, bound: s.litAt[uipPos]})
	s.clearMarks()
	return learned, bj, pure, true
}

// markAnte adds the entailed literal (v ≥ b / v ≤ b) to the conflict set:
// the trail entry that established it is marked, unless the root domain
// (or root propagation) already entails the literal.
func (s *searcher) markAnte(v int32, ge bool, b int64) {
	// Vars untouched on this side (or only touched at level 0 — the trail
	// is level-sorted, so a level-0 chain head means a level-0 chain) are
	// root facts: skip the crossing walk outright.
	var h int32
	if ge {
		h = s.loHead[v]
	} else {
		h = s.hiHead[v]
	}
	if h < 0 || s.trail[h].level == 0 {
		return
	}
	pos, val := s.crossing(v, ge, b)
	if pos < 0 || s.trail[pos].level == 0 || s.seen[pos] {
		return
	}
	s.seen[pos] = true
	s.litAt[pos] = val
	s.markBuf = append(s.markBuf, pos)
}

// markRef is markAnte for an antecedent whose establishing entry the reason
// expansion may already have resolved.
func (s *searcher) markRef(a anteRef) {
	pos, val := a.pos, a.bound
	if pos == antePosFind {
		pos, val = s.crossing(a.v, a.ge, a.bound)
	}
	if pos < 0 || s.trail[pos].level == 0 || s.seen[pos] {
		return
	}
	s.seen[pos] = true
	s.litAt[pos] = val
	s.markBuf = append(s.markBuf, pos)
}

// classifyMarks folds marks[from:] into the conflict-set bookkeeping:
// current-level entries count toward nCur, lower-level ones join outPos,
// and every marked variable's activity is bumped.
func (s *searcher) classifyMarks(from, nCur int) int {
	for _, p := range s.markBuf[from:] {
		e := &s.trail[p]
		s.bumpVar(int(e.v))
		if e.level == s.level {
			nCur++
		} else {
			s.outPos = append(s.outPos, p)
		}
	}
	return nCur
}

// clearMarks unsets every seen flag the current analysis planted.
func (s *searcher) clearMarks() {
	for _, p := range s.markBuf {
		s.seen[p] = false
	}
	s.markBuf = s.markBuf[:0]
}

// litRedundant reports whether the marked lower-level literal at p is
// implied by the rest of the conflict set: every antecedent of its reason
// is either a root fact or establishes a literal the set already contains.
// When the clause under construction is pure, tainted reasons disqualify.
func (s *searcher) litRedundant(p int32, pure bool) bool {
	e := &s.trail[p]
	if e.reason < 0 {
		return false
	}
	if pure {
		if int(e.reason) == s.objIdx {
			return false
		}
		if base := int32(len(s.lins) + len(s.m.implies)); e.reason >= base && !s.ngPure[e.reason-base] {
			return false
		}
	}
	for _, a := range s.antecedents(p) {
		q := a.pos
		if q == antePosFind {
			q, _ = s.crossing(a.v, a.ge, a.bound)
		}
		if q < 0 || s.trail[q].level == 0 || s.seen[q] {
			continue
		}
		return false
	}
	return true
}

// installLearned records the learned nogood: empty refutes the root, a
// unit asserts permanently, anything longer is installed with two watches
// on its deepest literals and enqueued so the next drain asserts the UIP's
// negation by unit propagation.
func (s *searcher) installLearned(lits []lit, pure bool) bool {
	s.learned++
	if !pure && s.level == 0 {
		// An objective-dependent assertion is about to land at the root:
		// root facts are no longer implied by the hard constraints alone.
		s.rootTainted = true
	}
	switch len(lits) {
	case 0:
		return false
	case 1:
		s.curReason = reasonAssert
		return s.negateLit(lits[0])
	}
	id := int32(len(s.nogoods))
	s.nogoods = append(s.nogoods, lits)
	s.ngActivity = append(s.ngActivity, s.ngInc)
	s.ngPure = append(s.ngPure, pure)
	s.inQueue = append(s.inQueue, false)
	base := int32(len(s.lins) + len(s.m.implies))
	if len(lits) > reasonOnlyLen {
		// Too wide to propagate usefully: keep it out of the watch lists
		// entirely and use it only as the assertion's reason (the {-1,-1}
		// watch sentinel marks it reason-only; impure reason-only clauses
		// are dropped at the next database reduction, pure ones survive).
		// The UIP's negation is asserted here directly since no unit
		// propagation will fire for it.
		s.ngW = append(s.ngW, [2]int32{-1, -1})
		s.curReason = base + id
		return s.negateLit(lits[len(lits)-1])
	}
	if s.ngWatchLo == nil {
		s.ngWatchLo = make([][]ngWatch, len(s.lo))
		s.ngWatchHi = make([][]ngWatch, len(s.lo))
	}
	w0, w1 := int32(len(lits)-1), int32(len(lits)-2)
	s.ngW = append(s.ngW, [2]int32{w0, w1})
	s.regNgWatch(id, lits[w0])
	s.regNgWatch(id, lits[w1])
	s.enqueue(base + id)
	return true
}

// reduceDB halves the watched learned-clause store when it overflows the
// current dbMax budget (which then grows by half, up to maxNogoods): short
// (≤3-literal) clauses survive unconditionally, the rest by activity.
// Impure reason-only clauses are dropped at every reduction; pure ones are
// kept. It must run at level 0 with an empty queue — after a restart's
// backjump — since it renumbers nogood ids and rebuilds their watch lists.
func (s *searcher) reduceDB() {
	staleRO := 0 // impure reason-only clauses: dead weight, dropped outright
	watched := 0
	for id := range s.nogoods {
		switch {
		case s.ngW[id][0] >= 0:
			watched++
		case !s.ngPure[id]:
			staleRO++
		}
	}
	if watched <= s.dbMax && staleRO == 0 {
		return
	}
	var drop map[int32]bool
	if watched > s.dbMax {
		s.dbMax += s.dbMax / 2
		if s.dbMax > maxNogoods {
			s.dbMax = maxNogoods
		}
		type cand struct {
			id  int32
			act float64
		}
		var long []cand
		for id := range s.nogoods {
			if s.ngW[id][0] >= 0 && len(s.nogoods[id]) > 3 {
				long = append(long, cand{id: int32(id), act: s.ngActivity[id]})
			}
		}
		sort.Slice(long, func(i, j int) bool {
			if long[i].act != long[j].act {
				return long[i].act > long[j].act
			}
			return long[i].id < long[j].id
		})
		drop = make(map[int32]bool, len(long)/2)
		for _, c := range long[len(long)/2:] {
			drop[c.id] = true
		}
	}

	nogoods := s.nogoods[:0]
	act := s.ngActivity[:0]
	pure := s.ngPure[:0]
	ngW := s.ngW[:0]
	for id := 0; id < len(s.nogoods); id++ {
		reasonOnly := s.ngW[id][0] < 0
		if drop[int32(id)] || (reasonOnly && !s.ngPure[id]) {
			continue
		}
		lits := s.nogoods[id]
		nogoods = append(nogoods, lits)
		act = append(act, s.ngActivity[id])
		pure = append(pure, s.ngPure[id])
		if reasonOnly {
			ngW = append(ngW, [2]int32{-1, -1})
		} else {
			ngW = append(ngW, [2]int32{int32(len(lits) - 1), int32(len(lits) - 2)})
		}
	}
	s.nogoods = nogoods
	s.ngActivity = act
	s.ngPure = pure
	s.ngW = ngW
	s.inQueue = s.inQueue[:len(s.lins)+len(s.m.implies)]
	for range s.nogoods {
		s.inQueue = append(s.inQueue, false)
	}
	s.ngWatchLo = make([][]ngWatch, len(s.lo))
	s.ngWatchHi = make([][]ngWatch, len(s.lo))
	for id := range s.nogoods {
		if s.ngW[id][0] < 0 {
			continue
		}
		lits := s.nogoods[id]
		s.regNgWatch(int32(id), lits[len(lits)-1])
		s.regNgWatch(int32(id), lits[len(lits)-2])
	}
}
