package opg

import (
	"sort"
	"time"

	"repro/internal/cpsat"
	"repro/internal/graph"
)

// This file is the window solver: one rolling window's C4 fallback ladder,
// refactored from direct solver-state mutation into a pure function of a
// confined state view. Every read of capRemaining/inflight goes through a
// winView accessor that (a) clamps the value to the coarsest form the
// model actually depends on — min(chunks, relax·cap) variable bounds,
// capacity-bearing booleans, C2/C3 limits clamped at the row's own ceiling
// — and (b) appends the read to a replayable trace. Writes accumulate in
// window-local delta arrays. The speculative pipeline (pipeline.go) relies
// on both properties: a window solved against predicted state commits iff
// replaying its trace against the true state reproduces every value, which
// guarantees the committed result is byte-identical to a sequential solve;
// the clamps make that validation succeed whenever upstream consumption
// did not actually reach the quantities this window's model depends on.

// window is one rolling-window batch, enumerated up front. Its state reads
// and writes are confined to layers [off, end).
type window struct {
	batch []weightItem
	off   int // earliest readable layer: max(0, first node - Window)
	end   int // last consuming node (exclusive bound on reads and writes)
}

// enumerateWindows batches weights by consumption layer exactly like the
// sequential §3.1 loop always has.
func enumerateWindows(weights []weightItem, span int) []window {
	var out []window
	for start := 0; start < len(weights); {
		end := start + 1
		windowEnd := int(weights[start].node) + span
		for end < len(weights) && int(weights[end].node) < windowEnd {
			end++
		}
		batch := weights[start:end]
		off := int(batch[0].node) - span
		if off < 0 {
			off = 0
		}
		out = append(out, window{batch: batch, off: off, end: int(batch[len(batch)-1].node)})
		start = end
	}
	return out
}

// readKind tags one canonical read in a window's trace.
type readKind uint8

const (
	readCapPos  readKind = iota // (cap[l]-a) > 0 — candidate bearing status
	readCapMin                  // min(cap[l]-a, b) — prefilter capacity sums
	readHisMin                  // min(b, ⌊f·(cap[l]-a)⌋) — x bounds and C3 limits
	readC2Lim                   // min(b, min_{l≤i<to} mpeakSlack(i)) — C2 row limits
	readCapEq                   // cap[l] == val — greedy fallback, exact
	readInEq                    // inflight[l] == val — greedy fallback, exact
	readMPeakGT                 // (b > MPeak) — structural-preload prefilter
	readMPeakEq                 // MPeak == val — greedy ran; exact budget dependence
)

// readRec is one recorded canonical read; replayRead re-evaluates it
// against another state.
type readRec struct {
	kind  readKind
	layer int32
	to    int32 // readC2Lim: exclusive segment end
	a, b  int64
	f     float64
	val   int64
}

func evalGT(a, b int64) int64 {
	if a > b {
		return 1
	}
	return 0
}

func evalCapPos(cap, a int64) int64 {
	if cap-a > 0 {
		return 1
	}
	return 0
}

func evalCapMin(cap, a, b int64) int64 {
	if v := cap - a; v < b {
		return v
	}
	return b
}

func evalHisMin(cap, a, b int64, f float64) int64 {
	if v := int64(f * float64(cap-a)); v < b {
		return v
	}
	return b
}

// evalC2Lim mirrors the old mpeakSlackChunks segment minimum, clamped at
// the row's own ceiling (the sum of its variables' upper bounds — a larger
// limit can never propagate, so the clamp is semantically free and keeps
// the recorded value insensitive to irrelevant in-flight deltas).
func evalC2Lim(infl []int64, from, to int, rowCap, mpeak, chunk int64) int64 {
	v := rowCap
	for l := from; l < to; l++ {
		s := mpeak - infl[l]
		if s < 0 {
			s = 0
		}
		if s /= chunk; s < v {
			v = s
		}
	}
	return v
}

// winView confines one window solve: clamped, trace-recorded reads over
// base state plus window-local write deltas.
type winView struct {
	cfg     *Config
	baseCap []int
	baseIn  []int64
	off     int
	capUsed []int   // window-local capacity consumption, by layer-off
	inAdd   []int64 // window-local in-flight additions, by layer-off
	traced  bool
	trace   []readRec
}

func newWinView(cfg *Config, win window, baseCap []int, baseIn []int64, traced bool) *winView {
	n := win.end - win.off
	if n < 1 {
		n = 1
	}
	return &winView{
		cfg: cfg, baseCap: baseCap, baseIn: baseIn, off: win.off,
		capUsed: make([]int, n), inAdd: make([]int64, n), traced: traced,
	}
}

func (v *winView) rec(r readRec) {
	if v.traced {
		v.trace = append(v.trace, r)
	}
}

// capPos reports whether layer l still bears capacity.
func (v *winView) capPos(l int) bool {
	a := int64(v.capUsed[l-v.off])
	val := evalCapPos(int64(v.baseCap[l]), a)
	v.rec(readRec{kind: readCapPos, layer: int32(l), a: a, val: val})
	return val == 1
}

// capMin returns the remaining capacity of l clamped at need.
func (v *winView) capMin(l int, need int64) int64 {
	a := int64(v.capUsed[l-v.off])
	val := evalCapMin(int64(v.baseCap[l]), a, need)
	v.rec(readRec{kind: readCapMin, layer: int32(l), a: a, b: need, val: val})
	return val
}

// hisMin returns min(chunks, ⌊relax·cap⌋): the x-variable bound of one
// (weight, layer) column, also reused for the C3 limit clamp.
func (v *winView) hisMin(l int, chunks int64, relax float64) int64 {
	a := int64(v.capUsed[l-v.off])
	val := evalHisMin(int64(v.baseCap[l]), a, chunks, relax)
	v.rec(readRec{kind: readHisMin, layer: int32(l), a: a, b: chunks, f: relax, val: val})
	return val
}

// c2Lim returns the C2 limit of the segment [from, to): the in-flight
// slack minimum clamped at the row's ceiling. Only valid before any local
// in-flight writes (CP model builds precede all mutation).
func (v *winView) c2Lim(from, to int, rowCap int64) int64 {
	val := evalC2Lim(v.baseIn, from, to, rowCap, int64(v.cfg.MPeak), int64(v.cfg.ChunkSize))
	v.rec(readRec{kind: readC2Lim, layer: int32(from), to: int32(to), b: rowCap, val: val})
	return val
}

// capExact returns the effective remaining capacity of l, recording the
// base value exactly (greedy's sequential consumption cannot be clamped).
func (v *winView) capExact(l int) int {
	base := v.baseCap[l]
	v.rec(readRec{kind: readCapEq, layer: int32(l), val: int64(base)})
	return base - v.capUsed[l-v.off]
}

// inExact returns the effective in-flight bytes at l, recording the base
// value exactly.
func (v *winView) inExact(l int) int64 {
	base := v.baseIn[l]
	v.rec(readRec{kind: readInEq, layer: int32(l), val: base})
	return base + v.inAdd[l-v.off]
}

// mpeakGT reports whether b bytes exceed the in-flight budget, recording
// the comparison. The structural-preload prefilter depends on cfg.MPeak,
// which capacity and in-flight reads alone cannot see — without this
// record, a repair replay (repair.go) could wrongly keep a window across a
// budget step that flips the preload decision.
func (v *winView) mpeakGT(b int64) bool {
	val := evalGT(b, int64(v.cfg.MPeak))
	v.rec(readRec{kind: readMPeakGT, b: b, val: val})
	return val == 1
}

// mpeakStamp records the exact in-flight budget. Greedy's slack arithmetic
// depends continuously on cfg.MPeak (slack = MPeak − inflight at every
// step), so a greedy-solved window is replay-valid under another budget
// only if the budget is unchanged.
func (v *winView) mpeakStamp() {
	v.rec(readRec{kind: readMPeakEq, val: int64(v.cfg.MPeak)})
}

// use consumes n chunks of capacity at l (negative to roll back).
func (v *winView) use(l, n int) { v.capUsed[l-v.off] += n }

// addInflight keeps n chunks in flight on [l, node).
func (v *winView) addInflight(l, node graph.NodeID, n int) {
	d := int64(n) * int64(v.cfg.ChunkSize)
	for ll := int(l); ll < int(node); ll++ {
		v.inAdd[ll-v.off] += d
	}
}

// windowStats is one window's share of SolveStats.
type windowStats struct {
	buildTime, solveTime                         time.Duration
	branches, wakes, trailOps, nogoods, restarts int64
	conflicts, backjumps, minimizedLits          int64
	fallbacks                                    FallbackStats
	degraded                                     bool // plan not proven optimal
}

// windowResult is a window solve's complete effect: plan entries, state
// deltas, stats, and the canonical read trace.
type windowResult struct {
	weights []WeightPlan
	off     int
	capUsed []int
	inAdd   []int64
	stats   windowStats
	trace   []readRec

	// wallClocked marks a solve some CP rung of which hit its wall-clock
	// budget: the result is timing-dependent, so the pipeline never commits
	// it speculatively (the re-solve on true state is what sequential
	// semantics would have produced).
	wallClocked bool
}

// replayOK re-evaluates a traced window solve's canonical reads against
// the true state: equality means the solve consumed exactly the inputs the
// true state provides, so its result is byte-identical to what a
// sequential solve would produce.
func replayOK(res *windowResult, cfg *Config, capR []int, infl []int64) bool {
	for i := range res.trace {
		r := &res.trace[i]
		l := int(r.layer)
		switch r.kind {
		case readCapPos:
			if evalCapPos(int64(capR[l]), r.a) != r.val {
				return false
			}
		case readCapMin:
			if evalCapMin(int64(capR[l]), r.a, r.b) != r.val {
				return false
			}
		case readHisMin:
			if evalHisMin(int64(capR[l]), r.a, r.b, r.f) != r.val {
				return false
			}
		case readC2Lim:
			if evalC2Lim(infl, l, int(r.to), r.b, int64(cfg.MPeak), int64(cfg.ChunkSize)) != r.val {
				return false
			}
		case readCapEq:
			if int64(capR[l]) != r.val {
				return false
			}
		case readInEq:
			if infl[l] != r.val {
				return false
			}
		case readMPeakGT:
			if evalGT(r.b, int64(cfg.MPeak)) != r.val {
				return false
			}
		case readMPeakEq:
			if int64(cfg.MPeak) != r.val {
				return false
			}
		}
	}
	return true
}

// winSolver runs the fallback ladder for one window against a view.
type winSolver struct {
	cfg *Config
	v   *winView
	win window
	res *windowResult

	// bearing memoizes per-layer capacity-bearing status over [off, end):
	// 0 unprobed, 1 bearing, 2 empty. The ladder's CP rungs never mutate
	// capacity, so each layer is probed (and traced) at most once per
	// window instead of the per-weight re-walk of capRemaining that
	// candidates() used to do. Probing stays lazy so the recorded read set
	// is exactly what the scans actually consult — an eager full-range
	// scan would make speculative validation reject on layers no candidate
	// scan ever reaches.
	bearing []uint8
}

// bearingAt probes (once) whether layer l bears capacity.
func (ws *winSolver) bearingAt(l int) bool {
	switch ws.bearing[l-ws.win.off] {
	case 1:
		return true
	case 2:
		return false
	}
	if ws.v.capPos(l) {
		ws.bearing[l-ws.win.off] = 1
		return true
	}
	ws.bearing[l-ws.win.off] = 2
	return false
}

// newWinSolver confines one window solve to a fresh view of the base
// state.
func newWinSolver(cfg *Config, win window, baseCap []int, baseIn []int64, traced bool) *winSolver {
	return &winSolver{
		cfg: cfg, v: newWinView(cfg, win, baseCap, baseIn, traced), win: win,
		res:     &windowResult{off: win.off},
		bearing: make([]uint8, win.end-win.off),
	}
}

// finish moves the view's write deltas and read trace into the result.
func (ws *winSolver) finish() *windowResult {
	ws.res.capUsed = ws.v.capUsed
	ws.res.inAdd = ws.v.inAdd
	ws.res.trace = ws.v.trace
	return ws.res
}

// solveWindow runs one window's ladder and returns its complete effect.
// traced records the canonical reads a speculative result is validated by
// and a repair replays.
func solveWindow(cfg *Config, win window, baseCap []int, baseIn []int64, traced bool) *windowResult {
	ws := newWinSolver(cfg, win, baseCap, baseIn, traced)
	ws.solveBatch(win.batch)
	return ws.finish()
}

// candidates returns the transform-layer candidates for a weight: the
// nearest MaxCandidates preceding capacity-bearing layers within the
// window, newest first, via the memoized bearing bitmap.
func (ws *winSolver) candidates(w weightItem) []graph.NodeID {
	var out []graph.NodeID
	lo := int(w.node) - ws.cfg.Window
	if lo < 0 {
		lo = 0
	}
	for l := int(w.node) - 1; l >= lo && len(out) < MaxCandidates; l-- {
		if ws.bearingAt(l) {
			out = append(out, graph.NodeID(l))
		}
	}
	return out
}

// solveBatch schedules one window of weights with the C4 fallback ladder.
func (ws *winSolver) solveBatch(batch []weightItem) {
	// Structurally unstreamable weights go straight into W, as §3.1
	// prescribes for the first layers: no candidate layers, candidate
	// capacity that cannot cover the chunk count even optimistically, or a
	// tensor bigger than the whole in-flight budget. Filtering them here
	// keeps one impossible weight from poisoning the window CP.
	var items []weightItem
	var cands [][]graph.NodeID
	for _, w := range batch {
		wCands := ws.candidates(w)
		var capSum int64
		for _, l := range wCands {
			capSum += ws.v.capMin(int(l), int64(w.chunks))
		}
		switch {
		case len(wCands) == 0, capSum < int64(w.chunks):
			ws.preload(w)
		case ws.v.mpeakGT(int64(w.chunks) * int64(ws.cfg.ChunkSize)):
			ws.preload(w)
		default:
			items = append(items, w)
			cands = append(cands, wCands)
		}
	}
	if len(items) == 0 {
		return
	}

	// Ladder rung 1: CP at nominal capacity, no preloading — streaming is
	// the goal; W is the fallback, as the objective's λ weighting encodes.
	ok, proven := ws.tryCP(items, cands, 1.0)
	if ok {
		return
	}
	if !proven {
		// Hybrid execution mode (§3.2): the budget expired without proving
		// infeasibility, so relaxation and preloading would not help —
		// switch straight to the heuristic on the full batch.
		ws.res.stats.fallbacks.Greedy++
		ws.res.stats.degraded = true
		ws.greedy(items)
		return
	}
	// Rung 2: soft thresholding (C4) against proven capacity shortfalls.
	ws.res.stats.fallbacks.SoftThreshold++
	if ok, _ = ws.tryCP(items, cands, ws.cfg.SoftThreshold); ok {
		return
	}
	// Rung 3: incremental preloading — peel the largest weights into W and
	// retry the CP on the remainder.
	order := append([]weightItem(nil), items...)
	sort.Slice(order, func(i, j int) bool { return order[i].bytes > order[j].bytes })
	rest, restCands := items, cands
	for k := 0; k < 3 && len(rest) > 1; k++ {
		biggest := order[k].node
		ws.preload(order[k])
		kept := rest[:0:0]
		keptCands := restCands[:0:0]
		for i, w := range rest {
			if w.node != biggest {
				kept = append(kept, w)
				keptCands = append(keptCands, restCands[i])
			}
		}
		rest, restCands = kept, keptCands
		ws.res.stats.fallbacks.IncrementalPreload++
		if ok, _ = ws.tryCP(rest, restCands, ws.cfg.SoftThreshold); ok {
			return
		}
	}
	// Rung 4: greedy heuristic backup. Always succeeds.
	ws.res.stats.fallbacks.Greedy++
	ws.res.stats.degraded = true
	ws.greedy(rest)
}

// tryCP builds and solves the window CP model (streaming only — preloading
// is handled by the outer ladder). On success it applies the solution to
// the view and reports ok; otherwise `proven` distinguishes proven
// infeasibility from a budget-expired Unknown. Candidate sets are passed
// in from the prefilter instead of re-scanned.
func (ws *winSolver) tryCP(batch []weightItem, cands [][]graph.NodeID, relax float64) (ok, proven bool) {
	if len(batch) == 0 {
		return true, true
	}
	cfg := ws.cfg
	tBuild := time.Now()
	m := cpsat.NewModel()

	type weightVars struct {
		w      weightItem
		layers []graph.NodeID
		xs     []cpsat.Var
		his    []int64 // xs[i]'s upper bound, for row-ceiling clamps
		z      cpsat.Var
	}
	var wvs []weightVars
	perLayerX := map[graph.NodeID][]cpsat.Var{}
	perLayerHi := map[graph.NodeID]int64{}

	var objVars []cpsat.Var
	var objCoefs []int64
	// Objective: (1−λ)·Σ(i_w − z_w) plus a tiny proximity tie-break on x
	// assignments (nearer layers cost less, encoding "load closer to
	// execution"). The λ·|W| term lives in the fallback ladder: preloads
	// only happen when streaming is infeasible.
	distCoef := int64((1-cfg.Lambda)*100) + 1

	for bi, w := range batch {
		layers := cands[bi]
		wv := weightVars{w: w, layers: layers}
		lo := int64(int(w.node) - cfg.Window)
		if lo < 0 {
			lo = 0
		}

		// Root reduction, part 1: fix trivially-forced x-vars. When the
		// candidates' (relaxed) capacities sum to exactly T(w) — which
		// includes every single-candidate weight — any solution must fill
		// every column to its cap, so the variables enter the model fixed,
		// their C0 row is redundant, and z collapses to the earliest used
		// layer. The CP then never branches on them.
		his := make([]int64, len(layers))
		wv.his = his
		var hiSum int64
		for i, l := range layers {
			his[i] = ws.v.hisMin(int(l), int64(w.chunks), relax)
			hiSum += his[i]
		}
		if hiSum < int64(w.chunks) {
			// Unreachable given solveBatch's prefilter, but if capacities
			// cannot cover the weight even at their caps the window is
			// infeasible as built.
			ws.res.stats.buildTime += time.Since(tBuild)
			return false, true
		}
		if hiSum == int64(w.chunks) {
			for i, l := range layers {
				x := m.NewIntVar(his[i], his[i], "x")
				wv.xs = append(wv.xs, x)
				perLayerX[l] = append(perLayerX[l], x)
				perLayerHi[l] += his[i]
			}
			earliest := int64(layers[len(layers)-1]) // newest-first ordering
			wv.z = m.NewIntVar(earliest, earliest, "z")
			wvs = append(wvs, wv)
			continue
		}

		wv.z = m.NewIntVar(lo, int64(w.node)-1, "z")
		var c0Vars []cpsat.Var
		var c0Coefs []int64
		for rank, l := range layers {
			x := m.NewIntVar(0, his[rank], "x")
			wv.xs = append(wv.xs, x)
			perLayerX[l] = append(perLayerX[l], x)
			perLayerHi[l] += his[rank]
			c0Vars = append(c0Vars, x)
			c0Coefs = append(c0Coefs, 1)
			// C1: (x ≥ 1) ⇒ (z ≤ ℓ).
			m.AddImplication(x, 1, wv.z, int64(l))
			// Proximity tie-break (rank 0 = nearest to consumption; its
			// zero coefficient would be dead weight in the objective row).
			if rank > 0 {
				objVars = append(objVars, x)
				objCoefs = append(objCoefs, int64(rank))
			}
		}
		// C0: Σ_ℓ x_{w,ℓ} = T(w).
		m.AddLinearEQ(c0Vars, c0Coefs, int64(w.chunks))

		// Distance term: minimizing (i_w − z) ⇔ maximizing z.
		objVars = append(objVars, wv.z)
		objCoefs = append(objCoefs, -distCoef)
		wvs = append(wvs, wv)
	}

	// C3: joint per-layer capacity, clamped at the row's own ceiling (the
	// columns' bound sum — a looser limit never propagates). Rows are
	// emitted in layer order, not map order: the model (and with it the
	// trace, wake and trail counts) must be a pure function of the inputs,
	// not of Go's map iteration randomization.
	c3Layers := make([]graph.NodeID, 0, len(perLayerX))
	for l := range perLayerX {
		c3Layers = append(c3Layers, l)
	}
	sort.Slice(c3Layers, func(i, j int) bool { return c3Layers[i] < c3Layers[j] })
	for _, l := range c3Layers {
		xs := perLayerX[l]
		limit := ws.v.hisMin(int(l), perLayerHi[l], relax)
		m.AddLinearLE(xs, onesOf(len(xs)), limit)
	}

	// C2: cumulative in-flight transformed chunks. A chunk transformed at
	// ℓ' stays in flight on [ℓ', i_w), so every layer from the earliest
	// candidate to the last consumption in the window is constrained.
	//
	// Root reduction, part 2: merge duplicate rows. The row's term set only
	// changes at a breakpoint — a layer where some candidate column enters
	// (ℓ' = l) or some consuming node drops its terms (i_w = l). All layers
	// between two breakpoints would emit the same left-hand side, so the
	// run collapses to a single row bounded by the tightest slack in the
	// segment — typically shrinking the window CP by an order of magnitude
	// in rows for sparse windows.
	loLayer, hiLayer := graph.NodeID(1<<30), graph.NodeID(0)
	for _, wv := range wvs {
		for _, l := range wv.layers {
			if l < loLayer {
				loLayer = l
			}
		}
		if wv.w.node > hiLayer {
			hiLayer = wv.w.node
		}
	}
	var breaks []graph.NodeID
	if loLayer < hiLayer {
		seen := map[graph.NodeID]bool{loLayer: true}
		breaks = append(breaks, loLayer)
		addBreak := func(l graph.NodeID) {
			if l > loLayer && l < hiLayer && !seen[l] {
				seen[l] = true
				breaks = append(breaks, l)
			}
		}
		for _, wv := range wvs {
			for _, l := range wv.layers {
				addBreak(l)
			}
			addBreak(wv.w.node)
		}
		sort.Slice(breaks, func(i, j int) bool { return breaks[i] < breaks[j] })
	}
	for bi, b := range breaks {
		segEnd := hiLayer
		if bi+1 < len(breaks) {
			segEnd = breaks[bi+1]
		}
		var vars []cpsat.Var
		var coefs []int64
		var rowCap int64
		for _, wv := range wvs {
			if wv.w.node <= b {
				continue // consumed at or before the segment
			}
			for i, al := range wv.layers {
				if al <= b {
					vars = append(vars, wv.xs[i])
					coefs = append(coefs, 1)
					rowCap += wv.his[i]
				}
			}
		}
		if len(vars) == 0 {
			continue
		}
		limit := ws.v.c2Lim(int(b), int(segEnd), rowCap)
		m.AddLinearLE(vars, coefs, limit)
	}

	m.Minimize(objVars, objCoefs)
	ws.res.stats.buildTime += time.Since(tBuild)

	tSolve := time.Now()
	res := m.Solve(cpsat.Options{
		TimeLimit:   cfg.SolveTimeout,
		MaxBranches: cfg.MaxBranches,
	})
	ws.res.stats.solveTime += time.Since(tSolve)
	ws.res.stats.branches += res.Branches
	ws.res.stats.wakes += res.Wakes
	ws.res.stats.trailOps += res.TrailOps
	ws.res.stats.nogoods += res.Nogoods
	ws.res.stats.restarts += res.Restarts
	ws.res.stats.conflicts += res.Conflicts
	ws.res.stats.backjumps += res.Backjumps
	ws.res.stats.minimizedLits += res.MinimizedLits
	if res.TimedOut {
		ws.res.wallClocked = true
	}

	if res.Status != cpsat.Optimal && res.Status != cpsat.Feasible {
		return false, res.Status == cpsat.Infeasible
	}
	if res.Status == cpsat.Feasible || relax > 1.0 {
		// Time-limited or soft-thresholded plans are not proven optimal.
		ws.res.stats.degraded = true
	}

	// Apply the solution.
	for _, wv := range wvs {
		wp := WeightPlan{Weight: wv.w.node, Bytes: wv.w.bytes, Chunks: wv.w.chunks}
		minLayer := wv.w.node
		for i, l := range wv.layers {
			n := int(res.Value(wv.xs[i]))
			if n == 0 {
				continue
			}
			wp.Transforms = append(wp.Transforms, Assignment{Layer: l, Chunks: n})
			ws.v.use(int(l), n)
			ws.v.addInflight(l, wv.w.node, n)
			if l < minLayer {
				minLayer = l
			}
		}
		z := graph.NodeID(res.Value(wv.z))
		if z > minLayer {
			z = minLayer
		}
		wp.LoadStart = z
		sort.Slice(wp.Transforms, func(i, j int) bool { return wp.Transforms[i].Layer < wp.Transforms[j].Layer })
		ws.res.weights = append(ws.res.weights, wp)
	}
	return true, true
}

// greedy is the rung-4 heuristic: fill chunks backwards from the consuming
// layer through capacity-bearing candidates under the M_peak budget;
// whatever does not fit is preloaded. Its reads are sequentially dependent
// on its own consumption, so they trace the base values exactly rather
// than clamped.
func (ws *winSolver) greedy(batch []weightItem) {
	cfg := ws.cfg
	ws.v.mpeakStamp()
	slackAt := func(l int) int {
		slack := int64(cfg.MPeak) - ws.v.inExact(l)
		if slack <= 0 {
			return 0
		}
		return int(slack / int64(cfg.ChunkSize))
	}
	for _, w := range batch {
		remaining := w.chunks
		wp := WeightPlan{Weight: w.node, Bytes: w.bytes, Chunks: w.chunks}
		lo := int(w.node) - cfg.Window
		if lo < 0 {
			lo = 0
		}
		for l := int(w.node) - 1; l >= lo && remaining > 0; l-- {
			// A chunk placed at l is in flight on [l, i_w): the binding
			// M_peak slack is the minimum over that whole interval.
			slack := slackAt(l)
			for ll := l + 1; ll < int(w.node); ll++ {
				if sl := slackAt(ll); sl < slack {
					slack = sl
				}
			}
			avail := minInt(ws.v.capExact(l), slack)
			if avail <= 0 {
				continue
			}
			n := minInt(avail, remaining)
			wp.Transforms = append(wp.Transforms, Assignment{Layer: graph.NodeID(l), Chunks: n})
			ws.v.use(l, n)
			ws.v.addInflight(graph.NodeID(l), w.node, n)
			remaining -= n
		}
		if remaining > 0 {
			// Roll back partial placement and preload instead: partially
			// streamed weights would still hold a full UM copy.
			for _, a := range wp.Transforms {
				ws.v.use(int(a.Layer), -a.Chunks)
				ws.v.addInflight(a.Layer, w.node, -a.Chunks)
			}
			ws.preload(w)
			continue
		}
		sort.Slice(wp.Transforms, func(i, j int) bool { return wp.Transforms[i].Layer < wp.Transforms[j].Layer })
		wp.LoadStart = wp.Transforms[0].Layer
		ws.res.weights = append(ws.res.weights, wp)
	}
}

// preload commits a weight to the preload set W.
func (ws *winSolver) preload(w weightItem) {
	ws.res.weights = append(ws.res.weights, WeightPlan{
		Weight: w.node, Bytes: w.bytes, Chunks: w.chunks, Preload: true,
	})
}
