package opg

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cpsat"
	"repro/internal/graph"
)

// Incremental plan repair for dynamic scenarios: when a device-condition
// event reshapes the solver's inputs mid-flight — a memory-budget step
// changes M_peak, thermal throttling rescales every layer's load capacity —
// the plan does not have to be re-solved from scratch. A Repairable retains
// the per-window solve results of a traced sequential solve, and Repair
// walks the windows in order against the post-event state: a window whose
// canonical read trace replays exactly is kept as-is (the replay theorem
// from window.go — equal reads imply the solve would reproduce the result
// byte for byte), and only the windows the event actually touched are
// re-solved, cold, on the post-event state. A repaired plan is therefore
// byte-identical to a from-scratch solve of that state.
//
// The first window a budget drop affects is found by the replay itself:
// earlier windows replay clean (their reads are insensitive to the event),
// so the committed prefix survives and the re-solve cost is proportional to
// the damage, not the model size.

// Degradation-ladder rung labels: how a served plan was produced after a
// device-condition event. RungRepaired and RungPatched originate here; the
// ladder in internal/replan adds the cached-variant and shedding rungs.
const (
	RungCold          = "cold"           // full from-scratch solve
	RungRepaired      = "repaired"       // incremental repair, proven equal
	RungCachedVariant = "cached_variant" // cached plan revalidated for the new state
	RungPatched       = "patched"        // replay-valid windows kept, rest greedy
	RungShed          = "shed"           // model dropped under memory pressure
	RungRestored      = "restored"       // previously shed model back in service
)

// ErrRepairBudget reports that an incremental repair exceeded its latency
// budget; the Repairable is left exactly as it was, and the caller should
// fall down the degradation ladder.
var ErrRepairBudget = errors.New("opg: repair exceeded its latency budget")

// ErrRepairIncompatible reports a config change repair cannot express: only
// MPeak and the capacity function may differ from the solve the Repairable
// retains. Anything else (chunking, window span, ladder or budget knobs)
// invalidates the retained traces wholesale, so the caller must re-solve.
var ErrRepairIncompatible = errors.New("opg: config change outside MPeak requires a fresh solve")

// Repairable is a solved plan plus everything needed to repair it in place:
// the enumerated windows and each window's full solve result — plan
// entries, state deltas and canonical read trace. Build one with
// SolveRepairable; its plan is byte-identical to Solve on the same inputs.
// A Repairable is not safe for concurrent use; callers serialize
// Repair/GreedyPatch/Plan.
type Repairable struct {
	g       *graph.Graph
	caps    Capacity
	cfg     Config
	wins    []window
	results []*windowResult
	plan    *Plan
}

// newRepairSolver builds the solver shell shared by SolveRepairable,
// Repair, and GreedyPatch: normalized plan skeleton plus fresh per-layer
// state derived from the capacity function.
func newRepairSolver(g *graph.Graph, caps Capacity, cfg Config) *solver {
	s := &solver{
		g: g, caps: caps, cfg: cfg,
		plan: &Plan{Model: g.Name, ChunkSize: cfg.ChunkSize, MPeak: cfg.MPeak},
	}
	s.stats = &s.plan.Stats
	s.stats.Status = cpsat.Optimal
	t0 := time.Now()
	s.capRemaining = make([]int, g.Len())
	s.inflight = make([]int64, g.Len())
	for _, n := range g.Nodes() {
		s.capRemaining[n.ID] = Chunks(caps(n), cfg.ChunkSize)
	}
	s.stats.ProcessTime = time.Since(t0)
	return s
}

// normConfig applies Solve's defaulting so Repairable configs compare
// field-for-field.
func normConfig(cfg Config) Config {
	if cfg.ChunkSize <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultConfig().Window
	}
	if cfg.SoftThreshold < 1 {
		cfg.SoftThreshold = 1
	}
	return cfg
}

// SolveRepairable runs a traced sequential LC-OPG solve and retains the
// per-window machinery for later repair. The resulting plan is
// byte-identical to Solve(g, caps, cfg): tracing only observes the solve,
// it never steers it.
func SolveRepairable(g *graph.Graph, caps Capacity, cfg Config) *Repairable {
	cfg = normConfig(cfg)
	s := newRepairSolver(g, caps, cfg)

	var weights []weightItem
	for _, id := range g.WeightedNodes() {
		b := g.Node(id).Weight()
		weights = append(weights, weightItem{node: id, bytes: b, chunks: Chunks(b, cfg.ChunkSize)})
	}
	wins := enumerateWindows(weights, cfg.Window)
	results := make([]*windowResult, len(wins))
	for i, win := range wins {
		res := solveWindow(&s.cfg, win, s.capRemaining, s.inflight, true)
		results[i] = res
		s.apply(res)
	}
	sort.Slice(s.plan.Weights, func(i, j int) bool {
		return s.plan.Weights[i].Weight < s.plan.Weights[j].Weight
	})
	return &Repairable{g: g, caps: caps, cfg: cfg, wins: wins, results: results, plan: s.plan}
}

// Graph returns the graph the Repairable plans for.
func (r *Repairable) Graph() *graph.Graph { return r.g }

// Config returns the configuration of the currently retained plan.
func (r *Repairable) Config() Config { return r.cfg }

// Windows returns the number of rolling windows the plan solves over.
func (r *Repairable) Windows() int { return len(r.wins) }

// Plan returns a deep copy of the currently retained plan, safe to adjust
// and serve.
func (r *Repairable) Plan() *Plan { return r.plan.Clone() }

// clone returns an independent Repairable sharing the immutable per-window
// results — benchmarks use it to repair from the same baseline repeatedly.
func (r *Repairable) clone() *Repairable {
	return &Repairable{
		g: r.g, caps: r.caps, cfg: r.cfg, wins: r.wins,
		results: append([]*windowResult(nil), r.results...),
		plan:    r.plan,
	}
}

// compatible checks that cfg differs from the retained config in MPeak
// only.
func (r *Repairable) compatible(cfg Config) error {
	masked := r.cfg
	masked.MPeak = cfg.MPeak
	if masked != cfg {
		return fmt.Errorf("%w (have %+v, want %+v)", ErrRepairIncompatible, r.cfg, cfg)
	}
	return nil
}

// RepairOptions tunes one repair pass.
type RepairOptions struct {
	// Budget caps the repair's wall-clock time; 0 means unlimited. A repair
	// that exceeds it aborts with ErrRepairBudget, leaving the Repairable
	// untouched — the degradation ladder takes over from there.
	Budget time.Duration
}

// RepairStats summarizes one repair pass.
type RepairStats struct {
	WindowsKept     int           // windows whose traces replayed clean
	WindowsResolved int           // windows re-solved on the post-event state
	Elapsed         time.Duration // wall clock of the whole pass
}

// Repair re-targets the retained plan at a new device condition: fresh
// capacities (thermal throttling reshapes the cost model) and/or a new
// in-flight budget (cfg.MPeak). Windows whose canonical reads replay
// unchanged against the new state are kept; the rest re-solve. On success
// the Repairable holds the repaired plan, byte-identical to a from-scratch
// Solve on the post-event scenario — the property the differential test in
// repair_test.go pins down. On error (budget exceeded, incompatible config)
// the Repairable is unchanged.
func (r *Repairable) Repair(caps Capacity, cfg Config, opts RepairOptions) (RepairStats, error) {
	cfg = normConfig(cfg)
	if err := r.compatible(cfg); err != nil {
		return RepairStats{}, err
	}
	t0 := time.Now()
	s := newRepairSolver(r.g, caps, cfg)
	results := make([]*windowResult, len(r.wins))
	var st RepairStats
	for i, win := range r.wins {
		if opts.Budget > 0 && time.Since(t0) > opts.Budget {
			st.Elapsed = time.Since(t0)
			return st, ErrRepairBudget
		}
		old := r.results[i]
		// Wall-clocked solves are timing-dependent: their results are not a
		// pure function of the recorded reads, so they are never reused —
		// the same rule the speculative pipeline applies at commit.
		if old != nil && !old.wallClocked && replayOK(old, &s.cfg, s.capRemaining, s.inflight) {
			results[i] = old
			s.apply(old)
			st.WindowsKept++
			continue
		}
		res := solveWindow(&s.cfg, win, s.capRemaining, s.inflight, true)
		results[i] = res
		s.apply(res)
		st.WindowsResolved++
	}
	sort.Slice(s.plan.Weights, func(i, j int) bool {
		return s.plan.Weights[i].Weight < s.plan.Weights[j].Weight
	})
	st.Elapsed = time.Since(t0)
	s.stats.RepairRung = RungRepaired
	s.stats.RepairWindowsKept = st.WindowsKept
	s.stats.RepairWindowsResolved = st.WindowsResolved
	r.caps, r.cfg, r.results, r.plan = caps, cfg, results, s.plan
	return st, nil
}

// greedyWindow solves one window with the structural prefilter plus the
// rung-4 greedy heuristic only — no CP. It is the patch path's window
// solve: always succeeds, costs microseconds, and marks the result
// degraded.
func greedyWindow(cfg *Config, win window, baseCap []int, baseIn []int64) *windowResult {
	ws := newWinSolver(cfg, win, baseCap, baseIn, false)
	var items []weightItem
	for _, w := range win.batch {
		wCands := ws.candidates(w)
		var capSum int64
		for _, l := range wCands {
			capSum += ws.v.capMin(int(l), int64(w.chunks))
		}
		switch {
		case len(wCands) == 0, capSum < int64(w.chunks):
			ws.preload(w)
		case ws.v.mpeakGT(int64(w.chunks) * int64(cfg.ChunkSize)):
			ws.preload(w)
		default:
			items = append(items, w)
		}
	}
	if len(items) > 0 {
		ws.res.stats.fallbacks.Greedy++
		ws.res.stats.degraded = true
		ws.greedy(items)
	}
	return ws.finish()
}

// GreedyPatch is the degradation ladder's prefix-preserving fallback: every
// window whose trace still replays clean against the post-event state keeps
// its solved result, and the affected windows are re-filled by the greedy
// heuristic alone — no CP, so the patch costs microseconds per window and
// cannot miss a latency budget. The patched plan validates like any greedy
// fallback plan but is not optimal; the Repairable is left unchanged (its
// retained solve no longer matches any served state, so the caller should
// schedule a proper repair or re-solve).
func (r *Repairable) GreedyPatch(caps Capacity, cfg Config) (*Plan, RepairStats, error) {
	cfg = normConfig(cfg)
	if err := r.compatible(cfg); err != nil {
		return nil, RepairStats{}, err
	}
	t0 := time.Now()
	s := newRepairSolver(r.g, caps, cfg)
	var st RepairStats
	for i, win := range r.wins {
		old := r.results[i]
		if old != nil && !old.wallClocked && replayOK(old, &s.cfg, s.capRemaining, s.inflight) {
			s.apply(old)
			st.WindowsKept++
			continue
		}
		s.apply(greedyWindow(&s.cfg, win, s.capRemaining, s.inflight))
		st.WindowsResolved++
	}
	sort.Slice(s.plan.Weights, func(i, j int) bool {
		return s.plan.Weights[i].Weight < s.plan.Weights[j].Weight
	})
	st.Elapsed = time.Since(t0)
	s.stats.RepairRung = RungPatched
	s.stats.RepairWindowsKept = st.WindowsKept
	s.stats.RepairWindowsResolved = st.WindowsResolved
	return s.plan, st, nil
}
