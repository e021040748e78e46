package opg

import (
	"sort"
	"time"

	"repro/internal/cpsat"
	"repro/internal/graph"
	"repro/internal/units"
)

// MaxCandidates bounds how many preceding layers a weight may be assigned
// to. The paper notes L(w)'s indices "are not required to be continuous;
// layers within this range can be selectively chosen" — we keep the nearest
// capacity-bearing layers, which both shrinks the CP model and prefers
// low-residency assignments.
const MaxCandidates = 12

// weightItem is one weight tensor to schedule.
type weightItem struct {
	node   graph.NodeID
	bytes  units.Bytes
	chunks int
}

type solver struct {
	g    *graph.Graph
	caps Capacity
	cfg  Config

	capRemaining []int   // per-layer remaining capacity, chunks
	inflight     []int64 // per-layer committed in-flight bytes

	plan  *Plan
	stats *SolveStats
}

// AdaptMPeak applies the Adaptive Peak Memory Control of Table 3: the
// in-flight budget scales with model size so that a single large weight
// tensor (e.g. a 70B model's half-gigabyte FC matrix) can still be
// scheduled rather than degenerating to full preload. The default 500 MB
// stands for on-device-scale models.
func AdaptMPeak(cfg Config, g *graph.Graph) Config {
	if adaptive := g.TotalWeightBytes() / 16; adaptive > cfg.MPeak {
		cfg.MPeak = adaptive
	}
	return cfg
}

// Solve runs LC-OPG over the graph and returns a complete plan. It never
// fails: the tiered fallback guarantees a schedule (worst case: preload).
//
// With cfg.Parallelism > 1 the rolling windows run through the speculative
// pipeline (see pipeline.go); the committed plan and all solver counters
// are byte-identical to a sequential solve, so the knob trades nothing but
// wall-clock and wasted speculative work.
func Solve(g *graph.Graph, caps Capacity, cfg Config) *Plan {
	if cfg.ChunkSize <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultConfig().Window
	}
	if cfg.SoftThreshold < 1 {
		cfg.SoftThreshold = 1
	}

	s := &solver{
		g: g, caps: caps, cfg: cfg,
		plan: &Plan{Model: g.Name, ChunkSize: cfg.ChunkSize, MPeak: cfg.MPeak},
	}
	s.stats = &s.plan.Stats
	s.stats.Status = cpsat.Optimal

	// Process nodes: capacities and weight list (Table 4 "Process nodes").
	t0 := time.Now()
	s.capRemaining = make([]int, g.Len())
	s.inflight = make([]int64, g.Len())
	for _, n := range g.Nodes() {
		s.capRemaining[n.ID] = Chunks(caps(n), cfg.ChunkSize)
	}
	var weights []weightItem
	for _, id := range g.WeightedNodes() {
		b := g.Node(id).Weight()
		weights = append(weights, weightItem{node: id, bytes: b, chunks: Chunks(b, cfg.ChunkSize)})
	}
	s.stats.ProcessTime = time.Since(t0)

	// Rolling windows, enumerated up front: batch weights by consumption
	// layer, then solve sequentially or through the speculative pipeline.
	wins := enumerateWindows(weights, cfg.Window)
	if cfg.Parallelism > 1 && len(wins) > 1 {
		s.solveParallel(wins, cfg.Parallelism)
	} else {
		for _, win := range wins {
			s.apply(solveWindow(&s.cfg, win, s.capRemaining, s.inflight, false))
		}
	}

	sort.Slice(s.plan.Weights, func(i, j int) bool {
		return s.plan.Weights[i].Weight < s.plan.Weights[j].Weight
	})
	return s.plan
}

// apply commits one window result: plan entries, state deltas (capacity
// clamped at zero exactly as the old in-place soft-threshold overdraw
// did), and the stats share of the solve that actually got committed.
func (s *solver) apply(res *windowResult) {
	s.plan.Weights = append(s.plan.Weights, res.weights...)
	for i, u := range res.capUsed {
		if u != 0 {
			l := res.off + i
			if s.capRemaining[l] -= u; s.capRemaining[l] < 0 {
				s.capRemaining[l] = 0
			}
		}
	}
	for i, a := range res.inAdd {
		if a != 0 {
			s.inflight[res.off+i] += a
		}
	}
	st := &res.stats
	s.stats.BuildTime += st.buildTime
	s.stats.SolveTime += st.solveTime
	s.stats.Branches += st.branches
	s.stats.Wakes += st.wakes
	s.stats.TrailOps += st.trailOps
	s.stats.Nogoods += st.nogoods
	s.stats.Restarts += st.restarts
	s.stats.Conflicts += st.conflicts
	s.stats.Backjumps += st.backjumps
	s.stats.MinimizedLits += st.minimizedLits
	s.stats.Fallbacks.SoftThreshold += st.fallbacks.SoftThreshold
	s.stats.Fallbacks.IncrementalPreload += st.fallbacks.IncrementalPreload
	s.stats.Fallbacks.Greedy += st.fallbacks.Greedy
	if st.degraded {
		s.stats.Status = cpsat.Feasible
	}
	s.stats.Windows++
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func onesOf(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
