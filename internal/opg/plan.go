// Package opg implements Overlap Plan Generation (§3): the static scheduling
// problem of deciding, for every weight tensor, when it is loaded from disk
// into unified memory (z_w), where its chunks are transformed into texture
// memory (x_{w,ℓ}), and which weights are preloaded outright (the set W) —
// subject to completeness (C0), loading-distance implication (C1), in-flight
// transform memory (C2), and per-layer load capacity (C3), minimizing
// λ·|W| + (1−λ)·Σ(i_w − z_w).
//
// The LC-OPG solver (§3.2) reduces each rolling window of the model to a
// cpsat model and applies the paper's tiered fallback — soft capacity
// thresholding, incremental preloading, then a greedy heuristic — so a plan
// is always produced within the time budget.
package opg

import (
	"fmt"
	"time"

	"repro/internal/cpsat"
	"repro/internal/graph"
	"repro/internal/units"
)

// Capacity returns a node's load capacity C_ℓ in bytes: how much extra
// weight data the node's kernel can transform while computing (§4.2).
type Capacity func(*graph.Node) units.Bytes

// Config parameterizes the solver.
type Config struct {
	ChunkSize units.Bytes // S: uniform chunk size for weight slicing
	MPeak     units.Bytes // in-flight transform memory bound (§3.1 C2)
	Lambda    float64     // λ: preload-vs-distance objective weight

	Window       int           // rolling window span in layers
	SolveTimeout time.Duration // per-window CP time budget
	MaxBranches  int64         // per-window CP branch budget (0 = unlimited)

	// SoftThreshold is the C4 relaxation factor applied to capacities when
	// a window is infeasible (e.g. 1.2 = allow 20% over).
	SoftThreshold float64

	// Parallelism is the speculative window pipeline's worker count: >1
	// solves upcoming windows concurrently against optimistically-predicted
	// capacity/in-flight state, validating each result against the true
	// state at commit (mismatches re-solve sequentially). ≤1 solves windows
	// strictly in order. The committed plan is byte-identical either way,
	// so Parallelism is deliberately excluded from plan-cache keys and
	// sweep fingerprints (like worker counts, it changes scheduling, not
	// results) — provided the CP budget is branch-bound; a binding
	// wall-clock budget makes any solve timing-dependent, and the pipeline
	// then refuses to commit speculative results (it degrades to sequential
	// re-solves rather than risk a nondeterministic plan).
	Parallelism int
}

// DefaultConfig mirrors the paper's memory-priority setting: S = 1 MB,
// M_peak = 500 MB, λ ≈ 0.9.
func DefaultConfig() Config {
	return Config{
		ChunkSize:     units.MB,
		MPeak:         500 * units.MB,
		Lambda:        0.9,
		Window:        48,
		SolveTimeout:  250 * time.Millisecond,
		MaxBranches:   20000,
		SoftThreshold: 1.2,
	}
}

// Chunks returns T(w): the number of S-sized chunks covering n bytes.
func Chunks(n, s units.Bytes) int {
	if s <= 0 {
		panic("opg: non-positive chunk size")
	}
	if n <= 0 {
		return 0
	}
	return int((n + s - 1) / s)
}

// Assignment is x_{w,ℓ} > 0: Chunks chunks of a weight transformed by layer ℓ.
type Assignment struct {
	Layer  graph.NodeID
	Chunks int
}

// WeightPlan is the schedule for one weight tensor, identified by its
// consuming node (i_w).
type WeightPlan struct {
	Weight graph.NodeID // i_w: the node that consumes this weight
	Bytes  units.Bytes
	Chunks int // T(w)

	Preload    bool         // member of W: loaded + transformed at init
	LoadStart  graph.NodeID // z_w: layer whose start triggers the disk load
	Transforms []Assignment // x_{w,ℓ}, ascending by layer
}

// FallbackStats counts the tiered fallback activations (§3.2 C4).
type FallbackStats struct {
	SoftThreshold      int
	IncrementalPreload int
	Greedy             int
}

// SolveStats is the Table 4 breakdown. Wakes and TrailOps expose the
// event-driven CP engine's internals — constraint activations scheduled by
// bound changes, and bound changes recorded on (then undone from) the
// backtracking trail — so solver-speed changes are observable in Table 4
// output rather than only in wall-clock noise.
type SolveStats struct {
	ProcessTime time.Duration // node/capacity processing
	BuildTime   time.Duration // CP model construction
	SolveTime   time.Duration // CP search
	Status      cpsat.Status  // OPTIMAL iff every window proved optimal
	Windows     int
	Branches    int64
	Wakes       int64
	TrailOps    int64
	Nogoods     int64 // learned CP nogoods installed across window solves
	Restarts    int64 // CP Luby restarts across window solves

	// CDCL counters. Conflicts and Backjumps expose the 1-UIP engine's
	// analysis work; MinimizedLits the self-subsumption payoff.
	Conflicts     int64
	Backjumps     int64
	MinimizedLits int64

	// Repair provenance, set only on plans produced by the dynamic-scenario
	// path (repair.go) or its degradation ladder: the rung that produced the
	// plan and the window-level kept/re-solved split of the repair pass.
	// Cold solves leave all three zero. Like the wall-clock fields, they are
	// not part of the wire encoding, so they never perturb byte-identity.
	RepairRung            string
	RepairWindowsKept     int
	RepairWindowsResolved int

	// Pipeline counters (zero on sequential solves). Speculative counts
	// windows whose ahead-of-commit solve validated and was committed
	// as-is; Recommitted counts windows whose speculation failed validation
	// and were re-solved on the true state. Unlike the solver counters
	// above — which cover only committed solves and therefore match the
	// sequential run exactly — these two depend on scheduling.
	Speculative int
	Recommitted int

	Fallbacks FallbackStats
}

// Plan is a complete overlap plan for one model.
type Plan struct {
	Model     string
	ChunkSize units.Bytes
	MPeak     units.Bytes
	Weights   []WeightPlan // ascending by Weight node ID
	Stats     SolveStats
}

// Clone returns a deep copy of the plan: mutating the copy's weights,
// transforms, or stats never touches the original. Consumers that adjust a
// plan per serving context (AdjustLoadStarts mutates LoadStart in place)
// must clone first when the source is shared — cache entries, Repairable
// plans.
func (p *Plan) Clone() *Plan {
	q := *p
	q.Weights = make([]WeightPlan, len(p.Weights))
	for i, w := range p.Weights {
		w.Transforms = append([]Assignment(nil), w.Transforms...)
		q.Weights[i] = w
	}
	return &q
}

// Objective evaluates the §3.1 objective λ·|W| + (1−λ)·Σ(i_w − z_w) for
// the plan. It is comparable only between plans for the same graph and
// chunk size; the degradation ladder uses it to rank cached plan variants
// that all validate against the post-event device state.
func (p *Plan) Objective(lambda float64) float64 {
	var preloads, dist float64
	for _, w := range p.Weights {
		if w.Preload {
			preloads++
			continue
		}
		dist += float64(w.Weight - w.LoadStart)
	}
	return lambda*preloads + (1-lambda)*dist
}

// ByWeight returns the plan entry for a weight-owning node.
func (p *Plan) ByWeight(id graph.NodeID) (WeightPlan, bool) {
	for _, w := range p.Weights {
		if w.Weight == id {
			return w, true
		}
	}
	return WeightPlan{}, false
}

// MaxInflightBytes returns the plan's peak in-flight transformed memory:
// the maximum over layers of chunks transformed but not yet consumed. The
// runtime sizes its streaming arena by this value (real allocators hold
// their high-water mark), and C2 guarantees it stays ≤ M_peak.
func (p *Plan) MaxInflightBytes(graphLen int) units.Bytes {
	inflight := make([]int64, graphLen+1)
	for _, w := range p.Weights {
		for _, a := range w.Transforms {
			for l := a.Layer; l < w.Weight && int(l) <= graphLen; l++ {
				inflight[l] += int64(a.Chunks) * int64(p.ChunkSize)
			}
		}
	}
	var max int64
	for _, b := range inflight {
		if b > max {
			max = b
		}
	}
	return units.Bytes(max)
}

// PreloadBytes sums the bytes of the preload set W.
func (p *Plan) PreloadBytes() units.Bytes {
	var total units.Bytes
	for _, w := range p.Weights {
		if w.Preload {
			total += w.Bytes
		}
	}
	return total
}

// OverlapFraction is the fraction of weight bytes streamed during execution
// rather than preloaded (the paper reports an average of 49.3% overlapped
// at the Figure 8 sweet spot).
func (p *Plan) OverlapFraction() float64 {
	var total, preload units.Bytes
	for _, w := range p.Weights {
		total += w.Bytes
		if w.Preload {
			preload += w.Bytes
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(preload)/float64(total)
}

// Validate checks the plan against the §3.1 constraints for graph g with
// the given capacities. The capacity check allows the configured soft
// threshold relaxation; everything else is exact.
func (p *Plan) Validate(g *graph.Graph, caps Capacity, cfg Config) error {
	planned := make(map[graph.NodeID]WeightPlan, len(p.Weights))
	for _, w := range p.Weights {
		planned[w.Weight] = w
	}
	// Every weighted node must be planned.
	for _, id := range g.WeightedNodes() {
		w, ok := planned[id]
		if !ok {
			return fmt.Errorf("opg: weight of node %d unplanned", id)
		}
		want := Chunks(g.Node(id).Weight(), p.ChunkSize)
		if w.Chunks != want {
			return fmt.Errorf("opg: node %d has %d chunks, want %d", id, w.Chunks, want)
		}
	}

	perLayer := map[graph.NodeID]int{}
	for _, w := range p.Weights {
		if w.Preload {
			if len(w.Transforms) != 0 {
				return fmt.Errorf("opg: preloaded weight %d has transforms", w.Weight)
			}
			continue
		}
		// C0: completeness of allocation.
		sum := 0
		minLayer := graph.NodeID(1 << 30)
		for _, a := range w.Transforms {
			if a.Chunks <= 0 {
				return fmt.Errorf("opg: weight %d has empty assignment at %d", w.Weight, a.Layer)
			}
			if a.Layer >= w.Weight {
				return fmt.Errorf("opg: weight %d transformed at %d, not before consumption", w.Weight, a.Layer)
			}
			sum += a.Chunks
			if a.Layer < minLayer {
				minLayer = a.Layer
			}
			perLayer[a.Layer] += a.Chunks
		}
		if sum != w.Chunks {
			return fmt.Errorf("opg: weight %d allocates %d of %d chunks (C0)", w.Weight, sum, w.Chunks)
		}
		// C1: z_w at or before the first transforming layer.
		if w.LoadStart > minLayer {
			return fmt.Errorf("opg: weight %d loads at %d after first transform %d (C1)", w.Weight, w.LoadStart, minLayer)
		}
		if w.LoadStart < 0 || w.LoadStart >= w.Weight {
			return fmt.Errorf("opg: weight %d load start %d out of range (C1)", w.Weight, w.LoadStart)
		}
	}

	// C3: per-layer capacity within the soft threshold.
	relax := cfg.SoftThreshold
	if relax < 1 {
		relax = 1
	}
	for layer, chunks := range perLayer {
		capBytes := caps(g.Node(layer))
		limit := int(relax * float64(Chunks(capBytes, p.ChunkSize)))
		if chunks > limit {
			return fmt.Errorf("opg: layer %d carries %d chunks, capacity %d (C3)", layer, chunks, limit)
		}
	}

	// C2: cumulative in-flight transformed memory ≤ M_peak.
	inflight := make([]int64, g.Len()+1)
	for _, w := range p.Weights {
		for _, a := range w.Transforms {
			// Chunks occupy texture staging from transform until consumption.
			for l := a.Layer; l < w.Weight; l++ {
				inflight[l] += int64(a.Chunks) * int64(p.ChunkSize)
			}
		}
	}
	for l, b := range inflight {
		if b > int64(p.MPeak) {
			return fmt.Errorf("opg: in-flight %d bytes at layer %d exceeds M_peak %d (C2)", b, l, int64(p.MPeak))
		}
	}
	return nil
}
