package server

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/replan"
	"repro/internal/units"
)

// POST /replan is the dynamic-scenario path: where /plan answers "give me
// the plan for this configuration", /replan answers "the device changed
// under a plan you already gave me — give me a valid one again, cheaply".
// The server keeps a bounded store of repair lineages (the traced solves
// opg.Repairable retains) keyed by everything that identifies a plan
// lineage except the churn-varying knobs (memory budget, thermal level),
// and each request walks the degradation ladder:
//
//	repaired       — incremental repair of the retained solve
//	cold           — from-scratch solve (first sight, or incompatible change)
//	cached_variant — nearest cached plan revalidated for the new state
//	patched        — prefix-preserving greedy patch after a repair-budget miss
//
// The response's Source carries the rung, so clients and dashboards see
// exactly how degraded each served plan is; /statsz aggregates the same
// labels plus repair window counts.

// replanEntry is one plan lineage: the retained traced solve repair
// starts from. The entry lock serializes the ladder per lineage while
// distinct lineages proceed in parallel.
type replanEntry struct {
	mu  sync.Mutex
	rep *opg.Repairable
}

// replanStore is a bounded LRU of repair lineages. Lineages are an
// optimization, not ground truth — evicting one costs the next /replan a
// cold solve, never a wrong answer.
type replanStore struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type replanNode struct {
	key   string
	entry *replanEntry
}

func newReplanStore(max int) *replanStore {
	return &replanStore{max: max, entries: map[string]*list.Element{}, order: list.New()}
}

// acquire returns the lineage for key, creating (and, at the bound,
// evicting the least recently used) as needed.
func (s *replanStore) acquire(key string) *replanEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*replanNode).entry
	}
	if s.order.Len() >= s.max {
		// Evict the least recently used lineage whose ladder is not mid-walk:
		// evicting an entry whose lock is held would let a concurrent request
		// for the same key create a second entry and duplicate the
		// multi-hundred-ms cold solve under exactly the load spike the bound
		// targets. If every lineage is busy, temporarily exceed the bound —
		// the next acquire retries the eviction.
		for el := s.order.Back(); el != nil; el = el.Prev() {
			n := el.Value.(*replanNode)
			if n.entry.mu.TryLock() {
				n.entry.mu.Unlock()
				s.order.Remove(el)
				delete(s.entries, n.key)
				break
			}
		}
	}
	n := &replanNode{key: key, entry: &replanEntry{}}
	s.entries[key] = s.order.PushFront(n)
	return n.entry
}

// Len reports live lineages.
func (s *replanStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// replanCounters aggregate the ladder outcomes for /statsz.
type replanCounters struct {
	requests        atomic.Int64
	repaired        atomic.Int64
	cold            atomic.Int64
	cachedVariant   atomic.Int64
	patched         atomic.Int64
	windowsKept     atomic.Int64
	windowsResolved atomic.Int64
}

// ReplanStats is the /statsz repair block.
type ReplanStats struct {
	Requests        int64 `json:"requests"`
	Repaired        int64 `json:"repaired"`
	Cold            int64 `json:"cold"`
	CachedVariant   int64 `json:"cached_variant"`
	Patched         int64 `json:"patched"`
	WindowsKept     int64 `json:"windows_kept"`
	WindowsResolved int64 `json:"windows_resolved"`
	Lineages        int   `json:"lineages"`
}

// ReplanRequest is the POST /replan body. Config expresses the post-churn
// solver state (mpeak_mb is the new memory budget); Throttle is the
// thermal level the device currently runs at (internal/power semantics:
// 0 = nominal, deeper levels derate compute and on-chip bandwidths).
type ReplanRequest struct {
	Device   string           `json:"device"`
	Model    string           `json:"model"`
	Throttle int              `json:"throttle,omitempty"`
	Config   *SolverOverrides `json:"config,omitempty"`
}

// RepairSummary reports what the repair rung did.
type RepairSummary struct {
	WindowsKept     int     `json:"windows_kept"`
	WindowsResolved int     `json:"windows_resolved"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// ReplanResponse is the POST /replan success body. Source is the
// degradation-ladder rung that produced the plan ("repaired", "cold",
// "cached_variant", "patched"); the plan itself is execution-ready for
// the effective (throttled) device, in the compact wire form
// (opg.Plan.Wire), always present on a success body and always last.
type ReplanResponse struct {
	Device   string `json:"device"`
	Model    string `json:"model"`
	Key      string `json:"key"`
	Throttle int    `json:"throttle"`

	Source string        `json:"source"`
	Repair RepairSummary `json:"repair"`

	Summary Summary         `json:"summary"`
	Plan    json.RawMessage `json:"plan,omitempty"`
}

// fusedGraphFor memoizes the fused graph per model — the graph every
// lineage's plans pair with.
func (s *Server) fusedGraphFor(spec models.Spec) *graph.Graph {
	e, _ := s.fused.LoadOrStore(spec.Abbr, &graphEntry{})
	ge := e.(*graphEntry)
	ge.once.Do(func() { ge.g = fusion.Fuse(spec.Build(), fusion.DefaultOptions()) })
	return ge.g
}

// capsKey identifies one capacity table: a model's fused graph on a device
// at a thermal level, clamped the way power.Throttle clamps it.
type capsKey struct {
	dev, model string
	level      int
}

// capacityFor returns the analytic load capacities of a model's fused
// graph on a device at a thermal level, tabulated once per key. Every
// /replan reads the capacity of every layer (the repair rebuilds its
// per-layer state from scratch), and recomputing them through the cost
// model dominated a repair that keeps every window.
func (s *Server) capacityFor(dev device.Device, level int, spec models.Spec, g *graph.Graph) opg.Capacity {
	key := capsKey{dev: dev.Name, model: spec.Abbr, level: min(level, power.MaxThrottleLevel)}
	if c, ok := s.caps.Load(key); ok {
		return c.(opg.Capacity)
	}
	analytic := profiler.AnalyticCapacityFunc(power.Throttle(dev, key.level))
	table := make([]units.Bytes, g.Len())
	for _, n := range g.Nodes() {
		table[n.ID] = analytic(n)
	}
	c, _ := s.caps.LoadOrStore(key, opg.Capacity(func(n *graph.Node) units.Bytes { return table[n.ID] }))
	return c.(opg.Capacity)
}

func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.ctr.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, t0, http.StatusMethodNotAllowed, false, codeMethodNotAllowed, "POST only")
		return
	}
	var req ReplanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	dev, ok := device.ByName(req.Device)
	if !ok {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, fmt.Sprintf("unknown device %q", req.Device))
		return
	}
	spec, ok := models.ByAbbr(req.Model)
	if !ok {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, fmt.Sprintf("unknown model %q", req.Model))
		return
	}
	if req.Throttle < 0 {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, "throttle must be non-negative")
		return
	}
	cfg, err := req.Config.apply(s.cfg.Solver)
	if err != nil {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, fmt.Sprintf("bad config: %v", err))
		return
	}

	// Counted only once the request has parsed and resolved to a ladder
	// walk, so the per-rung counters sum to requests and malformed traffic
	// cannot inflate the /statsz repair block.
	s.replanCtr.requests.Add(1)

	eff := power.Throttle(dev, req.Throttle)
	g := s.fusedGraphFor(spec)
	caps := s.capacityFor(dev, req.Throttle, spec, g)

	// The lineage key pins everything that identifies a repairable solve
	// except the churn-varying state (budget, throttle): a budget step or
	// thermal transition lands on the same lineage and repairs; changing
	// the window or chunking is a different lineage.
	key := fmt.Sprintf("replan|%s|%s|%s|%d|%g|%d|%s|%d",
		opg.SolverVersion, dev.Name, spec.Abbr,
		int64(cfg.ChunkSize), cfg.Lambda, cfg.Window, cfg.SolveTimeout, cfg.MaxBranches)

	entry := s.replans.acquire(key)
	entry.mu.Lock()
	plan, source, rsum := s.replanLadder(entry, g, caps, cfg)
	entry.mu.Unlock()

	// Make the plan execution-ready for the effective device: prefetch
	// timing follows the throttled cost model and disk bandwidth. Every
	// ladder rung returns a private copy, so the adjustment never touches
	// lineage or cache state.
	cm := kernels.NewCostModel(eff)
	opg.AdjustLoadStarts(plan, g, func(id graph.NodeID) units.Duration {
		return cm.KernelTime(g.Node(id), kernels.Texture25D)
	}, eff.DiskBW, cfg.MPeak)

	// The resilience invariant, enforced at the serving boundary: whatever
	// rung produced this plan, it must be valid for the device state it is
	// served under.
	if verr := plan.Validate(g, caps, cfg); verr != nil {
		s.fail(w, t0, http.StatusInternalServerError, false, codeInternal,
			fmt.Sprintf("%s plan failed validation for the requested device state: %v", source, verr))
		return
	}

	switch source {
	case opg.RungRepaired:
		s.replanCtr.repaired.Add(1)
	case opg.RungCold:
		s.replanCtr.cold.Add(1)
	case opg.RungCachedVariant:
		s.replanCtr.cachedVariant.Add(1)
	case opg.RungPatched:
		s.replanCtr.patched.Add(1)
	}
	s.replanCtr.windowsKept.Add(int64(rsum.WindowsKept))
	s.replanCtr.windowsResolved.Add(int64(rsum.WindowsResolved))

	wire, err := plan.Wire()
	if err != nil {
		s.fail(w, t0, http.StatusInternalServerError, false, codeInternal, fmt.Sprintf("encode plan: %v", err))
		return
	}
	resp := ReplanResponse{
		Device:   req.Device,
		Model:    req.Model,
		Key:      key,
		Throttle: req.Throttle,
		Source:   source,
		Repair:   rsum,
		Summary: Summary{
			Layers:          g.Len(),
			Weights:         len(plan.Weights),
			OverlapFraction: plan.OverlapFraction(),
			PreloadMB:       plan.PreloadBytes().MiB(),
			SolverStatus:    plan.Stats.Status.String(),
			SolverWindows:   plan.Stats.Windows,
			SolverBranches:  plan.Stats.Branches,
		},
	}
	s.writeWithPlan(w, t0, &resp, wire)
}

// replanLadder walks the degradation ladder for one lineage under the
// entry lock and returns an execution-ready plan (deep copy, prefetch
// timing adjusted for the effective device), the rung label, and the
// repair accounting. It never fails: the final rungs are constructive.
func (s *Server) replanLadder(entry *replanEntry, g *graph.Graph, caps opg.Capacity, cfg opg.Config) (*opg.Plan, string, RepairSummary) {
	t0 := time.Now()
	cold := func() (*opg.Plan, string, RepairSummary) {
		entry.rep = opg.SolveRepairable(g, caps, cfg)
		return entry.rep.Plan(), opg.RungCold, RepairSummary{ElapsedMS: msSince(t0)}
	}

	if entry.rep == nil {
		return cold()
	}
	st, err := entry.rep.Repair(caps, cfg, opg.RepairOptions{Budget: s.cfg.RepairBudget})
	if err == nil {
		return entry.rep.Plan(), opg.RungRepaired, RepairSummary{
			WindowsKept:     st.WindowsKept,
			WindowsResolved: st.WindowsResolved,
			ElapsedMS:       msSince(t0),
		}
	}
	if errors.Is(err, opg.ErrRepairIncompatible) {
		return cold()
	}

	// Repair missed its latency budget. Rung 2: a cached plan variant that
	// already satisfies the new state. The lineage is stale afterwards —
	// the retained solve no longer matches what is served — so the next
	// request cold-solves rather than repairing from a wrong baseline.
	if pl := replan.CachedVariant(s.cache, g, caps, cfg); pl != nil {
		pl.Stats.RepairRung = opg.RungCachedVariant
		entry.rep = nil
		return pl, opg.RungCachedVariant, RepairSummary{ElapsedMS: msSince(t0)}
	}

	// Rung 3: prefix-preserving greedy patch.
	pl, st, perr := entry.rep.GreedyPatch(caps, cfg)
	if perr != nil {
		// Unreachable (rung 1 already proved compatibility), but never
		// serve a plan we cannot justify.
		return cold()
	}
	entry.rep = nil
	return pl, opg.RungPatched, RepairSummary{
		WindowsKept:     st.WindowsKept,
		WindowsResolved: st.WindowsResolved,
		ElapsedMS:       msSince(t0),
	}
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
