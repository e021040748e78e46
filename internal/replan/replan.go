// Package replan is the dynamic-scenario resilience engine: it keeps a
// fleet of loaded models validly planned while the device underneath them
// churns. Condition events (internal/trace) — memory-budget steps, thermal
// throttle transitions, model load/unload — drive a per-model degradation
// ladder:
//
//  1. incremental repair (opg.Repairable.Repair) within a latency budget,
//     retried under a backoff.Budget so a throttle storm cannot spin forever;
//  2. the nearest cached plan variant re-validated against the new state;
//  3. a prefix-preserving greedy patch (opg.Repairable.GreedyPatch);
//  4. shedding the lowest-priority models when the fleet no longer fits.
//
// Every rung is recorded in the served plan's stats and surfaced by the
// plan server's /replan path; internal/chaos replays churn schedules over
// this package to assert that no request is lost and that every served
// plan is valid for the device state it was served under.
package replan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/backoff"
	"repro/internal/device"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/plancache"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/units"
)

// DeviceState is the mutable device condition a served plan must be valid
// for: the nominal profile plus the current in-flight budget and thermal
// level.
type DeviceState struct {
	Nominal  device.Device
	Budget   units.Bytes // current in-flight transform budget (M_peak)
	Throttle int         // thermal level, 0 = nominal
}

// Effective returns the device as the workload experiences it right now.
func (s DeviceState) Effective() device.Device {
	return power.Throttle(s.Nominal, s.Throttle)
}

// Caps returns the load-capacity function of the effective device: the
// throttled cost model reshapes capacities, which is exactly what repair
// re-solves against.
func (s DeviceState) Caps() opg.Capacity {
	return profiler.AnalyticCapacityFunc(s.Effective())
}

// Config parameterizes a Planner.
type Config struct {
	// Base is the nominal solver configuration; each event's solve uses it
	// with MPeak tracking the current budget. The zero value takes
	// opg.DefaultConfig.
	Base opg.Config

	// RepairBudget is the per-attempt latency budget for incremental
	// repair (0 = unlimited). A repair that misses it descends the ladder
	// after the retry budget runs out.
	RepairBudget time.Duration

	// RetryPolicy spaces repair retries; RetryTotal is the total-elapsed
	// cap across them (backoff.Budget). RetryTotal <= 0 disables retries:
	// one miss descends immediately.
	RetryPolicy backoff.Policy
	RetryTotal  time.Duration

	// Cache, when set, feeds the ladder's cached-variant rung.
	Cache *plancache.Cache
}

func (c Config) norm() Config {
	if c.Base.ChunkSize <= 0 {
		c.Base = opg.DefaultConfig()
	}
	return c
}

// ModelState is one loaded model's planning state.
type ModelState struct {
	Abbr     string
	Priority int // shedding order: lower sheds first

	Graph *graph.Graph // fused graph the retained plans pair with

	rep  *opg.Repairable
	plan *opg.Plan // current unadjusted plan for the current device state
	rung string    // how plan was produced (opg.Rung*)
	shed bool
	// stale marks a plan produced by a degraded rung (cached variant,
	// patch): the repairable's retained solve no longer matches the served
	// state, so the next event cold-solves instead of repairing from a
	// wrong baseline.
	stale bool
}

// Rung returns how the current plan was produced.
func (ms *ModelState) Rung() string { return ms.rung }

// Shed reports whether the model is currently shed.
func (ms *ModelState) Shed() bool { return ms.shed }

// Action records what the ladder did for one model on one event.
type Action struct {
	Model   string
	Rung    string // opg.RungCold | RungRepaired | RungCachedVariant | RungPatched | RungShed
	Stats   opg.RepairStats
	Elapsed time.Duration
}

// Serving is a plan ready to execute: the fused graph plus an adjusted
// deep copy of the current plan, safe for the caller to own.
type Serving struct {
	Graph *graph.Graph
	Plan  *opg.Plan
	Rung  string
}

// Planner tracks the loaded-model fleet across device churn. Not safe for
// concurrent use; callers serialize event application and serving.
type Planner struct {
	cfg    Config
	state  DeviceState
	models map[string]*ModelState
}

// NewPlanner starts a planner at the nominal device state.
func NewPlanner(dev device.Device, cfg Config) *Planner {
	cfg = cfg.norm()
	return &Planner{
		cfg:    cfg,
		state:  DeviceState{Nominal: dev, Budget: cfg.Base.MPeak},
		models: map[string]*ModelState{},
	}
}

// State returns the current device state.
func (p *Planner) State() DeviceState { return p.state }

// SolveConfig returns the solver configuration for the current state.
func (p *Planner) SolveConfig() opg.Config {
	cfg := p.cfg.Base
	cfg.MPeak = p.state.Budget
	return cfg
}

// Models returns the loaded models, sorted by abbreviation.
func (p *Planner) Models() []*ModelState {
	out := make([]*ModelState, 0, len(p.models))
	for _, ms := range p.models {
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Abbr < out[j].Abbr })
	return out
}

// ErrNotLoaded reports a request for a model the planner does not serve.
var ErrNotLoaded = errors.New("replan: model not loaded")

// ErrShed reports a request for a model currently shed under memory
// pressure.
var ErrShed = errors.New("replan: model shed under memory pressure")

// Apply handles one condition event and returns what the ladder did.
// Request events are not the planner's business (the replay engine serves
// them); they return no actions.
func (p *Planner) Apply(ctx context.Context, e trace.Event) ([]Action, error) {
	switch e.Kind {
	case trace.KindModelLoad:
		a, err := p.load(e.Model, e.Priority)
		if err != nil {
			return nil, err
		}
		return append(a, p.shedToFit()...), nil
	case trace.KindModelUnload:
		delete(p.models, e.Model)
		return p.shedToFit(), nil
	case trace.KindMemoryBudget:
		if e.Budget <= 0 {
			return nil, fmt.Errorf("replan: non-positive budget %d", e.Budget)
		}
		p.state.Budget = e.Budget
		return p.replanAll(ctx)
	case trace.KindThrottle:
		if e.Level < 0 {
			return nil, fmt.Errorf("replan: negative throttle level %d", e.Level)
		}
		p.state.Throttle = e.Level
		return p.replanAll(ctx)
	case trace.KindRequest:
		return nil, nil
	default:
		return nil, fmt.Errorf("replan: unknown event kind %q", e.Kind)
	}
}

// load brings a model into service with a cold traced solve.
func (p *Planner) load(abbr string, priority int) ([]Action, error) {
	if _, ok := p.models[abbr]; ok {
		return nil, nil // already serving; keep the existing plan
	}
	spec, ok := models.ByAbbr(abbr)
	if !ok {
		return nil, fmt.Errorf("replan: unknown model %q", abbr)
	}
	g := fusion.Fuse(spec.Build(), fusion.DefaultOptions())
	t0 := time.Now()
	rep := opg.SolveRepairable(g, p.state.Caps(), p.SolveConfig())
	ms := &ModelState{
		Abbr: abbr, Priority: priority, Graph: g,
		rep: rep, plan: rep.Plan(), rung: opg.RungCold,
	}
	p.models[abbr] = ms
	return []Action{{Model: abbr, Rung: opg.RungCold, Elapsed: time.Since(t0)}}, nil
}

// replanAll runs the ladder for every loaded model (alphabetical order,
// for determinism) against the new state, then sheds to fit.
func (p *Planner) replanAll(ctx context.Context) ([]Action, error) {
	caps := p.state.Caps()
	cfg := p.SolveConfig()
	var out []Action
	for _, ms := range p.Models() {
		out = append(out, p.ladder(ctx, ms, caps, cfg))
	}
	return append(out, p.shedToFit()...), nil
}

// ladder produces a valid plan for one model under the new state, falling
// through repair → cached variant → greedy patch. Shedding is fleet-level
// and handled by shedToFit.
func (p *Planner) ladder(ctx context.Context, ms *ModelState, caps opg.Capacity, cfg opg.Config) Action {
	t0 := time.Now()

	// A degraded plan means the repairable's baseline no longer matches
	// anything served; repair would start from the wrong state. Re-solve.
	if ms.stale {
		ms.rep = opg.SolveRepairable(ms.Graph, caps, cfg)
		ms.plan, ms.rung, ms.stale = ms.rep.Plan(), opg.RungCold, false
		return Action{Model: ms.Abbr, Rung: opg.RungCold, Elapsed: time.Since(t0)}
	}

	// Rung 1: incremental repair, retried under the total-elapsed budget.
	bud := backoff.NewBudget(p.cfg.RetryTotal)
	for attempt := 0; ; attempt++ {
		st, err := ms.rep.Repair(caps, cfg, opg.RepairOptions{Budget: p.cfg.RepairBudget})
		if err == nil {
			ms.plan, ms.rung = ms.rep.Plan(), opg.RungRepaired
			return Action{Model: ms.Abbr, Rung: opg.RungRepaired, Stats: st, Elapsed: time.Since(t0)}
		}
		if errors.Is(err, opg.ErrRepairIncompatible) {
			ms.rep = opg.SolveRepairable(ms.Graph, caps, cfg)
			ms.plan, ms.rung = ms.rep.Plan(), opg.RungCold
			return Action{Model: ms.Abbr, Rung: opg.RungCold, Elapsed: time.Since(t0)}
		}
		// Budget miss: retry while the retry budget lasts, then descend.
		if bud.Sleep(ctx, p.cfg.RetryPolicy, attempt) != nil {
			break
		}
	}

	// Rung 2: nearest cached plan variant revalidated for the new state.
	if pl := CachedVariant(p.cfg.Cache, ms.Graph, caps, cfg); pl != nil {
		pl.Stats.RepairRung = opg.RungCachedVariant
		ms.plan, ms.rung, ms.stale = pl, opg.RungCachedVariant, true
		return Action{Model: ms.Abbr, Rung: opg.RungCachedVariant, Elapsed: time.Since(t0)}
	}

	// Rung 3: prefix-preserving greedy patch. Always succeeds.
	pl, st, err := ms.rep.GreedyPatch(caps, cfg)
	if err != nil {
		// Unreachable (compatibility was already established by rung 1),
		// but never serve a plan we cannot justify: fall back to cold.
		ms.rep = opg.SolveRepairable(ms.Graph, caps, cfg)
		ms.plan, ms.rung, ms.stale = ms.rep.Plan(), opg.RungCold, false
		return Action{Model: ms.Abbr, Rung: opg.RungCold, Elapsed: time.Since(t0)}
	}
	ms.plan, ms.rung, ms.stale = pl, opg.RungPatched, true
	return Action{Model: ms.Abbr, Rung: opg.RungPatched, Stats: st, Elapsed: time.Since(t0)}
}

// CachedVariant scans a plan cache for the best plan that is valid for
// this graph under a post-event device state: same model and chunking,
// peak in-flight within the new budget, constraints validated, lowest
// objective wins. It returns a deep copy (with MPeak rewritten to the
// admitting budget), or nil when no cached plan qualifies. This is the
// degradation ladder's second rung, shared by the planner and the plan
// server's /replan path.
func CachedVariant(cache *plancache.Cache, g *graph.Graph, caps opg.Capacity, cfg opg.Config) *opg.Plan {
	if cache == nil {
		return nil
	}
	var best *opg.Plan
	var bestObj float64
	for _, key := range cache.Keys() {
		prep, ok := cache.Get(key)
		if !ok || prep.Plan == nil || prep.Graph == nil {
			continue
		}
		pl := prep.Plan
		if pl.Model != g.Name || pl.ChunkSize != cfg.ChunkSize {
			continue
		}
		// The cached graph must be the same fusion of the same model: plan
		// entries index nodes, so a structural mismatch invalidates them.
		if prep.Graph.Len() != g.Len() {
			continue
		}
		if pl.MaxInflightBytes(g.Len()) > cfg.MPeak {
			continue
		}
		if pl.Validate(g, caps, cfg) != nil {
			continue
		}
		if obj := pl.Objective(cfg.Lambda); best == nil || obj < bestObj {
			best, bestObj = pl.Clone(), obj
		}
	}
	if best != nil {
		// Serve a copy whose C2 book-keeping reflects the budget it was
		// admitted under.
		best.MPeak = cfg.MPeak
	}
	return best
}

// shedToFit enforces fleet residency: when the loaded plans' combined
// memory footprint (preload set + peak in-flight) exceeds the effective
// app limit, the lowest-priority models are shed until the rest fit. A
// previously shed model is restored automatically once the fleet fits
// with it included.
func (p *Planner) shedToFit() []Action {
	type fit struct {
		ms  *ModelState
		res units.Bytes
	}
	var fleet []fit
	for _, ms := range p.Models() {
		if ms.plan == nil {
			continue
		}
		fleet = append(fleet, fit{ms, ms.plan.PreloadBytes() + ms.plan.MaxInflightBytes(ms.Graph.Len())})
	}
	// Shedding order: priority ascending, then largest footprint first —
	// shed as few low-priority models as possible.
	sort.Slice(fleet, func(i, j int) bool {
		if fleet[i].ms.Priority != fleet[j].ms.Priority {
			return fleet[i].ms.Priority < fleet[j].ms.Priority
		}
		if fleet[i].res != fleet[j].res {
			return fleet[i].res > fleet[j].res
		}
		return fleet[i].ms.Abbr < fleet[j].ms.Abbr
	})
	limit := p.state.Effective().AppLimit
	var total units.Bytes
	for _, f := range fleet {
		total += f.res
	}
	// Decide the shed set from scratch as a prefix of the shed order: cut
	// just deep enough that the suffix fits, shed everything before the cut
	// and serve everything after it. Deciding by cut point (not by which
	// models were newly shed this pass) keeps total consistent with the
	// served set — a restored model's footprint is, by construction, still
	// counted against the limit.
	cut := 0
	for cut < len(fleet) && total > limit {
		total -= fleet[cut].res
		cut++
	}
	var out []Action
	for i, f := range fleet {
		switch {
		case i < cut && !f.ms.shed:
			f.ms.shed = true
			out = append(out, Action{Model: f.ms.Abbr, Rung: opg.RungShed})
		case i >= cut && f.ms.shed:
			f.ms.shed = false
			out = append(out, Action{Model: f.ms.Abbr, Rung: opg.RungRestored})
		}
	}
	return out
}

// Serve returns an executable plan for the model under the current device
// state: the retained plan, deep-copied and prefetch-adjusted for the
// effective cost model.
func (p *Planner) Serve(abbr string) (*Serving, error) {
	ms, ok := p.models[abbr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotLoaded, abbr)
	}
	if ms.shed {
		return nil, fmt.Errorf("%w: %s", ErrShed, abbr)
	}
	return p.serveState(ms)
}

// serveState adjusts a deep copy of the model's plan for the effective
// cost model, without the shed gate.
func (p *Planner) serveState(ms *ModelState) (*Serving, error) {
	if ms.plan == nil {
		return nil, fmt.Errorf("%w: %s has no plan", ErrNotLoaded, ms.Abbr)
	}
	eff := p.state.Effective()
	cm := kernels.NewCostModel(eff)
	adj := ms.plan.Clone()
	opg.AdjustLoadStarts(adj, ms.Graph, func(id graph.NodeID) units.Duration {
		return cm.KernelTime(ms.Graph.Node(id), kernels.Texture25D)
	}, eff.DiskBW, p.state.Budget)
	return &Serving{Graph: ms.Graph, Plan: adj, Rung: ms.rung}, nil
}
