// Package core is FlashMem itself: the offline planning pipeline (Figure 3
// — profile capacities, adaptive fusion, LC-OPG solve, prefetch adjustment,
// kernel rewriting) and the online streaming executor that runs the overlap
// plan on the simulated mobile GPU, overlapping disk loads and texture
// transforms with kernel execution.
package core

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/opg"
	"repro/internal/profiler"
	"repro/internal/units"
)

// Options configures an Engine. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	Device device.Device
	Config opg.Config     // LC-OPG solver configuration
	Fusion fusion.Options // fusion pass configuration

	// BaseFusion applies the static fusion pass (SmartMem-style) before
	// planning. AdaptiveFusion additionally runs the §4.3 split loop.
	// KernelRewriting embeds transforms into branch-free pipelined kernels
	// (§4.4); without it, streamed chunks cost dedicated transform kernels.
	// AdjustPrefetch runs the profile-guided z_w adjustment (§3.2).
	BaseFusion      bool
	AdaptiveFusion  bool
	KernelRewriting bool
	AdjustPrefetch  bool

	// Capacity overrides the load-capacity model (nil = analytic model; the
	// full pipeline passes a trained profiler capacity).
	Capacity opg.Capacity

	// CapacityKey names a custom Capacity for plan-cache fingerprinting.
	// Closures cannot be hashed, so a non-nil Capacity with an empty key
	// disables caching for this engine.
	CapacityKey string

	// Cache memoizes Prepare results across engines (nil = no memoization).
	Cache PlanCache
}

// DefaultOptions returns the full FlashMem configuration on a device.
func DefaultOptions(dev device.Device) Options {
	return Options{
		Device:          dev,
		Config:          opg.DefaultConfig(),
		Fusion:          fusion.DefaultOptions(),
		BaseFusion:      true,
		AdaptiveFusion:  true,
		KernelRewriting: true,
		AdjustPrefetch:  true,
	}
}

// Engine plans and executes models on one device configuration. An Engine
// is immutable after NewEngine and safe for concurrent use: Prepare,
// Execute, and GenerateKernels may run from any number of goroutines, and
// engines for different devices may share one PlanCache (which carries its
// own locking). The plan server leans on exactly this contract to serve
// the whole device matrix from one process.
type Engine struct {
	opts Options
	cm   *kernels.CostModel
	caps opg.Capacity
}

// NewEngine builds an engine from options.
func NewEngine(opts Options) *Engine {
	if opts.Config.ChunkSize <= 0 {
		opts.Config = opg.DefaultConfig()
	}
	caps := opts.Capacity
	if caps == nil {
		caps = profiler.AnalyticCapacityFunc(opts.Device)
	}
	return &Engine{opts: opts, cm: kernels.NewCostModel(opts.Device), caps: caps}
}

// Device returns the engine's device.
func (e *Engine) Device() device.Device { return e.opts.Device }

// CostModel exposes the engine's kernel cost model.
func (e *Engine) CostModel() *kernels.CostModel { return e.cm }

// Cache returns the engine's plan cache (nil when memoization is off).
func (e *Engine) Cache() PlanCache { return e.opts.Cache }

// Prepared is the offline-stage output for one model: the (possibly fused)
// graph and its overlap plan. Values handed out by a cache-hit Prepare are
// shared; the graph and plan must be treated as immutable.
type Prepared struct {
	Graph *graph.Graph
	Plan  *opg.Plan

	// FromCache reports that this preparation was served from the plan
	// cache rather than solved.
	FromCache bool
}

// PlanCost returns the recorded cost of producing this preparation: the
// solver's process + build + solve time. Cost-aware cache eviction uses it
// to keep plans that would be expensive to re-solve (a 70B model's plan
// costs seconds; a small CNN's costs microseconds) over cheap ones of equal
// recency. Cache-served copies share the original's stats, so the cost
// survives hits and snapshot round trips.
func (p *Prepared) PlanCost() time.Duration {
	if p == nil || p.Plan == nil {
		return 0
	}
	st := p.Plan.Stats
	return st.ProcessTime + st.BuildTime + st.SolveTime
}

// Prepare runs the offline stage: fusion, LC-OPG, prefetch adjustment.
// With a plan cache configured, a previously solved (device, config,
// graph) triple is returned without re-solving.
func (e *Engine) Prepare(g *graph.Graph) (*Prepared, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", err)
	}
	var key string
	cacheable := false
	if e.opts.Cache != nil {
		key, cacheable = e.PlanKey(g)
		if cacheable {
			if hit, ok := e.opts.Cache.Get(key); ok {
				cp := *hit
				cp.FromCache = true
				return &cp, nil
			}
		}
	}
	cur := g
	var plan *opg.Plan
	switch {
	case e.opts.AdaptiveFusion:
		res := fusion.Adaptive(g, e.caps, e.opts.Config, e.opts.Fusion)
		cur, plan = res.Graph, res.Plan
	case e.opts.BaseFusion:
		cur = fusion.Fuse(g, e.opts.Fusion)
		plan = opg.Solve(cur, e.caps, e.opts.Config)
	default:
		plan = opg.Solve(cur, e.caps, e.opts.Config)
	}
	if e.opts.AdjustPrefetch {
		opg.AdjustLoadStarts(plan, cur, func(id graph.NodeID) units.Duration {
			return e.cm.KernelTime(cur.Node(id), kernels.Texture25D)
		}, e.opts.Device.DiskBW, e.opts.Config.MPeak)
	}
	prep := &Prepared{Graph: cur, Plan: plan}
	if cacheable {
		e.opts.Cache.Put(key, prep)
	}
	return prep, nil
}

// Report summarizes one end-to-end run.
type Report struct {
	Model  string
	Device string

	Init       units.Duration // preload phase (W load + transform)
	Exec       units.Duration // execution phase
	Integrated units.Duration // Init + Exec: what Table 7 reports for FlashMem

	Mem gpusim.MemStats

	Kernels      int
	Stalls       int            // kernels delayed waiting for streamed weights
	StallTime    units.Duration // cumulative stall
	ComputeBusy  units.Duration
	TransferBusy units.Duration
}

// Run plans and executes a model cold on a fresh machine.
func (e *Engine) Run(g *graph.Graph) (Report, *gpusim.Machine, error) {
	prep, err := e.Prepare(g)
	if err != nil {
		return Report{}, nil, err
	}
	rep, m := e.Execute(prep)
	return rep, m, nil
}

// Execute runs a prepared model cold on a fresh machine.
func (e *Engine) Execute(prep *Prepared) (Report, *gpusim.Machine) {
	m := gpusim.New(e.opts.Device)
	res := e.ExecuteOn(m, prep, 0)
	return e.report(prep, m, res), m
}

func (e *Engine) report(prep *Prepared, m *gpusim.Machine, res ExecResult) Report {
	horizon := res.ExecEnd
	return Report{
		Model:        prep.Graph.Name,
		Device:       e.opts.Device.Name,
		Init:         res.InitEnd - res.Start,
		Exec:         res.ExecEnd - res.InitEnd,
		Integrated:   res.ExecEnd - res.Start,
		Mem:          m.Stats(horizon),
		Kernels:      res.Kernels,
		Stalls:       res.Stalls,
		StallTime:    res.StallTime,
		ComputeBusy:  m.Compute.BusyTotal(),
		TransferBusy: m.Transfer.BusyTotal(),
	}
}

// GenerateKernels renders up to limit kernel sources for a prepared model,
// using the pipelined template for layers that carry transforms and the
// naive template otherwise.
func (e *Engine) GenerateKernels(prep *Prepared, limit int) ([]kernels.Kernel, error) {
	rw := kernels.NewRewriter()
	extra := extraBytesPerLayer(prep)
	var out []kernels.Kernel
	for _, n := range prep.Graph.Nodes() {
		if limit >= 0 && len(out) >= limit {
			break
		}
		k, err := rw.Generate(n, extra[n.ID])
		if err != nil {
			return nil, fmt.Errorf("core: kernel for node %d: %w", n.ID, err)
		}
		out = append(out, k)
	}
	return out, nil
}

// extraBytesPerLayer maps each layer to the bytes of weight chunks its
// kernel transforms on behalf of upcoming layers.
func extraBytesPerLayer(prep *Prepared) map[graph.NodeID]units.Bytes {
	extra := make(map[graph.NodeID]units.Bytes)
	for _, w := range prep.Plan.Weights {
		remaining := w.Bytes
		for _, a := range w.Transforms {
			bytes := units.Bytes(a.Chunks) * prep.Plan.ChunkSize
			if bytes > remaining {
				bytes = remaining // final partial chunk
			}
			remaining -= bytes
			extra[a.Layer] += bytes
		}
	}
	return extra
}
