// Package flashmem is the public API of the FlashMem reproduction: a memory
// streaming framework for large-DNN and multi-DNN inference on (simulated)
// mobile GPUs, after "FlashMem: Supporting Modern DNN Workloads on Mobile
// with GPU Memory Hierarchy Optimizations" (ASPLOS 2026).
//
// Instead of preloading all weights, FlashMem statically computes an
// overlap plan — which weight chunks are loaded from disk and transformed
// into 2.5D texture memory at which layer — and streams weights during
// inference, overlapping I/O with compute through branch-free pipelined
// kernels.
//
// Quickstart:
//
//	rt := flashmem.New(flashmem.OnePlus12())
//	model, err := rt.Load("ViT")
//	if err != nil { ... }
//	res := model.Run()
//	fmt.Println(res.IntegratedMS, res.AvgMemMB)
package flashmem

import (
	"fmt"
	"io"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/plancache"
	"repro/internal/power"
	"repro/internal/units"
)

// Device is a simulated mobile platform profile.
type Device = device.Device

// The four evaluation devices (§5.1).
func OnePlus12() Device { return device.OnePlus12() }
func OnePlus11() Device { return device.OnePlus11() }
func Pixel8() Device    { return device.Pixel8() }
func XiaomiMi6() Device { return device.XiaomiMi6() }

// Devices returns all device profiles.
func Devices() []Device { return device.All() }

// DeviceByName looks up an evaluation device profile by its Name ("OnePlus
// 12", "Google Pixel 8", …). Request-driven callers — the plan server, the
// CLIs — address the device matrix by name; the second return is false for
// names outside Devices().
func DeviceByName(name string) (Device, bool) { return device.ByName(name) }

// Models returns the Table 6 model abbreviations the zoo can build.
func Models() []string {
	var out []string
	for _, s := range models.All() {
		out = append(out, s.Abbr)
	}
	return out
}

// Frameworks returns the baseline framework names.
func Frameworks() []string {
	var out []string
	for _, f := range baselines.All() {
		out = append(out, f.Name)
	}
	return out
}

// Option configures a Runtime.
type Option func(*core.Options)

// WithMPeak sets the in-flight transform memory budget (§3.1 C2).
func WithMPeak(b units.Bytes) Option {
	return func(o *core.Options) { o.Config.MPeak = b }
}

// WithLambda sets the preload-vs-distance objective weight λ (§3.1).
func WithLambda(l float64) Option {
	return func(o *core.Options) { o.Config.Lambda = l }
}

// WithChunkSize sets the weight slicing granularity S.
func WithChunkSize(s units.Bytes) Option {
	return func(o *core.Options) { o.Config.ChunkSize = s }
}

// WithSolverBudget bounds the per-window CP effort.
func WithSolverBudget(timeout time.Duration, branches int64) Option {
	return func(o *core.Options) {
		o.Config.SolveTimeout = timeout
		o.Config.MaxBranches = branches
	}
}

// WithSolverParallelism sets the LC-OPG speculative window pipeline's
// worker count (≤1 = sequential). The committed plan is byte-identical at
// any setting — speculative window solves only commit when their recorded
// reads replay exactly against the true state — so this trades nothing
// but planning wall-clock; plan-cache keys deliberately ignore it.
func WithSolverParallelism(workers int) Option {
	return func(o *core.Options) { o.Config.Parallelism = workers }
}

// WithoutAdaptiveFusion disables the §4.3 adaptive fusion loop.
func WithoutAdaptiveFusion() Option {
	return func(o *core.Options) { o.AdaptiveFusion = false }
}

// WithoutKernelRewriting disables §4.4 pipelined kernels; streamed chunks
// then cost dedicated transform kernels.
func WithoutKernelRewriting() Option {
	return func(o *core.Options) { o.KernelRewriting = false }
}

// PlanCache memoizes overlap plans across Load calls and runtimes. For a
// fixed (device, model, configuration) triple the solve is deterministic,
// so one cache can back any number of runtimes — including concurrently —
// and can be persisted to disk to warm-start later processes.
type PlanCache struct {
	c *plancache.Cache
}

// CacheStats counts plan-cache traffic; see PlanCache.Stats.
type CacheStats = core.CacheStats

// NewPlanCache builds a bounded LRU plan cache (maxEntries <= 0 uses the
// package default).
func NewPlanCache(maxEntries int) *PlanCache {
	return &PlanCache{c: plancache.New(maxEntries)}
}

// LoadStats reports what a snapshot load actually admitted; see
// PlanCache.LoadAll.
type LoadStats = plancache.LoadStats

// MergeStats summarizes a snapshot merge; see MergePlanSnapshots.
type MergeStats = plancache.MergeStats

// Stats snapshots hit/miss/eviction counters.
func (p *PlanCache) Stats() CacheStats { return p.c.Stats() }

// Len returns the number of cached plans.
func (p *PlanCache) Len() int { return p.c.Len() }

// Save persists the cached plans as JSON at path.
func (p *PlanCache) Save(path string) error { return p.c.Save(path) }

// Load merges a previously saved snapshot (a missing file is a no-op).
func (p *PlanCache) Load(path string) error { return p.c.Load(path) }

// LoadAll merges any number of snapshots — typically the shard-local
// snapshots of a distributed sweep — in argument order (last file wins on
// identical keys), reporting how many plans were loaded and how many were
// dropped as stale (older solver generation) or undecodable (best-effort
// reads of old-format files).
func (p *PlanCache) LoadAll(paths ...string) (LoadStats, error) { return p.c.LoadAll(paths...) }

// MergePlanSnapshots joins shard-local plan-cache snapshots into one
// warm-start file at out. Identical keys are deduplicated (last writer
// wins); a key mapping to two different plans fails the merge, since the
// solver is deterministic and keys embed the full configuration and
// solver version.
func MergePlanSnapshots(out string, paths ...string) (MergeStats, error) {
	return plancache.MergeSnapshotFiles(out, paths...)
}

// SolverVersion names the LC-OPG solver generation baked into plan-cache
// keys; persisted plans from other generations are re-solved, not reused.
func SolverVersion() string { return opg.SolverVersion }

// WithPlanCache attaches a plan cache to the runtime: Load and LoadGraph
// reuse a cached plan instead of re-solving when the same model was
// already planned under an identical configuration. A nil cache leaves
// memoization off, so a conditionally-populated *PlanCache is safe.
func WithPlanCache(pc *PlanCache) Option {
	return func(o *core.Options) {
		if pc == nil {
			o.Cache = nil
			return
		}
		o.Cache = pc.c
	}
}

// Runtime plans and executes models on one device profile. A Runtime is
// safe for concurrent use — Load, LoadGraph, and model runs may be issued
// from any number of goroutines — and runtimes sharing a PlanCache
// deduplicate solves across devices and goroutines. One process serving
// the whole device matrix builds one Runtime per profile (see Fleet, which
// does exactly that and nothing else).
type Runtime struct {
	engine *core.Engine
	dev    Device
}

// New builds a FlashMem runtime for a device.
func New(dev Device, opts ...Option) *Runtime {
	o := core.DefaultOptions(dev)
	for _, opt := range opts {
		opt(&o)
	}
	return &Runtime{engine: core.NewEngine(o), dev: dev}
}

// Model is a planned, executable model.
type Model struct {
	rt   *Runtime
	abbr string
	prep *core.Prepared
}

// Load builds and plans a Table 6 model by abbreviation (see Models()).
func (rt *Runtime) Load(abbr string) (*Model, error) {
	spec, ok := models.ByAbbr(abbr)
	if !ok {
		return nil, fmt.Errorf("flashmem: unknown model %q (see flashmem.Models())", abbr)
	}
	return rt.LoadGraph(abbr, spec.Build())
}

// LoadGraph plans a custom lowered graph.
func (rt *Runtime) LoadGraph(name string, g *graph.Graph) (*Model, error) {
	prep, err := rt.engine.Prepare(g)
	if err != nil {
		return nil, err
	}
	return &Model{rt: rt, abbr: name, prep: prep}, nil
}

// Result is one end-to-end run outcome.
type Result struct {
	Model  string
	Device string

	IntegratedMS float64
	InitMS       float64
	ExecMS       float64

	PeakMemMB float64
	AvgMemMB  float64
	OOM       bool

	Kernels int
	Stalls  int

	AvgPowerW float64
	EnergyJ   float64
}

// Run executes the model cold and reports latency, memory, and energy.
func (m *Model) Run() Result {
	rep, machine := m.rt.engine.Execute(m.prep)
	u := power.Default().Measure(machine, rep.Integrated)
	return Result{
		Model:        m.abbr,
		Device:       rep.Device,
		IntegratedMS: rep.Integrated.Milliseconds(),
		InitMS:       rep.Init.Milliseconds(),
		ExecMS:       rep.Exec.Milliseconds(),
		PeakMemMB:    rep.Mem.Peak.MiB(),
		AvgMemMB:     rep.Mem.Average.MiB(),
		OOM:          rep.Mem.OOM,
		Kernels:      rep.Kernels,
		Stalls:       rep.Stalls,
		AvgPowerW:    u.AveragePowerW,
		EnergyJ:      u.EnergyJ,
	}
}

// PlanSummary describes the overlap plan the solver produced.
type PlanSummary struct {
	Layers          int
	Weights         int
	OverlapFraction float64 // weight bytes streamed during execution
	PreloadMB       float64 // the |W| set
	SolverStatus    string
	SolverWindows   int
	SolverBranches  int64
	SolverWakes     int64 // CP constraint activations (watchlist traffic)
	SolverTrailOps  int64 // CP trailed bound changes (backtracking volume)
	SolverNogoods   int64 // learned CP nogoods (conflict-driven learning)
	SolverRestarts  int64 // CP Luby restarts

	// CDCL analysis counters: conflicts analyzed by the 1-UIP engine,
	// non-chronological backjumps, and literals removed by self-subsumption
	// minimization.
	SolverConflicts     int64
	SolverBackjumps     int64
	SolverMinimizedLits int64

	FallbackGreedy int

	// Speculative/Recommitted report the window pipeline's scheduling
	// outcome (both zero on sequential solves): windows committed straight
	// from validated speculation vs windows re-solved after a failed
	// validation. They are diagnostics — unlike the solver counters above
	// they may vary run to run.
	SpeculativeWindows int
	RecommittedWindows int

	// RepairRung names the degradation-ladder rung that produced this plan
	// after a device-condition event: "repaired" (incremental repair,
	// proven equal to a from-scratch solve), "cached_variant", or
	// "patched" (prefix-preserving greedy patch). Empty for plans solved
	// cold, which never rode the ladder. RepairWindowsKept/Resolved report
	// how much of the retained solve survived the event (both zero unless
	// the rung re-solved windows incrementally).
	RepairRung            string
	RepairWindowsKept     int
	RepairWindowsResolved int

	// FromCache reports that this plan was served by the runtime's plan
	// cache rather than solved; Cache snapshots that cache's counters at
	// summary time (zero value when the runtime has no cache).
	FromCache bool
	Cache     CacheStats
}

// Plan summarizes the model's overlap plan.
func (m *Model) Plan() PlanSummary {
	p := m.prep.Plan
	ps := PlanSummary{
		Layers:          m.prep.Graph.Len(),
		Weights:         len(p.Weights),
		OverlapFraction: p.OverlapFraction(),
		PreloadMB:       p.PreloadBytes().MiB(),
		SolverStatus:    p.Stats.Status.String(),
		SolverWindows:   p.Stats.Windows,
		SolverBranches:  p.Stats.Branches,
		SolverWakes:     p.Stats.Wakes,
		SolverTrailOps:  p.Stats.TrailOps,
		SolverNogoods:   p.Stats.Nogoods,
		SolverRestarts:  p.Stats.Restarts,

		SolverConflicts:     p.Stats.Conflicts,
		SolverBackjumps:     p.Stats.Backjumps,
		SolverMinimizedLits: p.Stats.MinimizedLits,

		FallbackGreedy: p.Stats.Fallbacks.Greedy,

		SpeculativeWindows: p.Stats.Speculative,
		RecommittedWindows: p.Stats.Recommitted,

		RepairRung:            p.Stats.RepairRung,
		RepairWindowsKept:     p.Stats.RepairWindowsKept,
		RepairWindowsResolved: p.Stats.RepairWindowsResolved,

		FromCache: m.prep.FromCache,
	}
	if c := m.rt.engine.Cache(); c != nil {
		ps.Cache = c.Stats()
	}
	return ps
}

// EncodePlan writes the model's overlap plan in its stable JSON wire
// format (solve once on a workstation, ship the plan with the model). The
// encoding is deterministic for a given plan, so two plans are equal iff
// their encodings are byte-identical — which is how the plan server's
// responses are checked against direct solves.
func (m *Model) EncodePlan(w io.Writer) error {
	return m.prep.Plan.Encode(w)
}

// KernelSource is one generated GPU kernel.
type KernelSource struct {
	Name      string
	Source    string
	Pipelined bool
}

// Kernels renders up to limit of the model's rewritten kernels (§4.4);
// limit < 0 renders all.
func (m *Model) Kernels(limit int) ([]KernelSource, error) {
	ks, err := m.rt.engine.GenerateKernels(m.prep, limit)
	if err != nil {
		return nil, err
	}
	out := make([]KernelSource, len(ks))
	for i, k := range ks {
		out[i] = KernelSource{Name: k.Name, Source: k.Source, Pipelined: k.Pipelined}
	}
	return out, nil
}

// RunBaseline executes a model under a preloading framework (see
// Frameworks()). It returns an error when the framework does not support
// the model or runs out of memory — Table 7's "–" cells.
func (rt *Runtime) RunBaseline(framework, abbr string) (Result, error) {
	f, ok := baselines.ByName(framework)
	if !ok {
		return Result{}, fmt.Errorf("flashmem: unknown framework %q", framework)
	}
	spec, ok := models.ByAbbr(abbr)
	if !ok {
		return Result{}, fmt.Errorf("flashmem: unknown model %q", abbr)
	}
	rep, machine, err := f.Run(spec.Build(), abbr, rt.dev)
	if err != nil {
		return Result{}, err
	}
	u := power.Default().Measure(machine, rep.Integrated())
	return Result{
		Model:        abbr,
		Device:       rep.Device,
		IntegratedMS: rep.Integrated().Milliseconds(),
		InitMS:       rep.Init.Milliseconds(),
		ExecMS:       rep.Exec.Milliseconds(),
		PeakMemMB:    rep.Mem.Peak.MiB(),
		AvgMemMB:     rep.Mem.Average.MiB(),
		OOM:          rep.Mem.OOM,
		AvgPowerW:    u.AveragePowerW,
		EnergyJ:      u.EnergyJ,
	}, nil
}
