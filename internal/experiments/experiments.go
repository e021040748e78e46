// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated device: Tables 1, 4, 6, 7, 8, 9 and
// Figures 2, 6, 7, 8, 9, 10, plus the ablations DESIGN.md adds. Each
// generator returns structured rows for programmatic checks and renders a
// paper-style text table.
//
// Sweeps run their device × model × config cells on a bounded worker pool
// (internal/sweep) and memoize solved plans through an optional plan cache
// (internal/plancache), so regenerating the full evaluation is bounded by
// the slowest cell rather than the sum of all solves.
//
// Every experiment is exposed as a Driver — deterministic cell
// enumeration, independently-runnable cell ranges, pure merge/render —
// which is what lets the matrix distribute across processes: statically
// (RunPartial / MergePartials over i/N shards) or dynamically
// (CoordinatorGrid / WorkerExec / CoordinatedOutputs under the
// work-stealing coordinator in internal/sweep). Both paths funnel through
// MergePartials' tiling validation, so distributed output is
// byte-identical to a single-process run.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/profiler"
	"repro/internal/sweep"
)

// Config scopes an experiment run.
type Config struct {
	Device device.Device
	// Models restricts the evaluation to these Table 6 abbreviations
	// (nil = all 11).
	Models []string
	// SolveTimeout and MaxBranches bound the per-window CP effort.
	SolveTimeout time.Duration
	MaxBranches  int64

	// Iterations is the per-model repeat count of the Figure 6 multi-model
	// trace (0 = the paper's 10).
	Iterations int

	// Workers bounds sweep concurrency: 0 = GOMAXPROCS, 1 = serial.
	Workers int
	// OPGParallelism is the LC-OPG speculative window pipeline's worker
	// count (opg.Config.Parallelism): ≤1 solves windows sequentially.
	// Plans are byte-identical either way, so — like Workers — it is a
	// scheduling knob and stays out of result fingerprints.
	OPGParallelism int
	// PlanCache memoizes Prepare results across every engine the runner
	// builds — the main runner and the per-cell engines of the figure and
	// ablation sweeps (nil = no memoization).
	PlanCache core.PlanCache
}

// DefaultConfig evaluates all models on the OnePlus 12 with moderate
// solver budgets (the 150-second paper limit is a CLI option).
func DefaultConfig() Config {
	return Config{
		Device:       device.OnePlus12(),
		SolveTimeout: 100 * time.Millisecond,
		MaxBranches:  8000,
	}
}

// iterations resolves the Figure 6 repeat count.
func (c Config) iterations() int {
	if c.Iterations > 0 {
		return c.Iterations
	}
	return 10
}

// modelSet resolves the configured model list.
func (c Config) modelSet() []models.Spec {
	if len(c.Models) == 0 {
		return models.All()
	}
	out := make([]models.Spec, 0, len(c.Models))
	for _, abbr := range c.Models {
		out = append(out, models.MustByAbbr(abbr))
	}
	return out
}

// flashRun is a cached FlashMem execution.
type flashRun struct {
	prep    *core.Prepared
	report  core.Report
	machine *gpusim.Machine
}

// baseRun is a cached baseline execution.
type baseRun struct {
	report  baselines.Report
	machine *gpusim.Machine
	err     error
}

// Per-key singleflight cells: concurrent sweep workers asking for the same
// model share one computation instead of racing to duplicate it. Each cell
// records a panic from its computation and re-raises it for every caller —
// sync.Once marks a panicked call done, and without this a poisoned cell
// would hand later callers nil results far from the real failure.
type graphCall struct {
	once     sync.Once
	g        *graph.Graph
	panicked any
}

type flashCall struct {
	once     sync.Once
	fr       *flashRun
	err      error
	panicked any
}

type baseCall struct {
	once     sync.Once
	br       *baseRun
	panicked any
}

type profileCall struct {
	once     sync.Once
	prof     *profiler.Profile
	err      error
	panicked any
}

// Runner executes and caches the per-model runs shared across experiments.
// It is safe for concurrent use; all drivers fan their cells out on the
// configured worker budget.
type Runner struct {
	Cfg    Config
	Engine *core.Engine

	mu     sync.Mutex
	graphs map[string]*graphCall
	flash  map[string]*flashCall
	base   map[string]*baseCall // "framework\x00abbr"
	prof   profileCall
}

// NewRunner builds a runner with a FlashMem engine on the configured device.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		Cfg:    cfg,
		Engine: core.NewEngine(engineOptions(cfg, cfg.Device)),
		graphs: map[string]*graphCall{},
		flash:  map[string]*flashCall{},
		base:   map[string]*baseCall{},
	}
}

// engineOptions returns full-pipeline engine options for a device with the
// configured solver budget and plan cache applied. Every engine the
// experiments build — the runner's own and the per-cell ones of the
// figure/ablation sweeps — goes through here so they all share the cache.
func engineOptions(cfg Config, dev device.Device) core.Options {
	opts := core.DefaultOptions(dev)
	if cfg.SolveTimeout > 0 {
		opts.Config.SolveTimeout = cfg.SolveTimeout
	}
	if cfg.MaxBranches > 0 {
		opts.Config.MaxBranches = cfg.MaxBranches
	}
	opts.Config.Parallelism = cfg.OPGParallelism
	opts.Cache = cfg.PlanCache
	return opts
}

// engineOptions is the runner-scoped variant on the primary device.
func (r *Runner) engineOptions() core.Options {
	return engineOptions(r.Cfg, r.Cfg.Device)
}

// solveConfig returns the runner's solver configuration.
func (r *Runner) solveConfig() opg.Config {
	cfg := opg.DefaultConfig()
	if r.Cfg.SolveTimeout > 0 {
		cfg.SolveTimeout = r.Cfg.SolveTimeout
	}
	if r.Cfg.MaxBranches > 0 {
		cfg.MaxBranches = r.Cfg.MaxBranches
	}
	cfg.Parallelism = r.Cfg.OPGParallelism
	return cfg
}

// parallel runs fn over items on the runner's worker budget with results
// in input order — the shape of every sweep in this package.
func parallel[I, O any](r *Runner, items []I, fn func(item I) (O, error)) ([]O, error) {
	return sweep.Map(context.Background(), r.Cfg.Workers, items,
		func(_ context.Context, _ int, item I) (O, error) { return fn(item) })
}

// oncePanicSafe runs fn under once, capturing a panic into *panicked and
// re-raising it on this and every later call.
func oncePanicSafe(once *sync.Once, panicked *any, fn func()) {
	once.Do(func() {
		defer func() { *panicked = recover() }()
		fn()
	})
	if *panicked != nil {
		panic(*panicked)
	}
}

// Graph builds (and caches) a model graph.
func (r *Runner) Graph(abbr string) *graph.Graph {
	r.mu.Lock()
	c, ok := r.graphs[abbr]
	if !ok {
		c = &graphCall{}
		r.graphs[abbr] = c
	}
	r.mu.Unlock()
	oncePanicSafe(&c.once, &c.panicked, func() { c.g = models.MustByAbbr(abbr).Build() })
	return c.g
}

// Flash runs FlashMem on a model, cached.
func (r *Runner) Flash(abbr string) (*flashRun, error) {
	r.mu.Lock()
	c, ok := r.flash[abbr]
	if !ok {
		c = &flashCall{}
		r.flash[abbr] = c
	}
	r.mu.Unlock()
	oncePanicSafe(&c.once, &c.panicked, func() {
		prep, err := r.Engine.Prepare(r.Graph(abbr))
		if err != nil {
			c.err = fmt.Errorf("experiments: prepare %s: %w", abbr, err)
			return
		}
		rep, m := r.Engine.Execute(prep)
		c.fr = &flashRun{prep: prep, report: rep, machine: m}
	})
	return c.fr, c.err
}

// Profile trains (and caches) the GBT capacity profiler on the primary
// device — shared by every cell that needs the profiled capacity source.
func (r *Runner) Profile() (*profiler.Profile, error) {
	c := &r.prof
	oncePanicSafe(&c.once, &c.panicked, func() {
		c.prof, c.err = profiler.Run(r.Cfg.Device, profiler.DefaultOptions())
	})
	return c.prof, c.err
}

// Baseline runs a framework on a model, cached. The error (unsupported or
// OOM) is cached too — Table 7's "–" cells.
func (r *Runner) Baseline(f *baselines.Framework, abbr string) *baseRun {
	key := f.Name + "\x00" + abbr
	r.mu.Lock()
	c, ok := r.base[key]
	if !ok {
		c = &baseCall{}
		r.base[key] = c
	}
	r.mu.Unlock()
	oncePanicSafe(&c.once, &c.panicked, func() {
		rep, m, err := f.Run(r.Graph(abbr), abbr, r.Cfg.Device)
		c.br = &baseRun{report: rep, machine: m, err: err}
	})
	return c.br
}
