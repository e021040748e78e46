package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/opg"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/units"
)

// In-process reference computations the served plans are checked against.
// They run outside the timed phase, on refWorkers goroutines: solves under
// branch budgets are deterministic, so parallelism changes only how long
// the checks take.

const refWorkers = 2

// parallel runs fn(0..n-1) on refWorkers goroutines and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, refWorkers)
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prepareAll runs core.Engine.Prepare for every cell, storing into cache
// when it is non-nil, and returns the preparations and plan keys.
func prepareAll(cells []cell, cache core.PlanCache) ([]*core.Prepared, []string, error) {
	preps := make([]*core.Prepared, len(cells))
	keys := make([]string, len(cells))
	err := parallel(len(cells), func(i int) error {
		eng := engine(cells[i].dev, solverConfig(), cache)
		g := cells[i].spec.Build()
		keys[i], _ = eng.PlanKey(g)
		p, err := eng.Prepare(g)
		preps[i] = p
		return err
	})
	return preps, keys, err
}

// churnInputs are the graph and capacities a /replan state is solved on.
type churnInputs struct {
	g    *graph.Graph
	dev  device.Device // the throttled device
	caps opg.Capacity
	cfg  opg.Config
}

func (s churnState) inputs(ls []lineage, fused map[string]*graph.Graph) churnInputs {
	eff := power.Throttle(ls[s.lin].dev, s.throttle)
	return churnInputs{
		g:    fused[ls[s.lin].spec.Abbr],
		dev:  eff,
		caps: profiler.AnalyticCapacityFunc(eff),
		cfg:  s.config(),
	}
}

// fusedGraphs builds the fused graph of each lineage model, as /replan
// plans on it.
func fusedGraphs(ls []lineage) map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	for _, l := range ls {
		if out[l.spec.Abbr] == nil {
			out[l.spec.Abbr] = fusion.Fuse(l.spec.Build(), fusion.DefaultOptions())
		}
	}
	return out
}

// adjust applies the prefetch adjustment Engine.Prepare and /replan apply
// to a plan for g on dev.
func adjust(p *opg.Plan, g *graph.Graph, dev device.Device, mpeak units.Bytes) {
	cm := kernels.NewCostModel(dev)
	opg.AdjustLoadStarts(p, g, func(id graph.NodeID) units.Duration {
		return cm.KernelTime(g.Node(id), kernels.Texture25D)
	}, dev.DiskBW, mpeak)
}

// adjust applies /replan's prefetch adjustment for the effective device.
func (in churnInputs) adjust(p *opg.Plan) { adjust(p, in.g, in.dev, in.cfg.MPeak) }

// coldReplan is the independent computation a /replan plan must equal: a
// from-scratch opg.Solve of the state, then the same prefetch adjustment.
func (in churnInputs) coldReplan() *opg.Plan {
	p := opg.Solve(in.g, in.caps, in.cfg)
	in.adjust(p)
	return p
}

// simulate runs a prepared model cold on the simulated device — the path
// behind flashmem's Model.Run — and returns its integrated latency and
// average memory, with the fused graph's serial kernel time as the floor.
func simulate(dev device.Device, cfg opg.Config, prep *core.Prepared) (simMS, memMB, floorMS float64) {
	eng := engine(dev, cfg, nil)
	rep, _ := eng.Execute(prep)
	floor := eng.CostModel().GraphTime(prep.Graph, kernels.Texture25D, 1)
	return rep.Integrated.Milliseconds(), rep.Mem.Average.MiB(), floor.Milliseconds()
}
