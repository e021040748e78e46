package core

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/tensor"
	"repro/internal/units"
)

// fastOptions keeps solver budgets small for tests.
func fastOptions(dev device.Device) Options {
	o := DefaultOptions(dev)
	o.Config.SolveTimeout = 50 * time.Millisecond
	o.Config.MaxBranches = 2000
	o.Fusion.Rounds = 1
	return o
}

func smallTransformer() *graph.Graph {
	g := graph.New("small-tf", tensor.FP16)
	mb := units.MB
	for b := 0; b < 8; b++ {
		g.Op("ln1", graph.Part{Kind: graph.LayerNorm, Weight: 4 * units.KB, InBytes: mb, OutBytes: mb, MACs: 1e6})
		g.Op("qkv", graph.Part{Kind: graph.MatMul, Weight: 12 * mb, InBytes: mb, OutBytes: 3 * mb, MACs: 6e9})
		g.Op("softmax", graph.Part{Kind: graph.Softmax, InBytes: mb, OutBytes: mb, MACs: 1e6})
		g.Op("proj", graph.Part{Kind: graph.MatMul, Weight: 4 * mb, InBytes: mb, OutBytes: mb, MACs: 2e9})
		g.Op("gelu", graph.Part{Kind: graph.GeLU, InBytes: mb, OutBytes: mb, MACs: 1e6})
	}
	return g
}

func TestPrepareProducesValidPlan(t *testing.T) {
	e := NewEngine(fastOptions(device.OnePlus12()))
	g := smallTransformer()
	prep, err := e.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := prep.Plan.Validate(prep.Graph, e.caps, e.opts.Config); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}

	// With adaptive fusion off, the static pass must merge something (gelu
	// into proj at minimum). Adaptive fusion may legitimately split back.
	base := fastOptions(device.OnePlus12())
	base.AdaptiveFusion = false
	prepBase, err := NewEngine(base).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if prepBase.Graph.Len() >= g.Len() {
		t.Errorf("static fusion left %d nodes, original %d", prepBase.Graph.Len(), g.Len())
	}
}

func TestExecuteReportShape(t *testing.T) {
	e := NewEngine(fastOptions(device.OnePlus12()))
	rep, m, err := e.Run(smallTransformer())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Integrated <= 0 || rep.Exec <= 0 {
		t.Errorf("non-positive latency: %+v", rep)
	}
	if rep.Integrated != rep.Init+rep.Exec {
		t.Errorf("integrated %v != init %v + exec %v", rep.Integrated, rep.Init, rep.Exec)
	}
	if rep.Kernels == 0 {
		t.Error("no kernels executed")
	}
	if rep.Mem.Peak <= 0 || rep.Mem.Average <= 0 {
		t.Errorf("memory stats empty: %+v", rep.Mem)
	}
	if rep.Mem.Peak < rep.Mem.Average {
		t.Error("peak below average")
	}
	if m.OOM() {
		t.Error("small transformer cannot OOM a flagship")
	}
}

func TestStreamingKeepsMemoryBelowWeights(t *testing.T) {
	e := NewEngine(fastOptions(device.OnePlus12()))
	g := smallTransformer()
	total := g.TotalWeightBytes()
	prep, err := e.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := e.Execute(prep)
	// The whole point: average weight residency well below the full weight
	// set. The flat runtime footprint and the streaming arena are fixtures
	// of any runtime, so exclude them from the streaming invariant.
	arena := prep.Plan.MaxInflightBytes(prep.Graph.Len())
	weightResident := rep.Mem.Average - RuntimeFootprint - arena
	if weightResident >= units.Bytes(float64(total)*0.8) {
		t.Errorf("weight residency %v not well below total weights %v (avg %v, arena %v)",
			weightResident, total, rep.Mem.Average, arena)
	}
}

func TestKernelRewritingHelps(t *testing.T) {
	on := fastOptions(device.OnePlus12())
	off := on
	off.KernelRewriting = false

	g := smallTransformer()
	repOn, _, err := NewEngine(on).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	repOff, _, err := NewEngine(off).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if repOn.Integrated >= repOff.Integrated {
		t.Errorf("rewriting on (%v) must beat dedicated transform kernels (%v)",
			repOn.Integrated, repOff.Integrated)
	}
}

func TestMachineDrainsBetweenRuns(t *testing.T) {
	e := NewEngine(fastOptions(device.OnePlus12()))
	prep, err := e.Prepare(smallTransformer())
	if err != nil {
		t.Fatal(err)
	}
	_, m := e.Execute(prep)
	series := m.MemorySeries()
	if len(series) == 0 {
		t.Fatal("no memory series")
	}
	if last := series[len(series)-1].Value; last != 0 {
		t.Errorf("memory does not drain to zero: %v bytes left", last)
	}
}

func TestSlowDiskCausesStalls(t *testing.T) {
	dev := device.OnePlus12()
	dev.DiskBW = units.GBps(0.05) // pathologically slow storage
	e := NewEngine(fastOptions(dev))
	rep, _, err := e.Run(smallTransformer())
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := NewEngine(fastOptions(device.OnePlus12())).Run(smallTransformer())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Integrated <= fast.Integrated {
		t.Error("slow disk must increase integrated latency")
	}
}

func TestGenerateKernels(t *testing.T) {
	e := NewEngine(fastOptions(device.OnePlus12()))
	prep, err := e.Prepare(smallTransformer())
	if err != nil {
		t.Fatal(err)
	}
	ks, err := e.GenerateKernels(prep, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != prep.Graph.Len() {
		t.Fatalf("generated %d kernels for %d nodes", len(ks), prep.Graph.Len())
	}
	pipelined := 0
	for _, k := range ks {
		if !k.BranchFree() {
			t.Errorf("kernel %s is not branch-free", k.Name)
		}
		if k.Pipelined {
			pipelined++
		}
	}
	if pipelined == 0 {
		t.Error("no pipelined kernels despite streamed weights")
	}
}

func TestRealModelEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full ViT plan in short mode")
	}
	e := NewEngine(fastOptions(device.OnePlus12()))
	g := models.MustByAbbr("ViT").Build()
	rep, _, err := e.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	weights := g.TotalWeightBytes()
	if rep.Mem.Average > weights {
		t.Errorf("ViT average memory %v exceeds weights %v: streaming broken", rep.Mem.Average, weights)
	}
	if rep.Mem.OOM {
		t.Error("ViT cannot OOM the OnePlus 12")
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	e := NewEngine(fastOptions(device.OnePlus12()))
	bad := smallTransformer()
	bad.Nodes()[3].Inputs[0] = 99 // forward reference
	if _, err := e.Prepare(bad); err == nil {
		t.Fatal("invalid graph must be rejected")
	}
}

func TestPlanKeySolverVersionSalt(t *testing.T) {
	e := NewEngine(fastOptions(device.OnePlus12()))
	g := smallTransformer()

	k1, ok1 := e.planKeySalted("lc-opg-old", g)
	k2, ok2 := e.planKeySalted("lc-opg-new", g)
	if !ok1 || !ok2 {
		t.Fatal("engine not fingerprintable")
	}
	if k1 == k2 {
		t.Error("solver version bump did not change the plan key; stale persisted plans would be reused")
	}

	// PlanKey itself is the current-version salt, deterministically.
	a, _ := e.PlanKey(g)
	b, _ := e.PlanKey(g)
	if a != b {
		t.Error("PlanKey not deterministic")
	}
	cur, _ := e.planKeySalted(opg.SolverVersion, g)
	if a != cur {
		t.Error("PlanKey does not use opg.SolverVersion as its salt")
	}
}
