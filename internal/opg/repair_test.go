package opg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/units"
)

// Repair's correctness claim is differential: a repaired plan must be
// byte-identical to a from-scratch solve on the post-event scenario. The
// tests here pin that down across the two event families repair handles —
// M_peak steps (memory-budget events) and capacity rescaling (thermal
// throttling) — plus the budget-abort and greedy-patch paths.

// repairConfig keeps CP budgets branch-bound: a binding wall clock makes
// window solves timing-dependent, and then no two solves — repaired or
// cold — are comparable byte for byte.
func repairConfig() Config {
	cfg := DefaultConfig()
	cfg.SolveTimeout = 10 * time.Second
	cfg.MaxBranches = 4000
	return cfg
}

// scaledCapacity derates a capacity function uniformly — the shape of a
// thermal-throttle event at the solver's level of abstraction.
func scaledCapacity(caps Capacity, f float64) Capacity {
	return func(n *graph.Node) units.Bytes {
		return units.Bytes(f * float64(caps(n)))
	}
}

func TestSolveRepairableMatchesSolve(t *testing.T) {
	g := models.MustByAbbr("GPTN-S").Build()
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := repairConfig()

	r := SolveRepairable(g, caps, cfg)
	cold := Solve(g, caps, cfg)
	if !bytes.Equal(encodePlan(t, r.Plan()), encodePlan(t, cold)) {
		t.Fatal("traced repairable solve differs from plain Solve")
	}
	if r.Windows() == 0 {
		t.Fatal("no windows retained")
	}
}

// repairStep is one device-condition event: the in-flight budget and the
// uniform capacity derate in force once it lands.
type repairStep struct {
	mpeak  units.Bytes
	factor float64
}

// genRepairSteps generates n mixed events from base: each one steps the
// budget, the capacity derate, or both, so sequences cover pure budget
// drops and restores, pure thermal transitions, returns to earlier
// states, and events that change both at once.
func genRepairSteps(rng *rand.Rand, base units.Bytes, n int) []repairStep {
	cur := repairStep{mpeak: base, factor: 1}
	steps := make([]repairStep, n)
	for i := range steps {
		kind := rng.Intn(3)
		if kind != 1 {
			cur.mpeak = units.Bytes(2+rng.Intn(9)) * 50 * units.MB // 100–500 MB
		}
		if kind != 0 {
			cur.factor = []float64{0.6, 0.7, 0.85, 1}[rng.Intn(4)]
		}
		steps[i] = cur
	}
	return steps
}

// walkRepairs repairs one Repairable of g through steps and requires every
// repaired plan to equal, byte for byte, a cold Solve of the same state.
func walkRepairs(t *testing.T, g *graph.Graph, caps Capacity, cfg Config, steps []repairStep) {
	t.Helper()
	r := SolveRepairable(g, caps, cfg)
	for _, step := range steps {
		next := cfg
		next.MPeak = step.mpeak
		derated := scaledCapacity(caps, step.factor)
		st, err := r.Repair(derated, next, RepairOptions{})
		if err != nil {
			t.Fatalf("repair to %+v: %v", step, err)
		}
		cold := Solve(g, derated, next)
		if !bytes.Equal(encodePlan(t, r.Plan()), encodePlan(t, cold)) {
			t.Fatalf("repaired plan differs from cold solve at %+v (kept=%d resolved=%d)",
				step, st.WindowsKept, st.WindowsResolved)
		}
		if got := r.Plan().Stats.RepairRung; got != RungRepaired {
			t.Fatalf("rung = %q, want %q", got, RungRepaired)
		}
		t.Logf("MPeak %v, capacity ×%v: kept %d, re-solved %d windows",
			step.mpeak, step.factor, st.WindowsKept, st.WindowsResolved)
	}
}

// TestRepairBudgetDropDifferential walks GPTN-S down a fixed series of
// M_peak steps at full capacity.
func TestRepairBudgetDropDifferential(t *testing.T) {
	walkRepairs(t, models.MustByAbbr("GPTN-S").Build(),
		profiler.AnalyticCapacityFunc(device.OnePlus12()), repairConfig(), []repairStep{
			{400 * units.MB, 1}, {250 * units.MB, 1}, {100 * units.MB, 1},
		})
}

// TestRepairThrottleDifferential walks GPTN-S through a fixed series of
// capacity derates at the default M_peak.
func TestRepairThrottleDifferential(t *testing.T) {
	cfg := repairConfig()
	walkRepairs(t, models.MustByAbbr("GPTN-S").Build(),
		profiler.AnalyticCapacityFunc(device.OnePlus12()), cfg, []repairStep{
			{cfg.MPeak, 0.85}, {cfg.MPeak, 0.6}, {cfg.MPeak, 1},
		})
}

// TestRepairDifferential runs walkRepairs on event sequences generated
// from a seed over several models, one of them a large model whose
// windows run thousands of conflicts (skipped under -short). The fixed
// GPTN-S walks are the two tests above.
func TestRepairDifferential(t *testing.T) {
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := repairConfig()
	base := cfg.MPeak

	type repairCase struct {
		abbr  string
		large bool
		steps []repairStep
	}
	var cases []repairCase
	rng := rand.New(rand.NewSource(17))
	small := []string{"GPTN-S", "ResNet", "ViT", "DeepViT", "DepthA-S"}
	for i := 0; i < 4; i++ {
		cases = append(cases, repairCase{abbr: small[rng.Intn(len(small))], steps: genRepairSteps(rng, base, 5)})
	}
	large := []string{"GPTN-1.3B", "GPTN-2.7B", "SD-UNet", "Whisper-M"}
	cases = append(cases, repairCase{abbr: large[rng.Intn(len(large))], large: true, steps: genRepairSteps(rng, base, 3)})

	for i, c := range cases {
		t.Run(fmt.Sprintf("%d-%s", i, c.abbr), func(t *testing.T) {
			if c.large && testing.Short() {
				t.Skip("large model: skipped under -short")
			}
			walkRepairs(t, models.MustByAbbr(c.abbr).Build(), caps, cfg, c.steps)
		})
	}
}

// TestRepairKeepsUnaffectedPrefix is the point of the whole mechanism: a
// mild event must not force a full re-solve. A small M_peak step keeps a
// committed prefix (and usually most windows) intact.
func TestRepairKeepsUnaffectedPrefix(t *testing.T) {
	g := toyGraph(40, 8*units.MB)
	caps := flatCapacity(24 * units.MB)
	cfg := repairConfig()
	cfg.Window = 6 // small windows: per-row ceilings stay far below the budget

	r := SolveRepairable(g, caps, cfg)
	next := cfg
	next.MPeak = 400 * units.MB
	st, err := r.Repair(caps, next, RepairOptions{})
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if st.WindowsKept == 0 {
		t.Fatalf("no windows kept on a mild budget step (resolved=%d)", st.WindowsResolved)
	}
	if st.WindowsKept+st.WindowsResolved != r.Windows() {
		t.Fatalf("kept %d + resolved %d != windows %d", st.WindowsKept, st.WindowsResolved, r.Windows())
	}
}

// TestRepairRoundTrip drops the budget and restores it: the second repair
// must land byte-identically on the original solve.
func TestRepairRoundTrip(t *testing.T) {
	g := toyGraph(24, 32*units.MB)
	caps := flatCapacity(24 * units.MB)
	cfg := repairConfig()

	r := SolveRepairable(g, caps, cfg)
	orig := encodePlan(t, r.Plan())
	next := cfg
	next.MPeak = 120 * units.MB
	if _, err := r.Repair(caps, next, RepairOptions{}); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, err := r.Repair(caps, cfg, RepairOptions{}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(orig, encodePlan(t, r.Plan())) {
		t.Fatal("budget round trip did not restore the original plan")
	}
}

func TestRepairBudgetAbortLeavesStateIntact(t *testing.T) {
	g := models.MustByAbbr("GPTN-S").Build()
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := repairConfig()

	r := SolveRepairable(g, caps, cfg)
	before := encodePlan(t, r.Plan())
	next := cfg
	next.MPeak = 100 * units.MB
	_, err := r.Repair(caps, next, RepairOptions{Budget: time.Nanosecond})
	if !errors.Is(err, ErrRepairBudget) {
		t.Fatalf("err = %v, want ErrRepairBudget", err)
	}
	if !bytes.Equal(before, encodePlan(t, r.Plan())) {
		t.Fatal("aborted repair mutated the repairable")
	}
	if r.Config().MPeak != cfg.MPeak {
		t.Fatal("aborted repair mutated the retained config")
	}
}

func TestRepairRejectsIncompatibleConfig(t *testing.T) {
	g := toyGraph(8, 16*units.MB)
	caps := flatCapacity(24 * units.MB)
	r := SolveRepairable(g, caps, repairConfig())

	next := repairConfig()
	next.Window = 12
	if _, err := r.Repair(caps, next, RepairOptions{}); !errors.Is(err, ErrRepairIncompatible) {
		t.Fatalf("window change: err = %v, want ErrRepairIncompatible", err)
	}
	next = repairConfig()
	next.ChunkSize = 2 * units.MB
	if _, err := r.Repair(caps, next, RepairOptions{}); !errors.Is(err, ErrRepairIncompatible) {
		t.Fatalf("chunk change: err = %v, want ErrRepairIncompatible", err)
	}
}

func TestGreedyPatchValidAndFast(t *testing.T) {
	g := models.MustByAbbr("GPTN-S").Build()
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := repairConfig()

	r := SolveRepairable(g, caps, cfg)
	next := cfg
	next.MPeak = 120 * units.MB
	plan, st, err := r.GreedyPatch(caps, next)
	if err != nil {
		t.Fatalf("patch: %v", err)
	}
	if err := plan.Validate(g, caps, next); err != nil {
		t.Fatalf("patched plan invalid: %v", err)
	}
	if plan.Stats.RepairRung != RungPatched {
		t.Fatalf("rung = %q, want %q", plan.Stats.RepairRung, RungPatched)
	}
	if st.WindowsKept+st.WindowsResolved != r.Windows() {
		t.Fatalf("kept %d + resolved %d != windows %d", st.WindowsKept, st.WindowsResolved, r.Windows())
	}
	// The patch never runs CP, so the Repairable must be untouched: its
	// retained config still carries the pre-event budget.
	if r.Config().MPeak != cfg.MPeak {
		t.Fatal("patch mutated the repairable")
	}
}

func TestPlanCloneIndependent(t *testing.T) {
	g := toyGraph(8, 16*units.MB)
	caps := flatCapacity(24 * units.MB)
	p := Solve(g, caps, repairConfig())
	q := p.Clone()
	if !bytes.Equal(encodePlan(t, p), encodePlan(t, q)) {
		t.Fatal("clone differs from original")
	}
	q.Weights[0].LoadStart++
	if q.Weights[0].LoadStart == p.Weights[0].LoadStart {
		t.Fatal("clone shares weight storage with original")
	}
}
