package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/profiler"
	"repro/internal/server"
	"repro/internal/units"
)

// solved returns a valid plan for ViT on the OnePlus 12 with the graph,
// capacities and configuration it satisfies.
func solved(t *testing.T) (*opg.Plan, *graph.Graph, opg.Capacity, opg.Config) {
	t.Helper()
	g := fusion.Fuse(models.MustByAbbr("ViT").Build(), fusion.DefaultOptions())
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := solverConfig()
	p := opg.Solve(g, caps, cfg)
	if err := checkPlan(p, g, caps, cfg); err != nil {
		t.Fatalf("unmodified plan rejected: %v", err)
	}
	return p, g, caps, cfg
}

// streamed returns the index of a streamed weight with at least minChunks
// chunks and a transform.
func streamed(t *testing.T, p *opg.Plan, minChunks int) int {
	t.Helper()
	for i, w := range p.Weights {
		if !w.Preload && len(w.Transforms) > 0 && w.Chunks >= minChunks {
			return i
		}
	}
	t.Fatalf("plan streams no weight with %d chunks", minChunks)
	return -1
}

func wantReject(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("check accepted a plan it must reject (%s)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("rejected for %q, want %q", err, want)
	}
}

func TestCheckPlanRejectsTransformAtConsumer(t *testing.T) {
	for _, at := range []int{0, 1} { // at the consumer, and after it
		p, g, caps, cfg := solved(t)
		w := &p.Weights[streamed(t, p, 1)]
		w.Transforms[len(w.Transforms)-1].Layer = w.Weight + graph.NodeID(at)
		wantReject(t, checkPlan(p, g, caps, cfg), "not before consumption")
	}
}

func TestCheckPlanRejectsLoadAfterFirstTransform(t *testing.T) {
	p, g, caps, cfg := solved(t)
	w := &p.Weights[streamed(t, p, 1)]
	w.LoadStart = w.Transforms[0].Layer + 1
	wantReject(t, checkPlan(p, g, caps, cfg), "(C1)")
}

func TestCheckPlanRejectsInflightOverMPeak(t *testing.T) {
	p, g, caps, cfg := solved(t)
	// Serve the plan under a budget below its own in-flight peak.
	cfg.MPeak = p.MaxInflightBytes(g.Len()) - cfg.ChunkSize
	p.MPeak = cfg.MPeak
	wantReject(t, checkPlan(p, g, caps, cfg), "(C2)")

	// A plan cannot pass by declaring a looser budget than it is served under.
	p, g, caps, cfg = solved(t)
	p.MPeak = 2 * cfg.MPeak
	wantReject(t, checkPlan(p, g, caps, cfg), "M_peak")
}

func TestCheckPlanRejectsLayerOverCapacity(t *testing.T) {
	p, g, caps, cfg := solved(t)
	hot := p.Weights[streamed(t, p, 1)].Transforms[0].Layer
	// The same plan served where that layer has no load capacity.
	tight := func(n *graph.Node) units.Bytes {
		if n.ID == hot {
			return 0
		}
		return caps(n)
	}
	wantReject(t, checkPlan(p, g, tight, cfg), "(C3)")
}

func TestCheckSamePlanRejectsReplanDifferingFromColdSolve(t *testing.T) {
	ls := churnLineages()
	in := churnState{lin: 1, mpeakMB: 400, throttle: hotLevel}.inputs(ls, fusedGraphs(ls))
	cold, err := wirePlan(in.coldReplan())
	if err != nil {
		t.Fatal(err)
	}
	rep := opg.SolveRepairable(in.g, in.caps, churnState{1, 500, 0}.config())
	if _, err := rep.Repair(in.caps, in.cfg, opg.RepairOptions{}); err != nil {
		t.Fatal(err)
	}
	p := rep.Plan()
	in.adjust(p)
	repaired, err := wirePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSamePlan(repaired, cold); err != nil {
		t.Fatalf("repaired plan rejected: %v", err)
	}
	w := &p.Weights[streamed(t, p, 1)]
	w.LoadStart--
	if w.LoadStart < 0 {
		w.LoadStart += 2
	}
	moved, err := wirePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	wantReject(t, checkSamePlan(moved, cold), "differs")
}

func TestCheckSimFloorRejectsLatencyBelowKernelTime(t *testing.T) {
	p, g, _, cfg := solved(t)
	sim, _, floor := simulate(device.OnePlus12(), cfg, &core.Prepared{Graph: g, Plan: p})
	if err := checkSimFloor(sim, floor); err != nil {
		t.Fatalf("simulated plan rejected: %v", err)
	}
	wantReject(t, checkSimFloor(floor*0.999, floor), "below the kernel-time floor")
	wantReject(t, checkSimFloor(math.NaN(), floor), "below the kernel-time floor")
}

// The wire bytes the checks compare are exactly what the server's response
// encoder emits for a plan.
func TestWirePlanMatchesServerEncoding(t *testing.T) {
	p, _, _, _ := solved(t)
	var planBuf, body bytes.Buffer
	if err := p.Encode(&planBuf); err != nil {
		t.Fatal(err)
	}
	resp := server.PlanResponse{Device: "OnePlus 12", Model: "ViT", Source: "warm", Plan: json.RawMessage(planBuf.Bytes())}
	if err := json.NewEncoder(&body).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	head, plan, err := splitResponse(body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want, err := wirePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plan, want) || !hasField(head, "source", "warm") {
		t.Fatalf("split response does not carry the plan's wire bytes")
	}
}

func keySequence(seed uint64, n int) []int {
	k := newKeyRounds(seed, 44)
	out := make([]int, n)
	for i := range out {
		out[i] = k.next(i)
	}
	return out
}

func TestKeyOrderSeeded(t *testing.T) {
	a, b, c := keySequence(1, 132), keySequence(1, 132), keySequence(2, 132)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different key order")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds, same key order")
	}
	for r := 0; r < 3; r++ { // every round requests every key once
		round := slices.Clone(a[r*44 : (r+1)*44])
		slices.Sort(round)
		for i, k := range round {
			if k != i {
				t.Fatalf("round %d is not a permutation of the 44 keys", r)
			}
		}
	}
}

func churnRounds(seed uint64, n int) [][]churnState {
	g := newChurnGen(seed, len(churnLineages()))
	out := make([][]churnState, n)
	for i := range out {
		out[i] = g.round()
	}
	return out
}

func TestChurnSequenceSeeded(t *testing.T) {
	a, b, c := churnRounds(1, 3), churnRounds(1, 3), churnRounds(2, 3)
	for r := range a {
		if !slices.Equal(a[r], b[r]) {
			t.Fatal("same seed, different churn sequence")
		}
	}
	if slices.Equal(a[0], c[0]) {
		t.Fatal("different seeds, same churn sequence")
	}
}

// Every round holds, per lineage, seven budget steps and two thermal
// transitions (one a return to a state visited earlier in the round) over
// the same eight states, whatever the seed.
func TestChurnRoundMix(t *testing.T) {
	ls := churnLineages()
	for seed := uint64(1); seed <= 5; seed++ {
		last := make([]churnState, len(ls))
		for lin := range last {
			last[lin] = churnState{lin, firstSightMB, 0}
		}
		for _, round := range churnRounds(seed, 4) {
			budget := make([]int, len(ls))
			thermal := make([]int, len(ls))
			returned := make([]bool, len(ls))
			seen := map[churnState]bool{}
			for _, s := range round {
				prev := last[s.lin]
				switch {
				case s.throttle != prev.throttle && s.mpeakMB == prev.mpeakMB:
					thermal[s.lin]++
					if seen[s] {
						returned[s.lin] = true
					}
				case s.throttle == prev.throttle && s.mpeakMB != prev.mpeakMB:
					budget[s.lin]++
				default:
					t.Fatalf("seed %d: event %v after %v is neither a budget step nor a thermal transition", seed, s, prev)
				}
				seen[s] = true
				last[s.lin] = s
			}
			for lin := range ls {
				if budget[lin] != 7 || thermal[lin] != 2 || !returned[lin] {
					t.Fatalf("seed %d lineage %d: %d budget steps, %d thermal transitions, return=%v",
						seed, lin, budget[lin], thermal[lin], returned[lin])
				}
			}
			if len(seen) != 8*len(ls) {
				t.Fatalf("seed %d: round visits %d states, want %d", seed, len(seen), 8*len(ls))
			}
		}
	}
}
