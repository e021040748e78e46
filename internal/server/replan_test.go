package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/units"
)

// postReplan issues one /replan request and decodes the result.
func postReplan(t *testing.T, ts *httptest.Server, body string) (int, ReplanResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/replan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /replan: %v", err)
	}
	defer resp.Body.Close()
	var rr ReplanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decode /replan response: %v", err)
		}
	}
	return resp.StatusCode, rr
}

// replanPlanValid decodes a served /replan plan and re-validates it against
// the device state the request described — the client-side version of the
// invariant the server enforces before serving.
func replanPlanValid(t *testing.T, s *Server, rr ReplanResponse, throttle int, mpeak units.Bytes) {
	t.Helper()
	p, err := opg.Decode(bytes.NewReader(rr.Plan))
	if err != nil {
		t.Fatalf("decode served plan: %v", err)
	}
	dev, _ := device.ByName(rr.Device)
	spec, _ := models.ByAbbr(rr.Model)
	g := s.fusedGraphFor(spec)
	caps := profiler.AnalyticCapacityFunc(power.Throttle(dev, throttle))
	cfg := s.cfg.Solver
	cfg.MPeak = mpeak
	if err := p.Validate(g, caps, cfg); err != nil {
		t.Fatalf("served %s plan invalid for throttle=%d mpeak=%v: %v", rr.Source, throttle, mpeak, err)
	}
}

// TestReplanRepairsAcrossChurn walks one lineage through a load, a budget
// drop, and a thermal transition: first sight solves cold, every
// subsequent churn event is absorbed by incremental repair, and each
// served plan is valid for the state it was requested under.
func TestReplanRepairsAcrossChurn(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, rr := postReplan(t, ts, `{"device":"OnePlus 12","model":"ViT"}`)
	if code != http.StatusOK || rr.Source != opg.RungCold {
		t.Fatalf("first sight: %d %q, want 200 cold", code, rr.Source)
	}
	replanPlanValid(t, s, rr, 0, s.cfg.Solver.MPeak)

	code, rr = postReplan(t, ts, `{"device":"OnePlus 12","model":"ViT","config":{"mpeak_mb":300}}`)
	if code != http.StatusOK || rr.Source != opg.RungRepaired {
		t.Fatalf("budget drop: %d %q, want 200 repaired", code, rr.Source)
	}
	if rr.Repair.WindowsKept+rr.Repair.WindowsResolved == 0 {
		t.Fatal("repair reports no windows")
	}
	replanPlanValid(t, s, rr, 0, 300*units.MB)

	code, rr = postReplan(t, ts, `{"device":"OnePlus 12","model":"ViT","throttle":2,"config":{"mpeak_mb":300}}`)
	if code != http.StatusOK || rr.Source != opg.RungRepaired {
		t.Fatalf("throttle: %d %q, want 200 repaired", code, rr.Source)
	}
	replanPlanValid(t, s, rr, 2, 300*units.MB)

	st := s.Stats()
	if st.Replan.Requests != 3 || st.Replan.Cold != 1 || st.Replan.Repaired != 2 {
		t.Fatalf("replan stats = %+v, want 3 requests / 1 cold / 2 repaired", st.Replan)
	}
	if st.Replan.Lineages != 1 {
		t.Fatalf("lineages = %d, want 1 (same lineage for all three)", st.Replan.Lineages)
	}
}

// TestReplanCapacityTableMatchesCostModel: the tabulated capacities /replan
// repairs and validates against must equal the cost model's for every
// layer at every thermal level, including levels past the clamp.
func TestReplanCapacityTableMatchesCostModel(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	dev := device.OnePlus12()
	spec := models.MustByAbbr("ViT")
	g := s.fusedGraphFor(spec)
	for level := 0; level <= power.MaxThrottleLevel+2; level++ {
		table := s.capacityFor(dev, level, spec, g)
		analytic := profiler.AnalyticCapacityFunc(power.Throttle(dev, level))
		for _, n := range g.Nodes() {
			if got, want := table(n), analytic(n); got != want {
				t.Fatalf("level %d node %d: tabulated capacity %v, cost model %v", level, n.ID, got, want)
			}
		}
	}
}

// TestReplanDegradesToPatchThenRecovers forces every repair to miss its
// latency budget with no cached variant available: the ladder must land on
// the greedy patch, label it, and cold-solve the next request (a patched
// lineage is stale).
func TestReplanDegradesToPatchThenRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.RepairBudget = time.Nanosecond
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, rr := postReplan(t, ts, `{"device":"OnePlus 12","model":"ViT"}`)
	if code != http.StatusOK || rr.Source != opg.RungCold {
		t.Fatalf("first sight: %d %q", code, rr.Source)
	}
	code, rr = postReplan(t, ts, `{"device":"OnePlus 12","model":"ViT","config":{"mpeak_mb":300}}`)
	if code != http.StatusOK || rr.Source != opg.RungPatched {
		t.Fatalf("budget drop under 1ns repair budget: %d %q, want patched", code, rr.Source)
	}
	replanPlanValid(t, s, rr, 0, 300*units.MB)

	code, rr = postReplan(t, ts, `{"device":"OnePlus 12","model":"ViT","config":{"mpeak_mb":300}}`)
	if code != http.StatusOK || rr.Source != opg.RungCold {
		t.Fatalf("post-patch request: %d %q, want cold (stale lineage)", code, rr.Source)
	}
	st := s.Stats()
	if st.Replan.Patched != 1 || st.Replan.Cold != 2 {
		t.Fatalf("replan stats = %+v, want 1 patched / 2 cold", st.Replan)
	}
}

// TestReplanServesCachedVariant: with repair over budget but a cached plan
// already valid for the new state, the ladder serves the cached variant
// instead of degrading all the way to the patch.
func TestReplanServesCachedVariant(t *testing.T) {
	cfg := testConfig()
	cfg.RepairBudget = time.Nanosecond
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed the plan cache with a plan solved for exactly the post-drop
	// state, on the same fused graph /replan lineages use.
	spec, _ := models.ByAbbr("ViT")
	g := s.fusedGraphFor(spec)
	low := s.cfg.Solver
	low.MPeak = 300 * units.MB
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	s.Cache().Put("vit-300", &core.Prepared{Graph: g, Plan: opg.SolveRepairable(g, caps, low).Plan()})

	if code, rr := postReplan(t, ts, `{"device":"OnePlus 12","model":"ViT"}`); code != http.StatusOK || rr.Source != opg.RungCold {
		t.Fatalf("first sight: %d %q", code, rr.Source)
	}
	code, rr := postReplan(t, ts, `{"device":"OnePlus 12","model":"ViT","config":{"mpeak_mb":300}}`)
	if code != http.StatusOK || rr.Source != opg.RungCachedVariant {
		t.Fatalf("budget drop: %d %q, want cached_variant", code, rr.Source)
	}
	replanPlanValid(t, s, rr, 0, 300*units.MB)
	if st := s.Stats(); st.Replan.CachedVariant != 1 {
		t.Fatalf("replan stats = %+v, want 1 cached_variant", st.Replan)
	}
}

// TestReplanBadRequests covers the /replan validation surface.
func TestReplanBadRequests(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"unknown device", `{"device":"Nokia 3310","model":"ViT"}`},
		{"unknown model", `{"device":"OnePlus 12","model":"GPT-9"}`},
		{"negative throttle", `{"device":"OnePlus 12","model":"ViT","throttle":-1}`},
		{"bad config", `{"device":"OnePlus 12","model":"ViT","config":{"mpeak_mb":-5}}`},
	} {
		code, _ := postReplan(t, ts, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Malformed traffic must not inflate the /statsz repair block: only
	// requests that resolve to a ladder walk count, so the per-rung
	// counters always sum to requests.
	if st := s.Stats(); st.Replan.Requests != 0 {
		t.Fatalf("replan requests = %d after only bad requests, want 0", st.Replan.Requests)
	}
}

// TestReplanStoreSkipsBusyEviction: at the bound, acquire must not evict a
// lineage whose ladder is mid-walk — doing so would let a concurrent
// request for the same key duplicate the cold solve. It evicts the oldest
// idle lineage instead, and temporarily exceeds the bound when every
// lineage is busy.
func TestReplanStoreSkipsBusyEviction(t *testing.T) {
	st := newReplanStore(2)
	a := st.acquire("a")
	st.acquire("b")

	a.mu.Lock()
	st.acquire("c") // must evict idle "b", not busy "a"
	if got := st.acquire("a"); got != a {
		t.Fatal("busy lineage was evicted at the bound")
	}
	if st.Len() != 2 {
		t.Fatalf("store len = %d, want 2", st.Len())
	}

	// Everything busy: the bound is exceeded rather than evicting mid-walk.
	c := st.acquire("c")
	c.mu.Lock()
	st.acquire("d")
	if got := st.acquire("a"); got != a {
		t.Fatal("busy lineage was evicted while all lineages were busy")
	}
	if st.Len() != 3 {
		t.Fatalf("store len = %d, want 3 (bound exceeded, nothing evictable)", st.Len())
	}
	a.mu.Unlock()
	c.mu.Unlock()
}

// TestDegradedReasonLabeled: a degraded /plan response names the failure
// it papered over, and /statsz carries the per-reason breakdown.
func TestDegradedReasonLabeled(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.CacheEntries = 1
	cfg.BreakerThreshold = 100
	cfg.Injector = faultinject.New(11,
		faultinject.Rule{Site: "server.solve", Kind: faultinject.KindError, Rate: 1, After: 2})
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, pr, _ := postPlan(t, ts, "OnePlus 12", "ViT"); code != http.StatusOK || pr.DegradedReason != "" {
		t.Fatalf("healthy serve: %d, degraded_reason %q (want empty)", code, pr.DegradedReason)
	}
	if code, _, _ := postPlan(t, ts, "OnePlus 12", "ResNet"); code != http.StatusOK {
		t.Fatalf("ResNet solve failed: %d", code)
	}

	// ViT is evicted from the 1-entry hot cache; its re-solve fails, so the
	// stale plan is served with the reason attached.
	code, pr, _ := postPlan(t, ts, "OnePlus 12", "ViT")
	if code != http.StatusOK || pr.Source != "degraded" {
		t.Fatalf("degraded serve: %d %q", code, pr.Source)
	}
	if pr.DegradedReason != codeSolveFailed {
		t.Fatalf("degraded_reason = %q, want %q", pr.DegradedReason, codeSolveFailed)
	}
	st := s.Stats()
	if st.DegradedReasons[codeSolveFailed] != 1 {
		t.Fatalf("stats degraded_reasons = %v, want %s:1", st.DegradedReasons, codeSolveFailed)
	}
	if sum := fmt.Sprint(st.DegradedReasons); st.Degraded != 1 {
		t.Fatalf("degraded = %d (%s), want 1", st.Degraded, sum)
	}
}
