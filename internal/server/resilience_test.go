package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/plancache"
)

// postPlanErr issues one /plan request and decodes the error body.
func postPlanErr(t *testing.T, ts *httptest.Server, device, model string) (int, errorResponse, http.Header) {
	t.Helper()
	body := `{"device":"` + device + `","model":"` + model + `"}`
	resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /plan: %v", err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("decode error body: %v", err)
		}
	}
	return resp.StatusCode, er, resp.Header
}

// TestErrorResponseTable pins the whole error surface of fail/retryFail:
// every status the server emits carries a machine-readable code, and every
// retryable status — 429, 503, and critically 504 — carries Retry-After.
func TestErrorResponseTable(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	cases := []struct {
		name      string
		status    int
		retryable bool
		code      string
	}{
		{"method not allowed", http.StatusMethodNotAllowed, false, codeMethodNotAllowed},
		{"bad request", http.StatusBadRequest, false, codeBadRequest},
		{"queue full", http.StatusTooManyRequests, true, codeQueueFull},
		{"circuit open", http.StatusServiceUnavailable, true, codeCircuitOpen},
		{"shutting down", http.StatusServiceUnavailable, true, codeShuttingDown},
		{"solve timeout", http.StatusGatewayTimeout, true, codeSolveTimeout},
		{"solve failed", http.StatusInternalServerError, false, codeSolveFailed},
		{"internal", http.StatusInternalServerError, false, codeInternal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.fail(rec, time.Now(), tc.status, tc.retryable, tc.code, "boom")
			if rec.Code != tc.status {
				t.Errorf("status %d, want %d", rec.Code, tc.status)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("body %q is not JSON: %v", rec.Body.String(), err)
			}
			if er.Code != tc.code {
				t.Errorf("code %q, want %q", er.Code, tc.code)
			}
			if er.Error == "" {
				t.Error("empty error message")
			}
			if got := rec.Header().Get("Retry-After") != ""; got != tc.retryable {
				t.Errorf("Retry-After present=%v, want %v", got, tc.retryable)
			}
		})
	}

	// The reachable 4xx paths carry the codes end to end.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/plan", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || er.Code != codeMethodNotAllowed {
		t.Errorf("GET /plan: %d %q, want 405 %q", resp.StatusCode, er.Code, codeMethodNotAllowed)
	}
	code, er2, _ := postPlanErr(t, ts, "Nokia 3310", "ViT")
	if code != http.StatusBadRequest || er2.Code != codeBadRequest {
		t.Errorf("unknown device: %d %q, want 400 %q", code, er2.Code, codeBadRequest)
	}
}

// TestSolverPanicContained: an injected solver panic must cost exactly its
// own request a 500 — never a worker goroutine. After the injected panics
// exhaust, the same server solves normally on the same worker pool.
func TestSolverPanicContained(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1 // one worker: if the panic killed it, the retry would hang
	cfg.BreakerThreshold = 100
	cfg.Injector = faultinject.New(7,
		faultinject.Rule{Site: "server.solve", Kind: faultinject.KindPanic, Rate: 1, Max: 2})
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		code, er, _ := postPlanErr(t, ts, "OnePlus 12", "ViT")
		if code != http.StatusInternalServerError || er.Code != codeSolveFailed {
			t.Fatalf("panicked solve %d: %d %q, want 500 %q", i, code, er.Code, codeSolveFailed)
		}
		if !strings.Contains(er.Error, "panic") {
			t.Errorf("error %q does not say panic", er.Error)
		}
	}
	code, pr, _ := postPlan(t, ts, "OnePlus 12", "ViT")
	if code != http.StatusOK || pr.Source != "solved" {
		t.Fatalf("post-panic solve: %d %q, want a normal solve on the surviving worker", code, pr.Source)
	}
	if st := s.Stats(); st.SolverPanics != 2 {
		t.Errorf("solver_panics = %d, want 2", st.SolverPanics)
	}
}

// TestDegradedServesLastKnownGood: a plan evicted from the hot cache but
// retained in the last-known-good store is served with source "degraded" —
// byte-identical to its original solve — when the re-solve fails, instead
// of surfacing the failure.
func TestDegradedServesLastKnownGood(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.CacheEntries = 1 // hot cache holds one plan; stale holds two
	cfg.BreakerThreshold = 100
	// The first two solves (ViT, then ResNet) succeed; everything after
	// fails — the re-solve of the evicted ViT plan among them.
	cfg.Injector = faultinject.New(11,
		faultinject.Rule{Site: "server.solve", Kind: faultinject.KindError, Rate: 1, After: 2})
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, first, _ := postPlan(t, ts, "OnePlus 12", "ViT")
	if code != http.StatusOK || first.Source != "solved" {
		t.Fatalf("ViT: %d %q", code, first.Source)
	}
	code, pr, _ := postPlan(t, ts, "OnePlus 12", "ResNet")
	if code != http.StatusOK || pr.Source != "solved" {
		t.Fatalf("ResNet: %d %q", code, pr.Source)
	}

	// ViT is now evicted from the 1-entry hot cache; its re-solve fails.
	code, again, _ := postPlan(t, ts, "OnePlus 12", "ViT")
	if code != http.StatusOK {
		t.Fatalf("degraded ViT: status %d, want 200", code)
	}
	if again.Source != "degraded" || !again.FromCache {
		t.Fatalf("source %q fromCache %v, want degraded", again.Source, again.FromCache)
	}
	if !bytes.Equal(canonicalPlan(t, again.Plan), canonicalPlan(t, first.Plan)) {
		t.Error("degraded plan differs from the original solve")
	}
	if st := s.Stats(); st.Degraded != 1 || st.SolveErrors != 0 {
		t.Errorf("stats degraded=%d solveErrors=%d, want 1 and 0", st.Degraded, st.SolveErrors)
	}
}

// TestCircuitBreakerOpensAndRecovers: consecutive solve failures open the
// breaker (503 + circuit_open + Retry-After for keys with no fallback);
// after the cooldown a probe solve closes it again.
func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 50 * time.Millisecond
	// Exactly two injected failures: enough to open the breaker, gone by
	// the time the post-cooldown probe runs.
	cfg.Injector = faultinject.New(3,
		faultinject.Rule{Site: "server.solve", Kind: faultinject.KindError, Rate: 1, Max: 2})
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, m := range []string{"ViT", "ResNet"} {
		code, er, _ := postPlanErr(t, ts, "OnePlus 12", m)
		if code != http.StatusInternalServerError || er.Code != codeSolveFailed {
			t.Fatalf("%s: %d %q, want 500 %q", m, code, er.Code, codeSolveFailed)
		}
	}
	if st := s.Stats(); st.Breaker != "open" {
		t.Fatalf("breaker %q after %d failures, want open", st.Breaker, 2)
	}

	// While open: a cold key is refused without touching the solver.
	code, er, hdr := postPlanErr(t, ts, "OnePlus 12", "DeepViT")
	if code != http.StatusServiceUnavailable || er.Code != codeCircuitOpen {
		t.Fatalf("open breaker: %d %q, want 503 %q", code, er.Code, codeCircuitOpen)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("circuit-open 503 without Retry-After")
	}

	// After the cooldown the next request is the probe; the injected
	// failures are exhausted, so it solves and closes the breaker.
	time.Sleep(2 * cfg.BreakerCooldown)
	codeOK, pr, _ := postPlan(t, ts, "OnePlus 12", "DeepViT")
	if codeOK != http.StatusOK || pr.Source != "solved" {
		t.Fatalf("probe: %d %q, want a successful solve", codeOK, pr.Source)
	}
	st := s.Stats()
	if st.Breaker != "closed" {
		t.Errorf("breaker %q after successful probe, want closed", st.Breaker)
	}
	if st.BreakerRejects != 1 {
		t.Errorf("breaker_rejects = %d, want 1", st.BreakerRejects)
	}
}

// TestPlanAfterCloseRefusedAtOnce: a cache miss whose leader arrives after
// Close has drained the solve queue must be refused immediately with 503
// shutting_down. Enqueued instead, the job would sit in a queue nobody
// drains and the request would wait out SolveTimeout and answer 504.
func TestPlanAfterCloseRefusedAtOnce(t *testing.T) {
	cfg := testConfig()
	cfg.SolveTimeout = 2 * time.Second
	s := New(cfg)
	s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t0 := time.Now()
	code, er, hdr := postPlanErr(t, ts, "OnePlus 12", "ViT")
	if code != http.StatusServiceUnavailable || er.Code != codeShuttingDown {
		t.Fatalf("/plan after Close: %d %q, want 503 %q", code, er.Code, codeShuttingDown)
	}
	if el := time.Since(t0); el >= cfg.SolveTimeout {
		t.Fatalf("refusal took %v: the request waited out SolveTimeout", el)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 shutting_down without Retry-After")
	}
	if st := s.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue depth %d after a refused admission, want 0", st.QueueDepth)
	}
}

// TestGracefulShutdownPersistsCompletedSolves is the satellite contract:
// shutdown racing in-flight solves must produce a snapshot containing
// every solve that completed (was served 200) before Close returned —
// run under -race in CI, where the hold/Close interleaving is genuinely
// concurrent.
func TestGracefulShutdownPersistsCompletedSolves(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	s := New(cfg)
	hold := make(chan struct{})
	s.holdSolves = hold
	ts := httptest.NewServer(s.Handler())

	models := []string{"ViT", "ResNet", "DeepViT", "GPTN-S"}
	type outcome struct {
		code int
		key  string
	}
	results := make(chan outcome, len(models))
	var wg sync.WaitGroup
	for _, m := range models {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			code, pr, _ := postPlan(t, ts, "OnePlus 12", m)
			results <- outcome{code, pr.Key}
		}(m)
	}
	waitStats(t, s, "solves in flight", func(st StatsSnapshot) bool {
		return st.InFlight+st.QueueDepth >= 1
	})

	// The race: solves release while shutdown is already under way.
	go close(hold)
	s.Close()
	wg.Wait()
	ts.Close()
	close(results)

	snap := filepath.Join(t.TempDir(), "shutdown.json")
	if err := s.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	loaded := plancache.New(0)
	if err := loaded.Load(snap); err != nil {
		t.Fatal(err)
	}

	served := 0
	for r := range results {
		switch r.code {
		case http.StatusOK:
			served++
			if _, ok := loaded.Get(r.key); !ok {
				t.Errorf("plan %s was served 200 before shutdown but is missing from the snapshot", r.key)
			}
		case http.StatusServiceUnavailable:
			// Cut off by shutdown — allowed to be absent.
		default:
			t.Errorf("unexpected status %d during shutdown", r.code)
		}
	}
	t.Logf("%d of %d solves completed before shutdown; snapshot has %d plans",
		served, len(models), loaded.Len())
}
