package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	flashmem "repro"
	"repro/internal/opg"
)

// testSolver is the deterministic solver configuration shared by the
// server under test and the direct flashmem solves it is compared against:
// a generous wall clock with a binding branch budget, like CI's sharded
// matrix.
func testSolver() opg.Config {
	cfg := opg.DefaultConfig()
	cfg.SolveTimeout = 5 * time.Second
	cfg.MaxBranches = 500
	return cfg
}

func testConfig() Config {
	return Config{Solver: testSolver()}
}

// directPlan solves (device, model) through the public API with the same
// configuration as testSolver and returns the plan's canonical encoding.
func directPlan(t *testing.T, fleet *flashmem.Fleet, dev flashmem.Device, abbr string) []byte {
	t.Helper()
	m, err := fleet.Load(dev, abbr)
	if err != nil {
		t.Fatalf("direct %s on %s: %v", abbr, dev.Name, err)
	}
	var buf bytes.Buffer
	if err := m.EncodePlan(&buf); err != nil {
		t.Fatalf("encode direct plan: %v", err)
	}
	return buf.Bytes()
}

func newFleet() *flashmem.Fleet {
	return flashmem.NewFleet(nil, flashmem.WithSolverBudget(5*time.Second, 500))
}

// canonicalPlan round-trips a served plan through the wire format. A
// response carries the plan's compact form (opg.Plan.Wire), so
// byte-identity against a direct solve is checked on the canonical Encode
// form, which is deterministic per plan.
func canonicalPlan(t *testing.T, raw []byte) []byte {
	t.Helper()
	p, err := opg.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode served plan: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatalf("re-encode served plan: %v", err)
	}
	return buf.Bytes()
}

// postPlan issues one /plan request and decodes the result.
func postPlan(t *testing.T, ts *httptest.Server, device, model string) (int, PlanResponse, http.Header) {
	t.Helper()
	body := fmt.Sprintf(`{"device":%q,"model":%q}`, device, model)
	resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /plan: %v", err)
	}
	defer resp.Body.Close()
	var pr PlanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatalf("decode /plan response: %v", err)
		}
	}
	return resp.StatusCode, pr, resp.Header
}

// waitStats polls the server's counters until cond holds or the deadline
// passes — the deterministic alternative to sleeping in concurrency tests.
func waitStats(t *testing.T, s *Server, what string, cond func(StatsSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Stats()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats: %+v", what, s.Stats())
}

// TestServeWarmSnapshot is the fleet-warming path: a snapshot produced by
// direct public-API solves boots the server warm, and the served plans are
// byte-identical to the direct solves that produced them.
func TestServeWarmSnapshot(t *testing.T) {
	fleet := newFleet()
	cells := []struct {
		dev  flashmem.Device
		abbr string
	}{
		{flashmem.OnePlus12(), "ViT"},
		{flashmem.XiaomiMi6(), "ResNet"},
	}
	want := make(map[string][]byte)
	for _, c := range cells {
		want[c.dev.Name+"/"+c.abbr] = directPlan(t, fleet, c.dev, c.abbr)
	}
	snap := filepath.Join(t.TempDir(), "fleet.json")
	if err := fleet.Cache().Save(snap); err != nil {
		t.Fatal(err)
	}

	s := New(testConfig())
	defer s.Close()
	stats, err := s.LoadSnapshots(snap)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != len(cells) || s.WarmPlans() != len(cells) {
		t.Fatalf("loaded %d plans, %d warm, want %d", stats.Loaded, s.WarmPlans(), len(cells))
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, c := range cells {
		code, pr, _ := postPlan(t, ts, c.dev.Name, c.abbr)
		if code != http.StatusOK {
			t.Fatalf("%s/%s: status %d", c.dev.Name, c.abbr, code)
		}
		if pr.Source != "warm" || !pr.FromCache {
			t.Errorf("%s/%s: source %q fromCache %v, want warm hit", c.dev.Name, c.abbr, pr.Source, pr.FromCache)
		}
		if !bytes.Equal(canonicalPlan(t, pr.Plan), want[c.dev.Name+"/"+c.abbr]) {
			t.Errorf("%s/%s: served plan differs from direct solve", c.dev.Name, c.abbr)
		}
	}
	st := s.Stats()
	if st.WarmHits != int64(len(cells)) || st.Solves != 0 || st.SolveLatency.Count != 0 {
		t.Errorf("warm serving ran solves: %+v", st)
	}

	// Liveness endpoint reports the warm fleet.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.WarmPlans != len(cells) {
		t.Errorf("healthz = %+v", h)
	}
}

// TestConcurrentMultiDeviceServing is the concurrent fleet-serving
// contract under the race detector: N goroutines × M device profiles
// hammer a cold server; every key is solved exactly once (singleflight +
// cache), and every response carries a plan byte-identical to a direct
// public-API solve of the same key.
func TestConcurrentMultiDeviceServing(t *testing.T) {
	devices := []flashmem.Device{flashmem.OnePlus12(), flashmem.XiaomiMi6()}
	abbrs := []string{"ViT", "ResNet"}
	const goroutinesPerCell = 4

	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		cell string
		code int
		resp PlanResponse
	}
	var wg sync.WaitGroup
	results := make(chan result, len(devices)*len(abbrs)*goroutinesPerCell)
	for _, dev := range devices {
		for _, abbr := range abbrs {
			for g := 0; g < goroutinesPerCell; g++ {
				wg.Add(1)
				go func(devName, abbr string) {
					defer wg.Done()
					code, pr, _ := postPlan(t, ts, devName, abbr)
					results <- result{cell: devName + "/" + abbr, code: code, resp: pr}
				}(dev.Name, abbr)
			}
		}
	}
	wg.Wait()
	close(results)

	byCell := make(map[string][][]byte)
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("%s: status %d", r.cell, r.code)
		}
		byCell[r.cell] = append(byCell[r.cell], canonicalPlan(t, r.resp.Plan))
	}

	fleet := newFleet()
	for _, dev := range devices {
		for _, abbr := range abbrs {
			cell := dev.Name + "/" + abbr
			want := directPlan(t, fleet, dev, abbr)
			if len(byCell[cell]) != goroutinesPerCell {
				t.Fatalf("%s: %d responses, want %d", cell, len(byCell[cell]), goroutinesPerCell)
			}
			for i, got := range byCell[cell] {
				if !bytes.Equal(got, want) {
					t.Errorf("%s response %d: served plan differs from direct solve", cell, i)
				}
			}
		}
	}

	st := s.Stats()
	keys := int64(len(devices) * len(abbrs))
	total := keys * goroutinesPerCell
	if st.SolveLatency.Count != keys {
		t.Errorf("ran %d solves, want exactly %d (one per key)", st.SolveLatency.Count, keys)
	}
	if st.Requests != total {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
	if got := st.WarmHits + st.Hits + st.Collapsed + st.Solves; got != total {
		t.Errorf("served accounting %d (warm %d + hits %d + collapsed %d + solves %d) != requests %d",
			got, st.WarmHits, st.Hits, st.Collapsed, st.Solves, total)
	}
	if st.WarmHits != 0 {
		t.Errorf("cold server reported %d warm hits", st.WarmHits)
	}
}

// TestSingleflightCollapse pins the exact collapse accounting: with the
// solve held, every concurrent duplicate request must park on the one
// in-flight call, and releasing it serves them all from a single solve.
func TestSingleflightCollapse(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := New(cfg)
	defer s.Close()
	hold := make(chan struct{})
	s.holdSolves = hold
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 6
	codes := make(chan int, clients)
	sources := make(chan string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, pr, _ := postPlan(t, ts, "OnePlus 12", "ViT")
			codes <- code
			sources <- pr.Source
		}()
	}

	// All clients are now either the leader or collapsed onto it; the one
	// worker holds the solve, so the state below is stable, not a race.
	waitStats(t, s, "1 in-flight solve with 6 waiters", func(st StatsSnapshot) bool {
		return st.InFlight == 1 && st.Waiting == clients
	})
	close(hold)
	wg.Wait()
	close(codes)
	close(sources)

	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	var solved, collapsed int
	for src := range sources {
		switch src {
		case "solved":
			solved++
		case "collapsed":
			collapsed++
		default:
			t.Errorf("unexpected source %q", src)
		}
	}
	if solved != 1 || collapsed != clients-1 {
		t.Errorf("solved %d / collapsed %d, want 1 / %d", solved, collapsed, clients-1)
	}
	st := s.Stats()
	if st.Solves != 1 || st.Collapsed != clients-1 || st.SolveLatency.Count != 1 {
		t.Errorf("stats %+v, want exactly one solve and %d collapses", st, clients-1)
	}
}

// TestAdmissionControl pins the queue-depth cap: worker busy + queue full
// ⇒ 429 with a Retry-After hint, and the rejected request does not
// poison later service.
func TestAdmissionControl(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.RetryAfter = 2 * time.Second
	s := New(cfg)
	defer s.Close()
	hold := make(chan struct{})
	s.holdSolves = hold
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	issue := func(model string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _ := postPlan(t, ts, "OnePlus 12", model)
			if code != http.StatusOK {
				t.Errorf("%s: status %d, want 200 after release", model, code)
			}
		}()
	}
	issue("ViT")
	waitStats(t, s, "worker occupied", func(st StatsSnapshot) bool {
		return st.InFlight == 1 && st.QueueDepth == 0
	})
	issue("ResNet")
	waitStats(t, s, "queue full", func(st StatsSnapshot) bool { return st.QueueDepth == 1 })

	code, _, hdr := postPlan(t, ts, "OnePlus 12", "DeepViT")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-admission status %d, want 429", code)
	}
	if hdr.Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", hdr.Get("Retry-After"))
	}
	close(hold)
	wg.Wait()
	st := s.Stats()
	if st.Rejected != 1 || st.Solves != 2 {
		t.Errorf("rejected %d solves %d, want 1 and 2", st.Rejected, st.Solves)
	}
}

// TestSolveTimeout pins the per-request solve timeout: the request answers
// 504 while the solve finishes in the background and warms the cache for
// the retry.
func TestSolveTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.SolveTimeout = 50 * time.Millisecond
	s := New(cfg)
	defer s.Close()
	hold := make(chan struct{})
	s.holdSolves = hold
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, hdr := postPlan(t, ts, "OnePlus 12", "ViT")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("504 without Retry-After")
	}
	close(hold)
	waitStats(t, s, "background solve to land in cache", func(st StatsSnapshot) bool {
		return st.Cache.Entries == 1
	})
	code, pr, _ := postPlan(t, ts, "OnePlus 12", "ViT")
	if code != http.StatusOK || pr.Source != "cached" {
		t.Fatalf("retry: status %d source %q, want cached hit", code, pr.Source)
	}
	if st := s.Stats(); st.TimedOut != 1 {
		t.Errorf("timedOut = %d, want 1", st.TimedOut)
	}
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get, err := http.Get(ts.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /plan: %d, want 405", get.StatusCode)
	}

	for name, body := range map[string]string{
		"malformed json": `{"device":`,
		"unknown device": `{"device":"Nokia 3310","model":"ViT"}`,
		"unknown model":  `{"device":"OnePlus 12","model":"GPT-9"}`,
		"bad lambda":     `{"device":"OnePlus 12","model":"ViT","config":{"lambda":2.0}}`,
		"bad chunk":      `{"device":"OnePlus 12","model":"ViT","config":{"chunk_kb":-1}}`,
	} {
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.BadRequests != 6 {
		t.Errorf("badRequests = %d, want 6", st.BadRequests)
	}
}

// TestSolverOverridesSaltKey: a per-request config override must produce a
// different plan key (and so a different cache entry) than the default.
func TestSolverOverridesSaltKey(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, base, _ := postPlan(t, ts, "OnePlus 12", "ViT")
	body := `{"device":"OnePlus 12","model":"ViT","config":{"mpeak_mb":300}}`
	resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Key == base.Key {
		t.Error("mpeak override did not change the plan key")
	}
	if pr.Source != "solved" {
		t.Errorf("override served %q, want a fresh solve", pr.Source)
	}
}

// TestWarmP99MuchLessThanColdSolve is the acceptance criterion in test
// form: the p99 of warm-cache request latency must sit far below the cold
// solve latency for the same key.
func TestWarmP99MuchLessThanColdSolve(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t0 := time.Now()
	code, pr, _ := postPlan(t, ts, "OnePlus 12", "GPTN-S")
	cold := time.Since(t0)
	if code != http.StatusOK || pr.Source != "solved" {
		t.Fatalf("cold request: status %d source %q", code, pr.Source)
	}

	const warmRequests = 100
	lat := make([]time.Duration, 0, warmRequests)
	for i := 0; i < warmRequests; i++ {
		w0 := time.Now()
		code, pr, _ := postPlan(t, ts, "OnePlus 12", "GPTN-S")
		lat = append(lat, time.Since(w0))
		if code != http.StatusOK || pr.Source != "cached" {
			t.Fatalf("warm request %d: status %d source %q", i, code, pr.Source)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	t.Logf("cold solve %v, warm p99 %v (%.0fx)", cold, p99, float64(cold)/float64(p99))
	if p99*3 >= cold {
		t.Errorf("warm p99 %v is not ≪ cold solve latency %v", p99, cold)
	}
}

// TestHistogramQuantiles sanity-checks the bucketed quantile math.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 0; i < 99; i++ {
		h.observe(10 * time.Microsecond) // first bucket (≤64µs)
	}
	h.observe(2 * time.Second) // deep bucket
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if got := s.P50MS; got != 0.064 {
		t.Errorf("p50 = %vms, want 0.064", got)
	}
	if s.P99MS >= s.BoundsMS[len(s.BoundsMS)-1]*4+1 || s.P99MS < 0.064 {
		t.Errorf("p99 = %vms out of range", s.P99MS)
	}
	if s.MeanMS <= 0 {
		t.Error("mean not recorded")
	}
}
