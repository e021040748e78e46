package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	flashmem "repro"
	"repro/internal/faultinject"
	"repro/internal/opg"
)

// postRaw issues one POST and returns the status and the body as written.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s body: %v", path, err)
	}
	return resp.StatusCode, raw
}

// compactPlan compacts a plan's Encode output the way encoding/json
// compacts a json.RawMessage field: the plan bytes a response carried when
// the server encoded every plan per request.
func compactPlan(t *testing.T, encoded []byte) []byte {
	t.Helper()
	out, err := json.Marshal(json.RawMessage(encoded))
	if err != nil {
		t.Fatalf("compact plan: %v", err)
	}
	return out
}

// TestResponseBodiesMatchEncoder: every kind of success response — warm,
// cached, solved, collapsed, degraded, and /replan — is written byte for
// byte as json.NewEncoder(w).Encode would write the same response with
// Plan set to the plan's compact bytes. Splicing stored plan bytes into a
// separately marshalled envelope is invisible to clients.
func TestResponseBodiesMatchEncoder(t *testing.T) {
	const vitBody = `{"device":"OnePlus 12","model":"ViT"}`
	fleet := newFleet()
	vit := compactPlan(t, directPlan(t, fleet, flashmem.OnePlus12(), "ViT"))
	snap := filepath.Join(t.TempDir(), "fleet.json")
	if err := fleet.Cache().Save(snap); err != nil {
		t.Fatal(err)
	}

	// serveTwice answers the ViT request twice on a fresh server: a solve,
	// then a hit on the plan it cached.
	serveTwice := func(t *testing.T) (solved, cached []byte) {
		s := New(testConfig())
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		_, solved = postRaw(t, ts, "/plan", vitBody)
		_, cached = postRaw(t, ts, "/plan", vitBody)
		return solved, cached
	}

	cases := []struct {
		name   string
		source string
		reason string // degraded_reason, degraded responses only
		replan bool
		serve  func(t *testing.T) (body, plan []byte)
	}{
		{name: "warm", source: "warm", serve: func(t *testing.T) ([]byte, []byte) {
			s := New(testConfig())
			defer s.Close()
			if _, err := s.LoadSnapshots(snap); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			postRaw(t, ts, "/plan", vitBody) // the hit that encodes and keeps the bytes
			_, body := postRaw(t, ts, "/plan", vitBody)
			return body, vit
		}},
		{name: "cached", source: "cached", serve: func(t *testing.T) ([]byte, []byte) {
			_, cached := serveTwice(t)
			return cached, vit
		}},
		{name: "solved", source: "solved", serve: func(t *testing.T) ([]byte, []byte) {
			solved, _ := serveTwice(t)
			return solved, vit
		}},
		{name: "collapsed", source: "collapsed", serve: func(t *testing.T) ([]byte, []byte) {
			cfg := testConfig()
			cfg.Workers = 1
			s := New(cfg)
			defer s.Close()
			hold := make(chan struct{})
			s.holdSolves = hold
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			bodies := make([][]byte, 2)
			var wg sync.WaitGroup
			for i := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, bodies[i] = postRaw(t, ts, "/plan", vitBody)
				}()
			}
			waitStats(t, s, "1 in-flight solve with 2 waiters", func(st StatsSnapshot) bool {
				return st.InFlight == 1 && st.Waiting == 2
			})
			close(hold)
			wg.Wait()
			for _, b := range bodies {
				if bytes.Contains(b, []byte(`"source":"collapsed"`)) {
					return b, vit
				}
			}
			t.Fatalf("no collapsed response among %q", bodies)
			return nil, nil
		}},
		{name: "degraded", source: "degraded", reason: codeSolveFailed, serve: func(t *testing.T) ([]byte, []byte) {
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
			postRaw(t, ts, "/plan", vitBody)
			postRaw(t, ts, "/plan", `{"device":"OnePlus 12","model":"ResNet"}`)
			_, body := postRaw(t, ts, "/plan", vitBody) // evicted, re-solve fails
			return body, vit
		}},
		{name: "replan", source: opg.RungCold, replan: true, serve: func(t *testing.T) ([]byte, []byte) {
			s := New(testConfig())
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			_, body := postRaw(t, ts, "/replan", `{"device":"OnePlus 12","model":"ViT","throttle":1,"config":{"mpeak_mb":300}}`)
			var rr ReplanResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatalf("decode /replan body: %v", err)
			}
			return body, compactPlan(t, canonicalPlan(t, rr.Plan))
		}},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body, plan := c.serve(t)
			var (
				source, reason string
				resp           any
			)
			if c.replan {
				var rr ReplanResponse
				if err := json.Unmarshal(body, &rr); err != nil {
					t.Fatalf("decode body: %v\n%s", err, body)
				}
				source, rr.Plan, resp = rr.Source, plan, &rr
			} else {
				var pr PlanResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Fatalf("decode body: %v\n%s", err, body)
				}
				source, reason, pr.Plan, resp = pr.Source, pr.DegradedReason, plan, &pr
			}
			if source != c.source || reason != c.reason {
				t.Fatalf("source %q reason %q, want %q %q", source, reason, c.source, c.reason)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Errorf("body differs from the encoder's output:\n got %.300s\nwant %.300s", body, want.Bytes())
			}
		})
	}
}

// TestWarmHitAllocations guards what a warm hit costs: a /plan hit for
// Whisper-M, the zoo's largest graph (2,026 nodes), must neither re-hash
// the graph (over 20,000 allocations for this model) nor re-encode the
// plan. The whole hit, request and recorder included, stays under 200.
func TestWarmHitAllocations(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	h := s.Handler()
	serve := func() int {
		req := httptest.NewRequest(http.MethodPost, "/plan", strings.NewReader(`{"device":"OnePlus 12","model":"Whisper-M"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := serve(); code != http.StatusOK { // the solve
		t.Fatalf("cold request: status %d", code)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if code := serve(); code != http.StatusOK {
			t.Fatalf("warm request: status %d", code)
		}
	})
	t.Logf("%.0f allocations per warm hit", allocs)
	if allocs > 200 {
		t.Errorf("warm Whisper-M hit made %.0f allocations, want at most 200", allocs)
	}
}
