package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchRequest drives one in-process /plan request through the handler,
// skipping the TCP stack so the numbers isolate the serving path (decode,
// key, cache, encode) rather than loopback networking.
func benchRequest(b *testing.B, h http.Handler, device, model string) *httptest.ResponseRecorder {
	body := fmt.Sprintf(`{"device":%q,"model":%q}`, device, model)
	req := httptest.NewRequest(http.MethodPost, "/plan", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

// warmServer returns a server whose cache already holds the benchmark key,
// so every measured request is a warm hit.
func warmServer(b *testing.B) (*Server, http.Handler) {
	b.Helper()
	s := New(testConfig())
	b.Cleanup(s.Close)
	h := s.Handler()
	benchRequest(b, h, "OnePlus 12", "ViT") // cold solve, outside timing
	return s, h
}

// BenchmarkPlanServeWarm is the repo's request-driven serving benchmark:
// sustained plan-requests/sec against a warm cache, with the p99 request
// latency reported alongside. Compare against BenchmarkPlanServeColdSolve
// for the cache's latency win.
func BenchmarkPlanServeWarm(b *testing.B) {
	_, h := warmServer(b)
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		benchRequest(b, h, "OnePlus 12", "ViT")
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100])/1e3, "p99-us")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
}

// BenchmarkPlanServeWarmParallel is the same path under GOMAXPROCS client
// concurrency — the sustained-throughput shape of a fleet hammering one
// warm key. Scheduling-dependent, so the bench gate treats it as advisory.
func BenchmarkPlanServeWarmParallel(b *testing.B) {
	_, h := warmServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchRequest(b, h, "OnePlus 12", "ViT")
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
}

// BenchmarkPlanServeColdSolve measures the miss path end to end: a fresh
// server (empty cache) solving ViT through the queue and worker pool. The
// gap between this and BenchmarkPlanServeWarm is the cache's win.
func BenchmarkPlanServeColdSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(testConfig())
		h := s.Handler()
		b.StartTimer()
		benchRequest(b, h, "OnePlus 12", "ViT")
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}
