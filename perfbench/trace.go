package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call the benchmark timed at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 at the top
	Req    int    `json:"req"`    // shared by the spans of one operation
}

// tracer keeps spans, counts and per-operation samples in memory until the
// run ends. It is used from one goroutine.
type tracer struct {
	t0      time.Time
	spans   []span
	counts  map[string]float64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, samples: map[string][]float64{}}
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// span runs fn as a span and returns its duration.
func (t *tracer) span(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// sample records one per-operation value of a per-layer metric.
func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

// spanSummary aggregates the spans of one name under one parent name
// ("parent/name" in the trace file). Self time is a span's duration minus
// the time its child spans cover.
type spanSummary struct {
	N            int     `json:"n"`
	MedianUS     float64 `json:"median_us"`
	MedianSelfUS float64 `json:"median_self_us"`
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SpanCostNS is the tracer's own cost per span, measured in this run;
	// multiplied by a span count it bounds the tracing overhead.
	SpanCostNS float64                `json:"span_cost_ns"`
	Summary    map[string]spanSummary `json:"summary"`
	Counts     map[string]float64     `json:"counts"`
	Samples    map[string][]float64   `json:"samples"`
	Metrics    map[string]metric      `json:"metrics"`
	Spans      []span                 `json:"spans"`
}

func (t *tracer) summary() map[string]spanSummary {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	dur := map[string][]float64{}
	selfUS := map[string][]float64{}
	for i, s := range t.spans {
		key := s.Name
		if s.Parent >= 0 {
			key = t.spans[s.Parent].Name + "/" + s.Name
		}
		dur[key] = append(dur[key], float64(s.End-s.Start)/1e3)
		selfUS[key] = append(selfUS[key], float64(self[i])/1e3)
	}
	out := map[string]spanSummary{}
	for name, d := range dur {
		out[name] = spanSummary{N: len(d), MedianUS: median(d), MedianSelfUS: median(selfUS[name])}
	}
	return out
}

// spanCost measures the tracer's cost per span on a scratch tracer.
func spanCost() float64 {
	const n = 10000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1, i))
	}
	return float64(time.Since(start)) / n
}

// write saves the trace as out/trace-<workload>-seed<seed>.json.
func (t *tracer) write(out, workload string, seed uint64, metrics map[string]metric) (string, error) {
	f := traceFile{
		Workload: workload, Seed: seed, SpanCostNS: spanCost(),
		Summary: t.summary(), Counts: t.counts, Samples: t.samples, Metrics: metrics, Spans: t.spans,
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}
