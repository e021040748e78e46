package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"time"
)

// A VM that shares its host with other tenants runs at a speed that
// drifts: on a 2-vCPU Xeon VM, identical, deterministic solver work took
// 15–25 % longer for tens of seconds to minutes at a time, with no change
// in the work done and no CPU time stolen. Runs minutes apart would
// differ by more than the bounds on that alone. So every run also times
// a fixed reference computation, the host probe, between its timed
// requests, and reports each wall-clock metric scaled to the speed at
// which the probe takes probeRefMS: figures as they would read on a host
// of that speed. The probe is this file's own code and depends on no
// repository package, so a change to the program cannot move it.

const (
	probeLen   = 32 << 10               // ints sorted per probe sample
	probeEvery = 100 * time.Millisecond // least time between two samples
	probeRefMS = 3.2                    // the reference speed: ms per sample
)

// hostProbe times the reference computation: sorting a fixed
// pseudo-random slice of ints, which like the solver is branchy integer
// work over a cache-sized working set.
type hostProbe struct {
	src, buf []int
	last     time.Time
	win      []float64 // samples since the last window closed, ms
	all      []float64 // every sample, ms
}

func newHostProbe() *hostProbe {
	r := rand.New(rand.NewPCG(0x686f7374, 0x70726f6265)) // fixed: every run sorts the same slice
	p := &hostProbe{src: make([]int, probeLen), buf: make([]int, probeLen)}
	for i := range p.src {
		p.src[i] = r.Int()
	}
	for i := 0; i < 3; i++ { // page in and warm the buffers
		p.sort()
	}
	return p
}

func (p *hostProbe) sort() {
	copy(p.buf, p.src)
	t0 := time.Now()
	slices.Sort(p.buf)
	d := ms(time.Since(t0))
	p.win = append(p.win, d)
	p.all = append(p.all, d)
}

// tick takes a sample when probeEvery has passed since the last one. Call
// it only between requests, while the server is idle, so the probe never
// competes with the program for the CPU. It returns the time it took, to
// be left out of request time.
func (p *hostProbe) tick() time.Duration {
	t0 := time.Now()
	if t0.Sub(p.last) < probeEvery {
		return 0
	}
	p.sort()
	p.last = time.Now()
	return p.last.Sub(t0)
}

// series collects a run's timed requests in windows of a fixed number of
// requests, one to three seconds long, that split the workload's rounds
// evenly. The speed drifts within a run too, so each window is scaled by
// its own probe samples: its factor is probeRefMS over their median.
type series struct {
	p       *hostProbe
	size    int           // requests per window
	n       int           // requests in the open window
	open    []float64     // raw latencies of the open window, ms
	paused  time.Duration // probe time in the open window
	started time.Time     // when the open window began

	lats    []float64 // latencies at the reference speed, ms
	busy    float64   // request time at the reference speed, s
	first   float64   // the first window's factor
	raw     []float64 // latencies as measured, ms
	rawBusy float64   // request time as measured, s
}

func newSeries(p *hostProbe, size int) *series { return &series{p: p, size: size} }

// begin opens a window. The open window, if any, is dropped.
func (s *series) begin() {
	s.n, s.open, s.paused, s.started = 0, s.open[:0], 0, time.Now()
	s.p.win = s.p.win[:0]
}

// record ends one timed request, whose latency counts when ok, then lets
// the probe sample, and closes the window once it holds size requests.
func (s *series) record(lat time.Duration, ok bool) {
	if ok {
		s.open = append(s.open, ms(lat))
	}
	s.paused += s.p.tick()
	if s.n++; s.n == s.size {
		s.close()
		s.begin()
	}
}

// close scales the open window's latencies and its request time (wall
// time less probe time) by the window's factor.
func (s *series) close() {
	if len(s.p.win) == 0 {
		s.p.sort()
	}
	k := probeRefMS / median(s.p.win)
	if s.first == 0 {
		s.first = k
	}
	for _, l := range s.open {
		s.lats = append(s.lats, l*k)
	}
	s.raw = append(s.raw, s.open...)
	busy := (time.Since(s.started) - s.paused).Seconds()
	s.rawBusy += busy
	s.busy += busy * k
}

// report sets the wall-clock end-to-end metrics at the reference speed:
// set-up scaled by the first window's factor, the request rate, the
// median latency and the tail-quantile latency. It logs the figures as
// measured, with the probe, to standard error.
func (b *bench) report(setup time.Duration, s *series, tail float64) {
	fmt.Fprintf(os.Stderr, "perfbench: host probe %.4f ms (median of %d); as measured: setup %.4f s, %.3f req/s, p50 %.4f ms, tail %.4f ms\n",
		median(s.p.all), len(s.p.all), setup.Seconds(), float64(len(s.raw))/s.rawBusy, median(s.raw), percentile(s.raw, tail))
	b.res.set("setup_s", "s", setup.Seconds()*s.first)
	b.res.set("throughput_rps", "req/s", float64(len(s.lats))/s.busy)
	b.res.set("latency_p50_ms", "ms", median(s.lats))
	b.res.set("latency_tail_ms", "ms", percentile(s.lats, tail))
}
