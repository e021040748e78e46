package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/plancache"
	"repro/internal/profiler"
)

// warmSnapshot makes the snapshot serve-warm boots from with this build:
// an in-process Engine.Prepare of every key into a plan cache, saved to
// path. It returns, per key, the preparation, its plan key and the wire
// bytes of its plan.
func warmSnapshot(cells []cell, path string) ([]*core.Prepared, []string, [][]byte, error) {
	cache := plancache.New(len(cells))
	preps, keys, err := prepareAll(cells, cache)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := cache.Save(path); err != nil {
		return nil, nil, nil, err
	}
	wire := make([][]byte, len(cells))
	for i, p := range preps {
		if wire[i], err = wirePlan(p.Plan); err != nil {
			return nil, nil, nil, err
		}
	}
	return preps, keys, wire, nil
}

// warmWindowRounds is the length of a serve-warm window in rounds of the
// 44 keys: 880 requests, about two seconds. The run ends on a window.
const warmWindowRounds = 20

// serveWarm: the server boots from a snapshot of all 44 plans and answers
// a seeded closed-loop stream of /plan hits from one connection, in whole
// rounds of the 44 keys. One connection leaves the client one core and
// the server the other, so the run measures the warm path, not how the
// scheduler shares two cores among more threads.
func (b *bench) serveWarm() error {
	cells := matrix()
	snap := filepath.Join(b.out, "warm-snapshot.json")
	preps, keys, want, err := warmSnapshot(cells, snap)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(cells))
	for i, c := range cells {
		bodies[i] = c.planBody()
	}
	probe := newHostProbe()
	settle()

	srv, err := startServer(b.bin, "-cache", snap)
	if err != nil {
		return err
	}
	defer srv.kill()
	client := newConn()
	setup, err := srv.waitReady(client)
	if err != nil {
		return err
	}

	rounds := newKeyRounds(b.seed, len(cells))
	served := make([]bool, len(cells))
	s := newSeries(probe, warmWindowRounds*len(cells))
	deadline := time.Now().Add(b.seconds)
	s.begin()
	for i := 0; ; i++ {
		k := rounds.next(i)
		b.res.Attempted++
		status, body, lat, err := client.post(srv.base+"/plan", bodies[k])
		ok := err == nil && status == 200
		s.record(lat, ok)
		if !ok {
			b.res.Failed++
		} else {
			served[k] = true
			b.checkWarmBody(cells[k], body, keys[k], want[k])
		}
		if s.n == 0 && !time.Now().Before(deadline) { // a window just closed
			break
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}

	for k := range cells {
		if !served[k] {
			b.violate("%s: never served", cells[k])
		}
	}
	if len(s.lats) == 0 {
		return fmt.Errorf("no successful requests")
	}
	b.res.set("rss_mb", "MB", rss)
	b.report(setup, s, 0.99)

	// Every response carried the snapshot's plan byte for byte; that plan
	// must satisfy C0–C3 for its key's fused graph.
	for i, p := range preps {
		if err := checkPlan(p.Plan, p.Graph, profiler.AnalyticCapacityFunc(cells[i].dev), solverConfig()); err != nil {
			b.violate("%s: served plan: %v", cells[i], err)
		}
	}
	b.simulateMatrix(cells, preps)
	return nil
}

// simulateMatrix runs each key's plan on the simulator, checks it against
// its kernel-time floor, and reports the geometric means of simulated
// latency and average memory.
func (b *bench) simulateMatrix(cells []cell, preps []*core.Prepared) {
	lat := make([]float64, len(cells))
	mem := make([]float64, len(cells))
	for i, p := range preps {
		var floor float64
		lat[i], mem[i], floor = simulate(cells[i].dev, solverConfig(), p)
		if err := checkSimFloor(lat[i], floor); err != nil {
			b.violate("%s: %v", cells[i], err)
		}
	}
	b.res.set("sim_latency", "sim_ms", geomean(lat))
	b.res.set("sim_mem_mb", "MB", geomean(mem))
}

// checkWarmBody checks one warm /plan response body: a warm hit on the
// key, carrying the snapshot's plan byte for byte.
func (b *bench) checkWarmBody(c cell, body []byte, key string, want []byte) {
	head, plan, err := splitResponse(body)
	switch {
	case err != nil:
		b.violate("%s: %v", c, err)
	case !hasField(head, "source", "warm") || !hasField(head, "key", key):
		b.violate("%s: not a warm hit on key %s: %s", c, key, head)
	case !bytes.Equal(plan, want):
		b.violate("%s: served plan differs from the snapshot's plan", c)
	}
}
