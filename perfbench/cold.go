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

// planCold: each pass boots a fresh, empty server and sends each of the
// 44 keys once, in seeded order, over one connection, so every request is
// a cache miss solved on the server. Passes repeat until the deadline. The
// first pass's server saves its snapshot on shutdown, and the saved plans
// run on the simulator.
func (b *bench) planCold() error {
	cells := matrix()
	snap := filepath.Join(b.out, "cold-snapshot.json")
	rounds := newKeyRounds(b.seed, len(cells))
	client := newConn()
	probe := newHostProbe()
	served := make([][]byte, len(cells)) // first wire plan per key
	s := newSeries(probe, len(cells)/2)  // a window is half a pass, about three seconds
	var rss []float64
	var setup time.Duration
	deadline := time.Now().Add(b.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var extra []string
		if pass == 0 {
			extra = []string{"-save", snap}
		}
		srv, err := startServer(b.bin, extra...)
		if err != nil {
			return err
		}
		boot, err := srv.waitReady(client)
		if err != nil {
			srv.kill()
			return err
		}
		if pass == 0 {
			setup = boot
		}
		s.begin()
		for j := range cells {
			k := rounds.next(pass*len(cells) + j)
			b.res.Attempted++
			status, body, lat, err := client.post(srv.base+"/plan", cells[k].planBody())
			ok := err == nil && status == 200
			s.record(lat, ok)
			if !ok {
				b.res.Failed++
				continue
			}
			head, plan, err := splitResponse(body)
			switch {
			case err != nil:
				b.violate("%s: %v", cells[k], err)
			case !hasField(head, "source", "solved"):
				b.violate("%s: cold request not solved: %s", cells[k], head)
			case served[k] == nil:
				served[k] = bytes.Clone(plan)
			case !bytes.Equal(plan, served[k]):
				b.violate("%s: pass %d served a different plan than an earlier pass", cells[k], pass)
			}
		}
		r, err := srv.peakRSSMB()
		if err != nil {
			srv.kill()
			return err
		}
		rss = append(rss, r)
		if err := srv.stop(); err != nil {
			return err
		}
	}
	if len(s.lats) == 0 {
		return fmt.Errorf("no successful requests")
	}
	b.res.set("rss_mb", "MB", median(rss))
	b.report(setup, s, 0.9)
	return b.checkCold(cells, served, snap)
}

// checkCold checks every cold plan against an in-process Engine.Prepare of
// the same key and against C0–C3, then simulates the plans the server saved.
func (b *bench) checkCold(cells []cell, served [][]byte, snap string) error {
	preps, keys, err := prepareAll(cells, nil)
	if err != nil {
		return err
	}
	for i, p := range preps {
		if served[i] == nil {
			b.violate("%s: never served", cells[i])
			continue
		}
		want, err := wirePlan(p.Plan)
		if err != nil {
			return err
		}
		if err := checkSamePlan(served[i], want); err != nil {
			b.violate("%s: %v", cells[i], err)
		}
		if err := checkPlan(p.Plan, p.Graph, profiler.AnalyticCapacityFunc(cells[i].dev), solverConfig()); err != nil {
			b.violate("%s: served plan: %v", cells[i], err)
		}
	}

	saved := plancache.New(len(cells))
	if _, err := saved.LoadAll(snap); err != nil {
		return fmt.Errorf("load the server's snapshot: %w", err)
	}
	runs := make([]*core.Prepared, len(cells))
	for i := range cells {
		p, ok := saved.Get(keys[i])
		if !ok {
			b.violate("%s: plan missing from the server's snapshot", cells[i])
			p = preps[i]
		} else if got, err := wirePlan(p.Plan); err != nil || !bytes.Equal(got, served[i]) {
			b.violate("%s: snapshot plan differs from the served plan", cells[i])
		}
		runs[i] = p
	}
	b.simulateMatrix(cells, runs)
	return nil
}
