package main

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/opg"
)

// replanChurn: twelve lineages (six models on two devices) each see their
// first /replan at boot, then receive the seeded churn sequence — budget
// steps, thermal transitions and returns to earlier states — in whole
// rounds over one connection.
func (b *bench) replanChurn() error {
	ls := churnLineages()
	gen := newChurnGen(b.seed, len(ls))
	client := newConn()
	probe := newHostProbe()
	served := map[churnState][]byte{}

	srv, err := startServer(b.bin)
	if err != nil {
		return err
	}
	defer srv.kill()
	if _, err := srv.waitReady(client); err != nil {
		return err
	}
	// A window is half a round, about a second: a round holds
	// 2·len(churnBudgetsMB)+1 events per lineage.
	timed := newSeries(probe, (2*len(churnBudgetsMB)+1)*len(ls)/2)
	replan := func(s churnState, isTimed bool) {
		b.res.Attempted++
		status, body, lat, err := client.post(srv.base+"/replan", s.body(ls))
		ok := err == nil && status == 200
		if isTimed {
			timed.record(lat, ok)
		}
		if !ok {
			b.res.Failed++
			return
		}
		head, plan, err := splitResponse(body)
		switch {
		case err != nil:
			b.violate("%v: %v", s, err)
		case !hasField(head, "source", opg.RungRepaired) && !hasField(head, "source", opg.RungCold):
			b.violate("%v: served from a degraded rung: %s", s, head)
		case served[s] == nil:
			served[s] = bytes.Clone(plan)
		case !bytes.Equal(plan, served[s]):
			b.violate("%v: state served two different plans", s)
		}
	}
	// Set-up ends once every lineage has had its first-sight (cold) replan.
	for lin := range ls {
		replan(churnState{lin, firstSightMB, 0}, false)
	}
	setup := time.Since(srv.start)

	deadline := time.Now().Add(b.seconds)
	timed.begin()
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		for _, s := range gen.round() {
			replan(s, true)
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if len(timed.lats) == 0 {
		return fmt.Errorf("no successful requests")
	}
	b.res.set("rss_mb", "MB", rss)
	b.report(setup, timed, 0.9)
	return b.checkChurn(ls, served)
}

// checkChurn checks the plan served for every state against C0–C3 under
// the throttled capacities and budget it was served under and against an
// independent cold solve of that state, then simulates it on the
// throttled device.
func (b *bench) checkChurn(ls []lineage, served map[churnState][]byte) error {
	fused := fusedGraphs(ls)
	states := make([]churnState, 0, len(served))
	for s := range served {
		states = append(states, s)
	}
	// A fixed order keeps the geometric means exactly reproducible.
	slices.SortFunc(states, func(a, b churnState) int {
		return cmp.Or(cmp.Compare(a.lin, b.lin), cmp.Compare(a.mpeakMB, b.mpeakMB), cmp.Compare(a.throttle, b.throttle))
	})
	lat := make([]float64, len(states))
	mem := make([]float64, len(states))
	errs := make([]error, len(states))
	err := parallel(len(states), func(i int) error {
		s := states[i]
		in := s.inputs(ls, fused)
		want, err := wirePlan(in.coldReplan())
		if err != nil {
			return err
		}
		if errs[i] = checkSamePlan(served[s], want); errs[i] != nil {
			return nil
		}
		p, err := decodeWire(served[s])
		if err != nil {
			errs[i] = err
			return nil
		}
		if errs[i] = checkPlan(p, in.g, in.caps, in.cfg); errs[i] != nil {
			return nil
		}
		var floor float64
		lat[i], mem[i], floor = simulate(in.dev, in.cfg, &core.Prepared{Graph: in.g, Plan: p})
		errs[i] = checkSimFloor(lat[i], floor)
		return nil
	})
	if err != nil {
		return err
	}
	for i, e := range errs {
		if e != nil {
			b.violate("%v: %v", states[i], e)
		}
	}
	b.res.set("sim_latency", "sim_ms", geomean(lat))
	b.res.set("sim_mem_mb", "MB", geomean(mem))
	return nil
}
