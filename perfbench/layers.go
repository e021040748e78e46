package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/opg"
	"repro/internal/plancache"
	"repro/internal/profiler"
	"repro/internal/server"
)

// The traced run calls each layer's public functions in-process on the
// workload's seeded inputs (key order and churn sequence), timing each call
// as a span, and drives flashmem-serve over loopback for the same keys to
// attribute what the layers do not cover. Every traced run measures every
// layer; end-to-end figures come only from untraced runs.

// warmTraceRounds is how many seeded rounds of the 44 keys the warm-path
// layers are timed over.
const warmTraceRounds = 5

func (b *bench) traced(workload string) error {
	switch workload {
	case "serve-warm", "plan-cold", "replan-churn":
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	t := newTracer()
	cells := matrix()
	if err := b.traceWarm(t, cells); err != nil {
		return err
	}
	if err := b.traceCold(t, cells); err != nil {
		return err
	}
	if err := b.traceReplan(t); err != nil {
		return err
	}
	for name, unit := range perLayerUnits {
		v, ok := t.counts[name]
		if xs := t.samples[name]; len(xs) > 0 {
			v, ok = median(xs), true
		}
		if !ok {
			return fmt.Errorf("traced run produced no %s", name)
		}
		b.res.set(name, unit, v)
	}
	path, err := t.write(b.out, workload, b.seed, b.res.Metrics)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return nil
}

// perLayerUnits lists every per-layer metric with its unit. Counts that
// repeat exactly under branch budgets (cpsat.*, opg.windows*, allocations)
// are totals or per-request counts; timings are medians per operation.
var perLayerUnits = map[string]string{
	"server.handler_us":          "us",
	"server.decode_us":           "us",
	"server.response_encode_us":  "us",
	"server.alloc_bytes_per_req": "B/req",
	"server.allocs_per_req":      "allocs/req",
	"server.cold_overhead_ms":    "ms",
	"server.replan_overhead_ms":  "ms",
	"http.loopback_us":           "us",
	"graph.fingerprint_us":       "us",
	"core.plan_key_us":           "us",
	"core.execute_us":            "us",
	"plancache.get_us":           "us",
	"plancache.put_us":           "us",
	"plancache.load_ms":          "ms",
	"plancache.snapshot_bytes":   "B",
	"opg.encode_us":              "us",
	"opg.plan_bytes":             "B",
	"opg.solve_ms":               "ms",
	"opg.build_ms":               "ms",
	"opg.search_ms":              "ms",
	"opg.windows":                "count",
	"opg.adjust_ms":              "ms",
	"opg.preload_mb":             "MB",
	"opg.greedy_fallbacks":       "count",
	"opg.solve_repairable_ms":    "ms",
	"opg.repair_budget_ms":       "ms",
	"opg.windows_kept":           "count",
	"opg.validate_ms":            "ms",
	"opg.repair_throttle_ms":     "ms",
	"opg.windows_resolved":       "count",
	"fusion.fuse_ms":             "ms",
	"fusion.adaptive_ms":         "ms",
	"fusion.adaptive_solves":     "count",
	"cpsat.branches":             "count",
	"cpsat.wakes":                "count",
	"cpsat.trail_ops":            "count",
	"cpsat.conflicts":            "count",
}

// traceWarm times the warm /plan path layer by layer: request decode,
// graph fingerprint, plan key, cache lookup, the last-known-good refresh,
// plan encode and response encode, then the whole in-process handler and
// the same hit over loopback HTTP; http.loopback_us is the per-request
// difference of the last two.
func (b *bench) traceWarm(t *tracer, cells []cell) error {
	snap := filepath.Join(b.out, "trace-snapshot.json")
	preps, keys, wire, err := warmSnapshot(cells, snap)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(snap); err == nil {
		t.count("plancache.snapshot_bytes", float64(fi.Size()))
	}
	var hot *plancache.Cache // the last of three timed loads serves the lookups
	for i := 0; i < 3; i++ {
		hot = plancache.New(len(cells))
		d := t.span("plancache.load", -1, -1, func() { _, err = hot.LoadAll(snap) })
		if err != nil {
			return fmt.Errorf("load snapshot: %w", err)
		}
		t.sample("plancache.load_ms", ms(d))
	}
	stale := plancache.New(2 * len(cells))
	srv := server.New(server.Config{Solver: solverConfig()})
	defer srv.Close()
	if _, err := srv.LoadSnapshots(snap); err != nil {
		return err
	}
	h := srv.Handler()

	graphs := map[string]*graph.Graph{} // the server memoizes built graphs per model
	engines := make([]*core.Engine, len(cells))
	bodies := make([][]byte, len(cells))
	for i, c := range cells {
		if graphs[c.spec.Abbr] == nil {
			graphs[c.spec.Abbr] = c.spec.Build()
		}
		engines[i] = engine(c.dev, solverConfig(), hot)
		bodies[i] = c.planBody()
	}
	for i, p := range preps {
		d := t.span("core.execute", -1, i, func() { engines[i].Execute(p) })
		t.sample("core.execute_us", us(d))
	}

	// A real flashmem-serve booted from the same snapshot answers each key
	// right after the in-process handler does, so the two timings of a
	// request see the same machine conditions.
	proc, err := startServer(b.bin, "-cache", snap)
	if err != nil {
		return err
	}
	defer proc.kill()
	client := newConn()
	if _, err := proc.waitReady(client); err != nil {
		return err
	}

	rounds := newKeyRounds(b.seed, len(cells))
	for req := 0; req < warmTraceRounds*len(cells); req++ {
		k := rounds.next(req)
		c, g, eng := cells[k], graphs[cells[k].spec.Abbr], engines[k]
		root := t.begin("warm.layers", -1, req)
		var pr server.PlanRequest
		t.sample("server.decode_us", us(t.span("server.decode", root, req, func() {
			err = json.NewDecoder(bytes.NewReader(bodies[k])).Decode(&pr)
		})))
		if err != nil {
			return err
		}
		t.sample("graph.fingerprint_us", us(t.span("graph.fingerprint", root, req, func() { g.Fingerprint() })))
		var key string
		t.sample("core.plan_key_us", us(t.span("core.plan_key", root, req, func() { key, _ = eng.PlanKey(g) })))
		var prep *core.Prepared
		var ok bool
		t.sample("plancache.get_us", us(t.span("plancache.get", root, req, func() { prep, ok = hot.Get(key) })))
		if !ok || key != keys[k] {
			b.violate("%s: key %s not in the loaded snapshot", c, key)
			t.end(root)
			continue
		}
		t.sample("plancache.put_us", us(t.span("plancache.put", root, req, func() { stale.Put(key, prep) })))
		var planBuf bytes.Buffer
		t.sample("opg.encode_us", us(t.span("opg.encode", root, req, func() { err = prep.Plan.Encode(&planBuf) })))
		if err != nil {
			return err
		}
		t.sample("opg.plan_bytes", float64(planBuf.Len()))
		resp := server.PlanResponse{
			Device: pr.Device, Model: pr.Model, Key: key, Source: "warm", FromCache: true,
			Plan: json.RawMessage(planBuf.Bytes()),
		}
		var respBuf bytes.Buffer
		t.sample("server.response_encode_us", us(t.span("server.response_encode", root, req, func() {
			err = json.NewEncoder(&respBuf).Encode(&resp)
		})))
		if err != nil {
			return err
		}
		t.end(root)

		rq := httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(bodies[k]))
		rec := httptest.NewRecorder()
		dHandler := t.span("server.handler", -1, req, func() { h.ServeHTTP(rec, rq) })
		t.sample("server.handler_us", us(dHandler))
		b.res.Attempted++
		if rec.Code != http.StatusOK {
			b.res.Failed++
			continue
		}
		b.checkWarmBody(c, rec.Body.Bytes(), keys[k], wire[k])

		var status int
		var body []byte
		dLoop := t.span("http.plan_warm", -1, req, func() {
			status, body, _, err = client.post(proc.base+"/plan", bodies[k])
		})
		b.res.Attempted++
		if err != nil || status != 200 {
			b.res.Failed++
			continue
		}
		t.sample("http.loopback_us", us(dLoop-dHandler))
		b.checkWarmBody(c, body, keys[k], wire[k])
	}
	if err := b.countAllocs(t, h, cells, bodies); err != nil {
		return err
	}
	return proc.stop()
}

// countAllocs counts the heap allocations of one round of in-process warm
// hits through the handler.
func (b *bench) countAllocs(t *tracer, h http.Handler, cells []cell, bodies [][]byte) error {
	reqs := make([]*http.Request, len(cells))
	recs := make([]*httptest.ResponseRecorder, len(cells))
	for i := range cells {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(bodies[i]))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range cells {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for i := range cells {
		if recs[i].Code != http.StatusOK {
			return fmt.Errorf("%s: allocation round status %d", cells[i], recs[i].Code)
		}
	}
	n := float64(len(cells))
	t.count("server.allocs_per_req", float64(after.Mallocs-before.Mallocs)/n)
	t.count("server.alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/n)
	return nil
}

// traceCold times each layer of a cold plan for every key, in the seeded
// order of plan-cold's first pass: fusion, the first LC-OPG solve (with its
// build/search split and CP counts), the adaptive-fusion loop, the prefetch
// adjustment, a whole in-process Engine.Prepare, and the same key's cold
// /plan on a fresh server.
func (b *bench) traceCold(t *tracer, cells []cell) error {
	proc, err := startServer(b.bin)
	if err != nil {
		return err
	}
	defer proc.kill()
	client := newConn()
	if _, err := proc.waitReady(client); err != nil {
		return err
	}
	cfg := solverConfig()
	fo := fusion.DefaultOptions()
	rounds := newKeyRounds(b.seed, len(cells))
	for req := range cells {
		k := rounds.next(req)
		c := cells[k]
		g := c.spec.Build()
		caps := profiler.AnalyticCapacityFunc(c.dev)
		eng := engine(c.dev, cfg, nil)
		root := t.begin("cold.key", -1, req)

		var fused *graph.Graph
		t.sample("fusion.fuse_ms", ms(t.span("fusion.fuse", root, req, func() { fused = fusion.Fuse(g, fo) })))
		var first *opg.Plan
		t.sample("opg.solve_ms", ms(t.span("opg.solve", root, req, func() { first = opg.Solve(fused, caps, cfg) })))
		st := first.Stats
		t.sample("opg.build_ms", ms(st.BuildTime))
		t.sample("opg.search_ms", ms(st.SolveTime))
		t.count("opg.windows", float64(st.Windows))
		t.count("cpsat.branches", float64(st.Branches))
		t.count("cpsat.wakes", float64(st.Wakes))
		t.count("cpsat.trail_ops", float64(st.TrailOps))
		t.count("cpsat.conflicts", float64(st.Conflicts))

		var ad fusion.AdaptiveResult
		t.sample("fusion.adaptive_ms", ms(t.span("fusion.adaptive", root, req, func() { ad = fusion.Adaptive(g, caps, cfg, fo) })))
		t.count("fusion.adaptive_solves", float64(1+ad.Rounds))
		t.sample("opg.adjust_ms", ms(t.span("opg.adjust", root, req, func() { adjust(ad.Plan, ad.Graph, c.dev, cfg.MPeak) })))

		var prep *core.Prepared
		dPrep := t.span("core.prepare", root, req, func() { prep, err = eng.Prepare(g) })
		if err != nil {
			return err
		}
		t.count("opg.preload_mb", prep.Plan.PreloadBytes().MiB())
		t.count("opg.greedy_fallbacks", float64(prep.Plan.Stats.Fallbacks.Greedy))
		want, err := wirePlan(prep.Plan)
		if err != nil {
			return err
		}
		if got, err := wirePlan(ad.Plan); err != nil || !bytes.Equal(got, want) {
			b.violate("%s: adaptive fusion + adjustment differs from Engine.Prepare", c)
		}

		var status int
		var body []byte
		dHTTP := t.span("http.plan_cold", root, req, func() {
			status, body, _, err = client.post(proc.base+"/plan", c.planBody())
		})
		t.end(root)
		b.res.Attempted++
		if err != nil || status != 200 {
			b.res.Failed++
			continue
		}
		t.sample("server.cold_overhead_ms", ms(dHTTP-dPrep))
		head, plan, err := splitResponse(body)
		switch {
		case err != nil:
			b.violate("%s: %v", c, err)
		case !hasField(head, "source", "solved"):
			b.violate("%s: cold request not solved: %s", c, head)
		case !bytes.Equal(plan, want):
			b.violate("%s: cold /plan differs from Engine.Prepare", c)
		}
		if err := checkPlan(prep.Plan, prep.Graph, caps, cfg); err != nil {
			b.violate("%s: %v", c, err)
		}
	}
	return proc.stop()
}

// traceReplan times the repair path over one seeded churn round: the
// first-sight repairable solve per lineage, then per event the repair
// (budget step or thermal transition), prefetch adjustment, validation and
// encode, and the same event's /replan over loopback.
func (b *bench) traceReplan(t *tracer) error {
	ls := churnLineages()
	fused := fusedGraphs(ls)
	proc, err := startServer(b.bin)
	if err != nil {
		return err
	}
	defer proc.kill()
	client := newConn()
	if _, err := proc.waitReady(client); err != nil {
		return err
	}
	reps := make([]*opg.Repairable, len(ls))
	prev := make([]churnState, len(ls))
	req := 0
	event := func(s churnState) {
		defer func() { req++ }()
		in := s.inputs(ls, fused)
		root := t.begin("replan.event", -1, req)
		defer t.end(root)
		if reps[s.lin] == nil {
			d := t.span("opg.solve_repairable", root, req, func() { reps[s.lin] = opg.SolveRepairable(in.g, in.caps, in.cfg) })
			t.sample("opg.solve_repairable_ms", ms(d))
		} else {
			name := "opg.repair_budget"
			if s.throttle != prev[s.lin].throttle {
				name = "opg.repair_throttle"
			}
			var rs opg.RepairStats
			d := t.span(name, root, req, func() { rs, err = reps[s.lin].Repair(in.caps, in.cfg, opg.RepairOptions{}) })
			if err != nil {
				b.violate("%v: repair: %v", s, err)
				return
			}
			t.sample(name+"_ms", ms(d))
			t.count("opg.windows_kept", float64(rs.WindowsKept))
			t.count("opg.windows_resolved", float64(rs.WindowsResolved))
		}
		prev[s.lin] = s
		p := reps[s.lin].Plan()
		dAdjust := t.span("opg.adjust", root, req, func() { in.adjust(p) })
		var verr error
		dValidate := t.span("opg.validate", root, req, func() { verr = p.Validate(in.g, in.caps, in.cfg) })
		t.sample("opg.validate_ms", ms(dValidate))
		if verr != nil {
			b.violate("%v: %v", s, verr)
		}
		var buf bytes.Buffer
		dEncode := t.span("opg.encode", root, req, func() { err = p.Encode(&buf) })
		want, werr := wirePlan(p)
		if err != nil || werr != nil {
			b.violate("%v: encode: %v %v", s, err, werr)
			return
		}

		var status int
		var body []byte
		dHTTP := t.span("http.replan", root, req, func() {
			status, body, _, err = client.post(proc.base+"/replan", s.body(ls))
		})
		b.res.Attempted++
		if err != nil || status != 200 {
			b.res.Failed++
			return
		}
		head, plan, err := splitResponse(body)
		if err != nil {
			b.violate("%v: %v", s, err)
			return
		}
		if !bytes.Equal(plan, want) {
			b.violate("%v: /replan differs from the in-process repair", s)
		}
		var rr struct{ Repair server.RepairSummary }
		if err := json.Unmarshal(slices.Concat(head, []byte("}")), &rr); err != nil {
			b.violate("%v: response header: %v", s, err)
			return
		}
		// The server reports its ladder time (repair or first-sight solve);
		// the rest of the in-server work is timed in-process above.
		inner := rr.Repair.ElapsedMS + ms(dAdjust+dValidate+dEncode)
		t.sample("server.replan_overhead_ms", ms(dHTTP)-inner)
	}
	for lin := range ls {
		event(churnState{lin, firstSightMB, 0})
	}
	for _, s := range newChurnGen(b.seed, len(ls)).round() {
		event(s)
	}
	return proc.stop()
}
