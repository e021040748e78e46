// Package chaos is the fault-injection soak harness: it stands up the
// repo's distributed pieces in one process — a sweep coordinator with its
// lease journal, pulling workers, and the plan-serving server — runs them
// under a seeded fault schedule (flaky worker HTTP, coordinator 500s and a
// mid-sweep coordinator crash/restart, failing/slow/panicking solves,
// short-written and corrupted snapshots), and checks the invariants that
// hardening is supposed to buy:
//
//  1. No lost cells: the coordinated sweep completes every cell despite the
//     faults, including across the coordinator restart.
//  2. Byte-identical output: the chaos run's assembled rows equal a
//     fault-free run's, cell for cell.
//  3. No wrong plans: every 200 the server returns — solved, cached, or
//     degraded — is byte-identical to a direct public-API solve of the
//     same key.
//  4. Honest failures: every non-200 carries a machine-readable code, and
//     every retryable status (429, 503, 504) carries Retry-After.
//  5. Corruption is contained: snapshots written through save faults either
//     load cleanly or are quarantined; loading never fails the boot.
//  6. Churn is survivable: a seeded device-condition trace (model
//     load/unload, memory-budget steps, thermal throttling) replayed
//     through the resilience engine loses no requests and serves only
//     plans valid for the device state at serve time — even with repair
//     starved so every event rides the degradation ladder.
//
// Fault decisions derive from Config.Seed (see faultinject): the same seed
// replays the same per-site fault schedule, so a failing soak is rerun, not
// shrugged at. Config.Cells and Config.Requests scale the run from a
// seconds-long CI check to a nightly soak.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	flashmem "repro"
	"repro/internal/backoff"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/opg"
	"repro/internal/plancache"
	"repro/internal/power"
	"repro/internal/replan"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Config sizes one chaos run. The zero value of every field but Dir works:
// a small, seconds-long soak with seed 1.
type Config struct {
	// Seed drives every fault decision; equal seeds replay equal per-site
	// fault schedules (0: 1).
	Seed int64
	// Cells is the per-group cell count of the synthetic sweep grid
	// (<= 0: 24; the grid has 2 groups).
	Cells int
	// Requests is how many sequential /plan requests the serving leg fires
	// (<= 0: 40).
	Requests int
	// Workers is the sweep worker count (<= 0: 3).
	Workers int
	// Timeout bounds the whole run (<= 0: 2m).
	Timeout time.Duration
	// Dir is the scratch directory for the journal and snapshot files.
	// Required.
	Dir string
	// Log receives progress lines (nil: discarded).
	Log io.Writer
}

// Report is the machine-readable outcome of a run — CI archives it.
type Report struct {
	Seed       int64                  `json:"seed"`
	Faults     map[string]int         `json:"faults"` // fired faults by "site kind"
	Events     []faultinject.Event    `json:"events"`
	Sweep      sweep.CoordinatorStats `json:"sweep"`
	Server     server.StatsSnapshot   `json:"server"`
	Requests   int                    `json:"requests"`
	ServedOK   int                    `json:"served_ok"`
	Degraded   int                    `json:"degraded"`
	Retryable  int                    `json:"retryable_responses"`
	BadFiles   int                    `json:"snapshot_files_quarantined"`
	Churn      ChurnReport            `json:"churn"`
	Violations []string               `json:"violations,omitempty"`
}

// ChurnReport is the device-churn leg's outcome: the same seeded trace
// replayed twice through the resilience engine. Healthy gives repair an
// unlimited latency budget, so churn is absorbed by incremental repair;
// Starved caps repair at one nanosecond, forcing every event down the
// degradation ladder (cached variant, greedy patch, cold re-solves) —
// the invariants (no lost requests, every served plan valid for the
// device state it was served under) must hold in both.
type ChurnReport struct {
	Healthy *replan.Report `json:"healthy"`
	Starved *replan.Report `json:"starved"`
}

// runner carries one run's shared state.
type runner struct {
	cfg Config
	inj *faultinject.Injector
	rep *Report
	ctx context.Context

	mu sync.Mutex // guards rep.Violations and rep counters from burst goroutines
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, "chaos: "+format+"\n", args...)
	}
}

func (r *runner) violatef(format string, args ...any) {
	r.mu.Lock()
	r.rep.Violations = append(r.rep.Violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// Run executes one seeded chaos soak. The returned error reports harness
// breakage only (a leg that could not run); invariant breaches land in
// Report.Violations so the report is always complete.
func Run(cfg Config) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 24
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 40
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Config.Dir is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	// One injector for the whole run: every site's fault schedule hangs off
	// the one seed, and the report's fault counts cover everything fired.
	inj := faultinject.New(cfg.Seed,
		// Worker↔coordinator network: dropped round trips and slow links.
		faultinject.Rule{Site: "sweep.worker.http", Kind: faultinject.KindError, Rate: 0.12},
		faultinject.Rule{Site: "sweep.worker.http", Kind: faultinject.KindLatency, Rate: 0.05, Latency: 4 * time.Millisecond},
		// Coordinator protocol 500s (pre-ledger, so retries are clean).
		faultinject.Rule{Site: "sweep.coord.lease", Kind: faultinject.KindError, Rate: 0.08},
		faultinject.Rule{Site: "sweep.coord.result", Kind: faultinject.KindError, Rate: 0.08},
		// Solve path: the first two solves stay healthy so the
		// last-known-good store has something to degrade to, then errors,
		// latency, and a pair of panics.
		faultinject.Rule{Site: "server.solve", Kind: faultinject.KindError, Rate: 0.3, After: 2, Max: 6},
		faultinject.Rule{Site: "server.solve", Kind: faultinject.KindLatency, Rate: 0.1, Latency: 3 * time.Millisecond},
		faultinject.Rule{Site: "server.solve", Kind: faultinject.KindPanic, Rate: 1, After: 5, Max: 2},
		// Snapshot persistence: one short write, one corruption, one read
		// error — each fires exactly once, so the final save is clean.
		faultinject.Rule{Site: "plancache.save", Kind: faultinject.KindShortWrite, Rate: 1, Max: 1},
		faultinject.Rule{Site: "plancache.save", Kind: faultinject.KindCorrupt, Rate: 1, Max: 1},
		faultinject.Rule{Site: "plancache.load", Kind: faultinject.KindError, Rate: 1, Max: 1},
	)
	r := &runner{
		cfg: cfg,
		inj: inj,
		rep: &Report{Seed: cfg.Seed, Faults: map[string]int{}},
		ctx: ctx,
	}

	if err := r.sweepLeg(); err != nil {
		return r.rep, err
	}
	if err := r.servingLeg(); err != nil {
		return r.rep, err
	}
	if err := r.churnLeg(); err != nil {
		return r.rep, err
	}

	r.rep.Faults = inj.Counts()
	r.rep.Events = inj.Events()
	r.logf("done: %d faults fired, %d violations", len(r.rep.Events), len(r.rep.Violations))
	return r.rep, nil
}

// ---- sweep leg -----------------------------------------------------------

// chaosRow is the deterministic row for one cell: pure function of (group,
// cell), so byte-identity across runs is checkable without storing the
// reference anywhere.
func chaosRow(group string, cell int) json.RawMessage {
	h := uint64(cell+1) * 0x9e3779b97f4a7c15
	for _, b := range []byte(group) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return json.RawMessage(fmt.Sprintf(`{"group":%q,"cell":%d,"h":"%016x"}`, group, cell, h))
}

func (r *runner) grid() sweep.Grid {
	return sweep.Grid{
		Fingerprint: fmt.Sprintf("chaos-seed-%d", r.cfg.Seed),
		Groups: []sweep.Group{
			{ID: "alpha", Cells: r.cfg.Cells},
			{ID: "beta", Cells: r.cfg.Cells},
		},
	}
}

// swapHandler atomically redirects an already-listening HTTP server to a
// new handler — how the harness "crashes" the coordinator (swap to 503s)
// and brings its successor up on the same address.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, req)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// unavailable answers every request 503 with an empty JSON body — exactly
// what a dead coordinator behind a load balancer looks like, and what
// workers must absorb as transient.
var unavailable = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write([]byte("{}\n"))
})

// startHTTP serves h on a fresh loopback port.
func startHTTP(h http.Handler) (url string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// sweepLeg runs the coordinated sweep twice — fault-free reference, then
// under faults with a coordinator crash/restart — and checks invariants
// 1 and 2.
func (r *runner) sweepLeg() error {
	grid := r.grid()
	r.logf("sweep leg: %d cells × %d workers, fault-free reference first", grid.Cells(), r.cfg.Workers)
	ref, _, err := r.runSweep(grid, nil, "", false)
	if err != nil {
		return fmt.Errorf("chaos: fault-free reference sweep: %w", err)
	}

	journal := filepath.Join(r.cfg.Dir, "sweep.journal")
	rows, stats, err := r.runSweep(grid, r.inj, journal, true)
	if err != nil {
		r.violatef("sweep under faults did not complete: %v", err)
		return nil
	}
	r.rep.Sweep = stats

	// Invariants 1 + 2: every cell present, bytes equal to the reference.
	for _, g := range grid.Groups {
		want, got := ref[g.ID], rows[g.ID]
		if len(got) != len(want) {
			r.violatef("group %s: %d cells under faults, reference has %d (lost cells)", g.ID, len(got), len(want))
			continue
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				r.violatef("group %s cell %d: faulted sweep row %s differs from fault-free %s", g.ID, i, got[i], want[i])
			}
		}
	}
	r.logf("sweep leg: %d batches (%d resumed from journal, %d steals, %d retries) — rows match reference",
		stats.Batches, stats.ResumedBatches, stats.Steals, stats.Retries)
	return nil
}

// runSweep drives one full coordinated sweep. With restart set, the
// coordinator is killed after roughly a third of the batches complete and a
// successor over the same journal takes over the same address.
func (r *runner) runSweep(grid sweep.Grid, inj *faultinject.Injector, journal string, restart bool) (map[string][]json.RawMessage, sweep.CoordinatorStats, error) {
	ccfg := sweep.CoordinatorConfig{
		Grid:         grid,
		Workers:      r.cfg.Workers,
		LeaseTimeout: 10 * time.Second,
		IdleWait:     2 * time.Millisecond,
		Journal:      journal,
		Injector:     inj,
	}
	coord, err := sweep.NewCoordinator(ccfg)
	if err != nil {
		return nil, sweep.CoordinatorStats{}, err
	}
	defer func() { _ = coord.Close() }()

	sh := &swapHandler{h: coord.Handler()}
	url, shutdown, err := startHTTP(sh)
	if err != nil {
		return nil, sweep.CoordinatorStats{}, err
	}
	defer shutdown()

	var wg sync.WaitGroup
	for i := 0; i < r.cfg.Workers; i++ {
		name := fmt.Sprintf("chaos-w%d", i)
		client := &http.Client{Timeout: 30 * time.Second}
		if inj != nil {
			client.Transport = faultinject.Transport(inj, "sweep.worker.http", nil)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sweep.RunWorker(r.ctx, sweep.WorkerConfig{
				Coordinator: url,
				Name:        name,
				Fingerprint: grid.Fingerprint,
				Client:      client,
				Poll:        2 * time.Millisecond,
				Retry:       backoff.Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Seed: r.cfg.Seed},
				Exec: func(ctx context.Context, b sweep.Batch) ([]json.RawMessage, error) {
					rows := make([]json.RawMessage, 0, b.Hi-b.Lo)
					for c := b.Lo; c < b.Hi; c++ {
						// A hair of work per cell stretches the sweep so
						// faults and the restart land mid-flight.
						time.Sleep(200 * time.Microsecond)
						rows = append(rows, chaosRow(b.Group, c))
					}
					return rows, nil
				},
			})
			if err != nil && r.ctx.Err() == nil {
				r.violatef("sweep worker %s gave up: %v", name, err)
			}
		}()
	}

	if restart {
		// Crash the coordinator once real progress exists. If the sweep
		// outruns the watcher, the successor simply resumes an already-
		// complete journal — still a valid restart.
		batches := coord.Stats().Batches
		for coord.Stats().CompletedBatches < (batches+2)/3 && r.ctx.Err() == nil && !coord.Stats().Done {
			time.Sleep(time.Millisecond)
		}
		sh.swap(unavailable)
		_ = coord.Close() // the in-memory ledger dies here; only the journal survives
		r.logf("sweep leg: coordinator killed at %d/%d batches; restarting from journal", coord.Stats().CompletedBatches, batches)
		time.Sleep(10 * time.Millisecond) // a visible down window for the workers
		successor, err := sweep.NewCoordinator(ccfg)
		if err != nil {
			return nil, sweep.CoordinatorStats{}, fmt.Errorf("restart coordinator: %w", err)
		}
		defer func() { _ = successor.Close() }()
		sh.swap(successor.Handler())
		coord = successor
	}

	res, err := coord.Wait(r.ctx)
	wg.Wait()
	if err != nil {
		return nil, sweep.CoordinatorStats{}, err
	}
	return res.Rows, res.Stats, nil
}

// ---- serving leg ---------------------------------------------------------

// chaosModels is the model subset the serving leg exercises — small enough
// that a branch-capped solve finishes in tens of milliseconds.
var chaosModels = []string{"ViT", "ResNet", "DeepViT"}

// mix is the splitmix64 finalizer, the schedule's deterministic PRNG.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// servingLeg fires a deterministic request schedule at a faulted server and
// checks invariants 3 and 4, then round-trips snapshots through injected
// write faults for invariant 5.
func (r *runner) servingLeg() error {
	solver := opg.DefaultConfig()
	solver.SolveTimeout = 5 * time.Second
	solver.MaxBranches = 500

	s := server.New(server.Config{
		Workers:      2,
		QueueDepth:   4,
		SolveTimeout: 10 * time.Second,
		// A hot cache far smaller than the key space keeps evictions (and
		// therefore re-solves of known keys) happening, which is what walks
		// the degraded-serving path when those re-solves hit faults.
		CacheEntries:     3,
		BreakerThreshold: 3,
		BreakerCooldown:  25 * time.Millisecond,
		Injector:         r.inj,
		Solver:           solver,
	})
	defer s.Close()
	s.Cache().SetFaultInjector(r.inj)
	url, shutdown, err := startHTTP(s.Handler())
	if err != nil {
		return err
	}
	defer shutdown()

	// Direct public-API solves are the ground truth for invariant 3,
	// computed lazily per key with the same solver budget.
	fleet := flashmem.NewFleet(nil, flashmem.WithSolverBudget(solver.SolveTimeout, solver.MaxBranches))
	truth := map[string][]byte{}
	var truthMu sync.Mutex

	devices := flashmem.Devices()
	seqDevices := devices[:len(devices)-1] // the last device stays cold for the burst
	r.logf("serving leg: %d sequential requests over %d devices × %d models",
		r.cfg.Requests, len(seqDevices), len(chaosModels))
	for i := 0; i < r.cfg.Requests && r.ctx.Err() == nil; i++ {
		h := mix(uint64(r.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(i))
		dev := seqDevices[h%uint64(len(seqDevices))]
		model := chaosModels[(h>>16)%uint64(len(chaosModels))]
		r.checkPlanResponse(url, fleet, truth, &truthMu, dev.Name, model)
		if s.Stats().Breaker == "open" {
			// Let the breaker's cooldown elapse now and then so the run
			// exercises the half-open probe, not just rejection.
			time.Sleep(30 * time.Millisecond)
		}
	}

	// Concurrent burst against cold keys: the bounded queue must shed load
	// with honest 429s, never hang or serve a wrong plan.
	cold := devices[len(devices)-1]
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		model := chaosModels[i%len(chaosModels)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.checkPlanResponse(url, fleet, truth, &truthMu, cold.Name, model)
		}()
	}
	wg.Wait()
	r.rep.Server = s.Stats()
	r.logf("serving leg: %d ok (%d degraded), %d retryable refusals, breaker %s",
		r.rep.ServedOK, r.rep.Degraded, r.rep.Retryable, r.rep.Server.Breaker)

	r.persistenceLeg(s)
	r.rep.Server = s.Stats()
	return nil
}

// checkPlanResponse fires one /plan request and applies invariants 3 and 4.
func (r *runner) checkPlanResponse(url string, fleet *flashmem.Fleet, truth map[string][]byte, truthMu *sync.Mutex, device, model string) {
	body := fmt.Sprintf(`{"device":%q,"model":%q}`, device, model)
	resp, err := http.Post(url+"/plan", "application/json", strings.NewReader(body))
	if err != nil {
		r.violatef("POST /plan %s/%s: %v", device, model, err)
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		r.violatef("read /plan %s/%s: %v", device, model, err)
		return
	}
	r.mu.Lock()
	r.rep.Requests++
	r.mu.Unlock()

	if resp.StatusCode != http.StatusOK {
		var er struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if json.Unmarshal(data, &er) != nil || er.Code == "" {
			r.violatef("%s/%s: status %d body %q has no machine-readable code", device, model, resp.StatusCode, data)
			return
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			r.mu.Lock()
			r.rep.Retryable++
			r.mu.Unlock()
			if resp.Header.Get("Retry-After") == "" {
				r.violatef("%s/%s: retryable %d (%s) without Retry-After", device, model, resp.StatusCode, er.Code)
			}
		case http.StatusInternalServerError:
			// Injected solve errors and panics land here; honest and final.
		default:
			r.violatef("%s/%s: unexpected status %d (%s)", device, model, resp.StatusCode, er.Code)
		}
		return
	}

	var pr struct {
		Source string          `json:"source"`
		Plan   json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		r.violatef("%s/%s: undecodable 200 body: %v", device, model, err)
		return
	}
	served, err := canonicalPlan(pr.Plan)
	if err != nil {
		r.violatef("%s/%s: served plan does not decode: %v", device, model, err)
		return
	}
	key := device + "/" + model
	truthMu.Lock()
	want, ok := truth[key]
	if !ok {
		if want, err = directPlan(fleet, device, model); err != nil {
			truthMu.Unlock()
			r.violatef("direct solve %s: %v", key, err)
			return
		}
		truth[key] = want
	}
	truthMu.Unlock()
	r.mu.Lock()
	r.rep.ServedOK++
	if pr.Source == "degraded" {
		r.rep.Degraded++
	}
	r.mu.Unlock()
	if !bytes.Equal(served, want) {
		r.violatef("%s (source %s): served plan differs from direct Fleet solve", key, pr.Source)
	}
}

// directPlan solves one key through the public API and returns the plan's
// canonical encoding.
func directPlan(fleet *flashmem.Fleet, device, model string) ([]byte, error) {
	dev, ok := flashmem.DeviceByName(device)
	if !ok {
		return nil, fmt.Errorf("unknown device %q", device)
	}
	m, err := fleet.Load(dev, model)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.EncodePlan(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// canonicalPlan re-encodes a served plan into its canonical form (a
// response carries the compact opg.Plan.Wire form, so byte-identity is
// checked post-decode).
func canonicalPlan(raw []byte) ([]byte, error) {
	p, err := opg.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ---- persistence leg -----------------------------------------------------

// persistenceLeg saves the server's cache through armed write faults —
// one short write, one corruption — plus clean saves, then boots a fresh
// cache from all of them. Invariant 5: damaged files quarantine, the load
// itself never fails, and at least one intact file restores plans.
func (r *runner) persistenceLeg(s *server.Server) {
	if s.Cache().Len() == 0 {
		r.logf("persistence leg: cache empty (all solves faulted) — skipping")
		return
	}
	var files []string
	for i := 0; i < 4; i++ {
		path := filepath.Join(r.cfg.Dir, fmt.Sprintf("chaos-snap-%d.json", i))
		if err := s.SaveSnapshot(path); err != nil {
			// Injected save errors would surface here; none are armed, but a
			// real failure is report-worthy, not fatal.
			r.violatef("snapshot save %d: %v", i, err)
			continue
		}
		files = append(files, path)
	}
	fresh := plancache.New(0)
	fresh.SetFaultInjector(r.inj) // arms the one plancache.load error
	stats, err := fresh.LoadAll(files...)
	if err != nil {
		r.violatef("boot from chaos snapshots must degrade, not fail: %v", err)
		return
	}
	r.rep.BadFiles = stats.BadFiles
	if fresh.Len() == 0 {
		r.violatef("no plans survived the snapshot round trip (%d files, %d quarantined)", len(files), stats.BadFiles)
	}
	r.logf("persistence leg: %d files → %d plans loaded, %d quarantined to .bad", len(files), fresh.Len(), stats.BadFiles)
}

// ---- churn leg -----------------------------------------------------------

// churnLeg replays a seeded device-condition trace (model churn, memory
// budget steps, thermal throttling) through the resilience engine, twice:
// once with repair given all the time it needs, once with repair starved
// to a nanosecond so every condition event is forced down the degradation
// ladder. Both replays must lose no requests and serve only plans valid
// for the device state they were served under; the replay reports those
// breaches as violations, which land in the run's Violations.
func (r *runner) churnLeg() error {
	dev := device.OnePlus12()
	events := r.cfg.Requests
	if events < 60 {
		events = 60
	}
	tr := trace.Generate(dev, trace.GenOptions{
		Seed:        uint64(r.cfg.Seed),
		Events:      events,
		MaxThrottle: power.MaxThrottleLevel,
	})

	for _, leg := range []struct {
		name string
		opts replan.ReplayOptions
		dst  **replan.Report
	}{
		{"healthy", replan.ReplayOptions{}, &r.rep.Churn.Healthy},
		{"starved", replan.ReplayOptions{Planner: replan.Config{RepairBudget: time.Nanosecond}}, &r.rep.Churn.Starved},
	} {
		rep, err := replan.Replay(r.ctx, dev, tr, leg.opts)
		if err != nil {
			return fmt.Errorf("churn leg (%s): %w", leg.name, err)
		}
		*leg.dst = rep
		for _, v := range rep.Violations {
			r.violatef("churn (%s): %s", leg.name, v)
		}
		r.logf("churn leg (%s): %d events, %d/%d requests served, %d replans, rungs %v",
			leg.name, rep.Events, rep.Served, rep.Requests, rep.Replans, rep.Rungs)
	}
	return nil
}
