// Package server is the FlashMem plan-serving service: a long-running
// HTTP/JSON backend that turns the per-process planning library into a
// fleet coordinator. Devices request overlap plans keyed by (device
// profile × model × solver configuration); the plan cache is the hot
// store, concurrent identical requests collapse via singleflight onto one
// solve, and cache misses queue onto a bounded solve worker pool with
// admission control — a full queue answers 429 + Retry-After instead of
// accepting unbounded work, and a request whose solve outlasts the
// per-request timeout answers 504 while the solve keeps running and warms
// the cache for the retry.
//
// The sharded-sweep machinery is the offline cache-warming path: merged
// FormatVersion-3 plan-cache snapshots (flashbench -shard/merge) load at
// boot via LoadSnapshots, and every response reports whether it was served
// warm (snapshot), cached (solved earlier in-process), solved, or
// collapsed onto another request's solve.
//
// Endpoints:
//
//	POST /plan    {"device":"OnePlus 12","model":"ViT","config":{...}}
//	GET  /healthz liveness + warm-plan count
//	GET  /statsz  hits/misses/collapses, queue depth, latency histograms
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/plancache"
	"repro/internal/units"
)

// Config sizes the service. The zero value of every field selects a
// sensible default, so Config{} is a working configuration.
type Config struct {
	// Workers is the solve worker pool size (<= 0: GOMAXPROCS). Solves are
	// CPU-bound, so more workers than cores buys queueing, not throughput.
	Workers int

	// QueueDepth bounds solves that are admitted but not yet executing
	// (<= 0: 64). At the bound new misses are rejected with 429 +
	// Retry-After rather than queued without bound: the client's retry is
	// cheap, an unbounded backlog of multi-second solves is not.
	QueueDepth int

	// SolveTimeout caps how long one request waits for its solve (<= 0:
	// 30s). A timed-out request answers 504, but the solve itself keeps
	// running and stores into the cache, so the retry is a hit.
	SolveTimeout time.Duration

	// RetryAfter is the hint attached to 429/504 responses (<= 0: 1s).
	RetryAfter time.Duration

	// CacheEntries bounds the plan cache (<= 0: 8192 — comfortably above
	// the full evaluation matrix, so a merged fleet snapshot warm-starts
	// completely).
	CacheEntries int

	// BreakerThreshold is how many consecutive solve failures (errors or
	// recovered panics) open the circuit breaker (<= 0: 5). While open,
	// new solves are refused for BreakerCooldown — served degraded when a
	// last-known-good plan exists, 503 + Retry-After otherwise — then one
	// probe solve decides whether to close or re-open.
	BreakerThreshold int

	// BreakerCooldown is how long the breaker stays open before probing
	// (<= 0: 5s).
	BreakerCooldown time.Duration

	// RepairBudget caps the incremental-repair rung on the /replan path
	// (0: unlimited). A repair that misses it descends the degradation
	// ladder (cached variant, then greedy patch) instead of blocking.
	RepairBudget time.Duration

	// ReplanEntries bounds the /replan lineage store (<= 0: 128). Evicting
	// a lineage costs the next /replan for it a cold solve, never a wrong
	// answer.
	ReplanEntries int

	// Injector, when non-nil, arms fault injection on the solve path
	// (site "server.solve": error, latency, panic). Chaos harnesses only.
	Injector *faultinject.Injector

	// Solver is the base solver configuration; per-request overrides apply
	// on top of it. A zero ChunkSize selects opg.DefaultConfig() wholesale,
	// so partial configs must start from opg.DefaultConfig().
	Solver opg.Config
}

// Server serves overlap plans for the whole device matrix from one
// process. All state is concurrency-safe: per-device engines are stateless
// and built per request, model graphs are memoized once per abbreviation,
// and the shared plan cache carries its own locking.
type Server struct {
	cfg       Config
	cache     *plancache.Cache
	stale     *plancache.Cache // last-known-good plans for degraded serving
	brk       breaker
	sf        group
	queue     chan *job
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	start     time.Time

	// admitMu orders admissions against Close: admit holds it while it
	// checks done and enqueues, and Close closes done under it. A job is
	// thus either queued before done closes (and a worker or Close's drain
	// completes it) or refused as shutting down.
	admitMu sync.Mutex

	warmMu sync.RWMutex
	warm   map[string]struct{} // keys loaded from boot snapshots

	graphs sync.Map // model abbr → *graphEntry
	fused  sync.Map // model abbr → *graphEntry (fused, for /replan lineages)
	caps   sync.Map // capsKey → opg.Capacity (tabulated, for /replan)

	replans   *replanStore
	replanCtr replanCounters

	ctr       counters
	solveHist histogram // actual solver executions only
	serveHist histogram // every /plan response, success or failure

	// holdSolves, when non-nil, parks each worker just before its solve
	// until the channel closes — a test hook that makes singleflight
	// collapse and admission-control tests deterministic instead of racy.
	holdSolves chan struct{}
}

// job is one admitted solve.
type job struct {
	key string
	eng *core.Engine
	g   *graph.Graph
	c   *call
}

var (
	errOverloaded  = errors.New("solve queue full")
	errShutdown    = errors.New("server shutting down")
	errCircuitOpen = errors.New("circuit breaker open")
)

// Machine-readable error codes carried in every non-200 JSON body, so
// clients branch on a stable field instead of parsing prose.
const (
	codeBadRequest       = "bad_request"
	codeMethodNotAllowed = "method_not_allowed"
	codeQueueFull        = "queue_full"
	codeSolveTimeout     = "solve_timeout"
	codeShuttingDown     = "shutting_down"
	codeSolveFailed      = "solve_failed"
	codeCircuitOpen      = "circuit_open"
	codeInternal         = "internal"
)

// New builds a server and starts its solve workers. Call Close to stop
// them.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.SolveTimeout <= 0 {
		cfg.SolveTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 8192
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.ReplanEntries <= 0 {
		cfg.ReplanEntries = 128
	}
	if cfg.Solver.ChunkSize <= 0 {
		cfg.Solver = opg.DefaultConfig()
	}
	s := &Server{
		cfg:   cfg,
		cache: plancache.New(cfg.CacheEntries),
		// The last-known-good store is twice the hot cache: a plan evicted
		// from the hot store under pressure is exactly the plan degraded
		// serving wants to still have when its re-solve fails.
		stale:   plancache.New(2 * cfg.CacheEntries),
		brk:     breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
		queue:   make(chan *job, cfg.QueueDepth),
		done:    make(chan struct{}),
		start:   time.Now(),
		warm:    make(map[string]struct{}),
		replans: newReplanStore(cfg.ReplanEntries),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the worker pool and fails any still-queued solves; waiters
// on those solves are released with errors. Stop accepting HTTP traffic
// before calling Close. Closing twice is a no-op.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.admitMu.Lock()
		close(s.done)
		s.admitMu.Unlock()
		s.wg.Wait()
		for {
			select {
			case j := <-s.queue:
				s.sf.complete(j.key, j.c, nil, errShutdown)
			default:
				return
			}
		}
	})
}

// Cache exposes the server's plan cache, the hot store.
func (s *Server) Cache() *plancache.Cache { return s.cache }

// LoadSnapshots warm-starts the hot store from plan-cache snapshot files —
// typically the merged FormatVersion-3 output of a sharded offline sweep
// (flashbench merge -cache-out). Every key present after the load is
// marked warm, so /plan responses and /statsz distinguish fleet-warmed
// plans from ones this process solved. Call before serving traffic.
func (s *Server) LoadSnapshots(paths ...string) (plancache.LoadStats, error) {
	stats, err := s.cache.LoadAll(paths...)
	s.warmMu.Lock()
	for _, k := range s.cache.Keys() {
		s.warm[k] = struct{}{}
	}
	s.warmMu.Unlock()
	return stats, err
}

// SaveSnapshot persists the hot store, warm and in-process solves alike,
// as a snapshot the next boot (or any flashbench run) can load.
func (s *Server) SaveSnapshot(path string) error { return s.cache.Save(path) }

// WarmPlans returns how many snapshot-loaded plans are marked warm.
func (s *Server) WarmPlans() int {
	s.warmMu.RLock()
	defer s.warmMu.RUnlock()
	return len(s.warm)
}

// Handler returns the HTTP API: POST /plan, GET /healthz, GET /statsz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", s.handlePlan)
	mux.HandleFunc("/replan", s.handleReplan)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// admit enqueues a leader's job without blocking. It fails with
// errShutdown once Close has begun (nothing would ever drain the job) and
// with errOverloaded when the queue is full.
func (s *Server) admit(j *job) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	select {
	case <-s.done:
		return errShutdown
	default:
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errOverloaded
	}
}

// worker executes admitted solves. Engine.Prepare re-checks the cache
// under singleflight, so a job enqueued just before another leader's
// result landed degrades to a cache hit instead of a duplicate solve.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case j := <-s.queue:
			s.ctr.inFlight.Add(1)
			if s.holdSolves != nil {
				select {
				case <-s.holdSolves:
				case <-s.done:
					s.ctr.inFlight.Add(-1)
					s.sf.complete(j.key, j.c, nil, errShutdown)
					continue
				}
			}
			t0 := time.Now()
			prep, err := s.solve(j)
			if err == nil && !prep.FromCache {
				s.solveHist.observe(time.Since(t0))
				// This process solved it, so the plan is no longer the
				// snapshot's: un-mark warm in case an evicted warm entry
				// was just re-solved.
				s.warmMu.Lock()
				delete(s.warm, j.key)
				s.warmMu.Unlock()
			}
			if err == nil {
				s.brk.success()
			} else {
				s.brk.failure()
			}
			s.ctr.inFlight.Add(-1)
			s.sf.complete(j.key, j.c, prep, err)
		}
	}
}

// solve runs one admitted job with panic containment: a panicking solver —
// real or injected — must cost exactly one request its result, not the
// worker goroutine (which would quietly shrink the pool until the server
// deadlocks with a full queue and nobody draining it).
func (s *Server) solve(j *job) (prep *core.Prepared, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.ctr.panics.Add(1)
			prep, err = nil, fmt.Errorf("solver panic: %v", r)
		}
	}()
	if inj := s.cfg.Injector; inj != nil {
		if err := inj.Err("server.solve"); err != nil {
			return nil, err
		}
		_ = inj.Delay(context.Background(), "server.solve")
		inj.MaybePanic("server.solve")
	}
	return j.eng.Prepare(j.g)
}

// PlanRequest is the POST /plan body. Device and Model address the
// evaluation matrix by name; Config optionally overrides the server's base
// solver configuration — and becomes part of the plan key, so distinct
// configurations are distinct cache entries.
type PlanRequest struct {
	Device string           `json:"device"`
	Model  string           `json:"model"`
	Config *SolverOverrides `json:"config,omitempty"`
}

// SolverOverrides are the per-request solver knobs. Nil fields keep the
// server's base configuration.
type SolverOverrides struct {
	MPeakMB        *int64   `json:"mpeak_mb,omitempty"`
	Lambda         *float64 `json:"lambda,omitempty"`
	ChunkKB        *int64   `json:"chunk_kb,omitempty"`
	Window         *int     `json:"window,omitempty"`
	SolveTimeoutMS *int64   `json:"solve_timeout_ms,omitempty"`
	MaxBranches    *int64   `json:"max_branches,omitempty"`
}

// apply layers the overrides onto base, validating as it goes.
func (o *SolverOverrides) apply(base opg.Config) (opg.Config, error) {
	if o == nil {
		return base, nil
	}
	if o.MPeakMB != nil {
		if *o.MPeakMB <= 0 {
			return base, fmt.Errorf("mpeak_mb must be positive")
		}
		base.MPeak = units.Bytes(*o.MPeakMB) * units.MB
	}
	if o.Lambda != nil {
		if *o.Lambda < 0 || *o.Lambda > 1 {
			return base, fmt.Errorf("lambda must be in [0, 1]")
		}
		base.Lambda = *o.Lambda
	}
	if o.ChunkKB != nil {
		if *o.ChunkKB <= 0 {
			return base, fmt.Errorf("chunk_kb must be positive")
		}
		base.ChunkSize = units.Bytes(*o.ChunkKB) * units.KB
	}
	if o.Window != nil {
		if *o.Window <= 0 {
			return base, fmt.Errorf("window must be positive")
		}
		base.Window = *o.Window
	}
	if o.SolveTimeoutMS != nil {
		if *o.SolveTimeoutMS <= 0 {
			return base, fmt.Errorf("solve_timeout_ms must be positive")
		}
		base.SolveTimeout = time.Duration(*o.SolveTimeoutMS) * time.Millisecond
	}
	if o.MaxBranches != nil {
		if *o.MaxBranches < 0 {
			return base, fmt.Errorf("max_branches must be non-negative")
		}
		base.MaxBranches = *o.MaxBranches
	}
	return base, nil
}

// Summary is the response's plan digest, mirroring flashmem.PlanSummary's
// planning-side fields.
type Summary struct {
	Layers          int     `json:"layers"`
	Weights         int     `json:"weights"`
	OverlapFraction float64 `json:"overlap_fraction"`
	PreloadMB       float64 `json:"preload_mb"`
	SolverStatus    string  `json:"solver_status"`
	SolverWindows   int     `json:"solver_windows"`
	SolverBranches  int64   `json:"solver_branches"`
}

// PlanResponse is the POST /plan success body. Plan carries the overlap
// plan in its stable wire format, compacted: byte-identical to the compact
// form (opg.Plan.Wire) of what a direct flashmem solve encodes for the
// same key. It is always present on a success body and always last.
type PlanResponse struct {
	Device string `json:"device"`
	Model  string `json:"model"`
	Key    string `json:"key"`

	// Source reports how the plan was produced: "warm" (fleet snapshot),
	// "cached" (solved earlier in this process), "solved" (this request's
	// solve), "collapsed" (rode another request's in-flight solve), or
	// "degraded" (last-known-good plan served because the solve path is
	// saturated, broken, or too slow right now).
	Source string `json:"source"`
	// DegradedReason is set only on degraded responses: which failure the
	// stale plan papered over — "queue_full", "circuit_open",
	// "solve_timeout", or "solve_failed" (the same vocabulary the
	// corresponding hard failures use as error codes).
	DegradedReason string  `json:"degraded_reason,omitempty"`
	FromCache      bool    `json:"from_cache"`
	WaitMS         float64 `json:"wait_ms"`

	Summary Summary         `json:"summary"`
	Plan    json.RawMessage `json:"plan,omitempty"`
}

// errorResponse is every non-200 body: prose for humans, a stable code
// for clients.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.ctr.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, t0, http.StatusMethodNotAllowed, false, codeMethodNotAllowed, "POST only")
		return
	}
	var req PlanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	dev, ok := device.ByName(req.Device)
	if !ok {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, fmt.Sprintf("unknown device %q", req.Device))
		return
	}
	spec, ok := models.ByAbbr(req.Model)
	if !ok {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, fmt.Sprintf("unknown model %q", req.Model))
		return
	}
	cfg, err := req.Config.apply(s.cfg.Solver)
	if err != nil {
		s.fail(w, t0, http.StatusBadRequest, false, codeBadRequest, fmt.Sprintf("bad config: %v", err))
		return
	}

	g := s.graphFor(spec)
	eng := s.engineFor(dev, cfg)
	key, cacheable := eng.PlanKey(g)
	if !cacheable { // unreachable with analytic capacities; fail loudly if it ever isn't
		s.fail(w, t0, http.StatusInternalServerError, false, codeInternal, "plan key not computable")
		return
	}

	// Hot path: the plan cache.
	if prep, ok := s.cache.Get(key); ok {
		s.serve(w, t0, &req, key, s.sourceForHit(key), prep)
		return
	}

	// Miss: collapse onto an in-flight solve or lead a new one through
	// admission control. The circuit breaker gates only the leader — a
	// follower adds no solver load, and an open breaker must not strand
	// requests that can ride an already-running solve.
	c, leader := s.sf.join(key)
	if leader {
		if !s.brk.allow() {
			// Failing the call also releases any followers that joined
			// between join and here — same as the refusal path below.
			s.sf.complete(key, c, nil, errCircuitOpen)
		} else if err := s.admit(&job{key: key, eng: eng, g: g, c: c}); err != nil {
			// Queue full or shutting down. A granted breaker probe that
			// never reached the solver says nothing about its health.
			s.brk.cancelProbe()
			s.sf.complete(key, c, nil, err)
		}
	}

	timer := time.NewTimer(s.cfg.SolveTimeout)
	defer timer.Stop()
	s.ctr.waiting.Add(1)
	select {
	case <-c.done:
		s.ctr.waiting.Add(-1)
	case <-timer.C:
		s.ctr.waiting.Add(-1)
		// Stale-while-revalidate: the solve continues in the background
		// and will refresh the cache; a last-known-good plan for the key
		// is byte-identical to what that solve will produce (the solver is
		// deterministic), so serving it beats making the client wait again.
		if s.serveDegraded(w, t0, &req, key, codeSolveTimeout) {
			return
		}
		s.ctr.timedOut.Add(1)
		s.retryFail(w, t0, http.StatusGatewayTimeout, codeSolveTimeout,
			"solve exceeded the per-request timeout; it continues in the background and will be served from cache on retry")
		return
	case <-r.Context().Done():
		s.ctr.waiting.Add(-1)
		// Client gone; the solve (if any) still completes and warms the
		// cache. Nothing useful to write.
		s.serveHist.observe(time.Since(t0))
		return
	}

	switch {
	case c.err == nil:
		src := "collapsed"
		if leader {
			src = "solved"
			if c.prep.FromCache {
				// The rare post-complete race: this leader's job found the
				// key already cached by the previous leader's solve.
				src = "cached"
			}
		}
		s.serve(w, t0, &req, key, src, c.prep)
	case errors.Is(c.err, errOverloaded):
		if s.serveDegraded(w, t0, &req, key, codeQueueFull) {
			return
		}
		s.ctr.rejected.Add(1)
		s.retryFail(w, t0, http.StatusTooManyRequests, codeQueueFull, "solve queue full")
	case errors.Is(c.err, errCircuitOpen):
		if s.serveDegraded(w, t0, &req, key, codeCircuitOpen) {
			return
		}
		s.ctr.breakerRejects.Add(1)
		s.retryFail(w, t0, http.StatusServiceUnavailable, codeCircuitOpen,
			"circuit breaker open: recent solves failed; retry after the cooldown")
	case errors.Is(c.err, errShutdown):
		s.fail(w, t0, http.StatusServiceUnavailable, true, codeShuttingDown, "server shutting down")
	default:
		if s.serveDegraded(w, t0, &req, key, codeSolveFailed) {
			return
		}
		s.ctr.solveErrors.Add(1)
		s.fail(w, t0, http.StatusInternalServerError, false, codeSolveFailed, fmt.Sprintf("solve failed: %v", c.err))
	}
}

// serveDegraded answers with the last-known-good plan for the key, labeled
// "degraded", when one exists — the stale-while-revalidate fallback for
// queue saturation, an open breaker, a failed or panicked solve, and a
// timed-out wait. Plans are deterministic per key, so a stale plan is not
// approximately right, it is *the* plan; only its provenance differs.
// reason records which failure was papered over; it rides in the response
// and the /statsz degraded_reasons breakdown.
func (s *Server) serveDegraded(w http.ResponseWriter, t0 time.Time, req *PlanRequest, key, reason string) bool {
	prep, ok := s.stale.Get(key)
	if !ok {
		return false
	}
	s.ctr.degradedReason(reason).Add(1)
	s.serveReason(w, t0, req, key, "degraded", reason, prep)
	return true
}

// sourceForHit labels a cache hit warm or cached.
func (s *Server) sourceForHit(key string) string {
	s.warmMu.RLock()
	_, warm := s.warm[key]
	s.warmMu.RUnlock()
	if warm {
		return "warm"
	}
	return "cached"
}

// serve writes the success response and does the per-source accounting.
func (s *Server) serve(w http.ResponseWriter, t0 time.Time, req *PlanRequest, key, source string, prep *core.Prepared) {
	s.serveReason(w, t0, req, key, source, "", prep)
}

// serveReason is serve with a degraded_reason attached (degraded responses
// only; empty otherwise).
func (s *Server) serveReason(w http.ResponseWriter, t0 time.Time, req *PlanRequest, key, source, reason string, prep *core.Prepared) {
	switch source {
	case "warm":
		s.ctr.warmHits.Add(1)
	case "cached":
		s.ctr.hits.Add(1)
	case "solved":
		s.ctr.solves.Add(1)
	case "collapsed":
		s.ctr.collapsed.Add(1)
	case "degraded":
		s.ctr.degraded.Add(1)
	}
	if source != "degraded" {
		// Every healthy serve refreshes the last-known-good store. It is
		// bounded separately from the hot cache, so an eviction there does
		// not take the degraded fallback with it.
		s.stale.Put(key, prep)
	}
	// A hit serves the plan bytes its store keeps beside the entry, encoded
	// on the entry's first hit: everything in them depends only on the key.
	// A fresh solve encodes its plan once and keeps nothing, so plans that
	// are never asked for again cost no memory beyond the entry.
	var wire []byte
	var err error
	switch source {
	case "warm", "cached":
		wire, err = s.cache.Wire(key, prep)
	case "degraded":
		wire, err = s.stale.Wire(key, prep)
	default:
		wire, err = prep.Plan.Wire()
	}
	if err != nil {
		s.fail(w, t0, http.StatusInternalServerError, false, codeInternal, fmt.Sprintf("encode plan: %v", err))
		return
	}
	resp := PlanResponse{
		Device:         req.Device,
		Model:          req.Model,
		Key:            key,
		Source:         source,
		DegradedReason: reason,
		FromCache:      source != "solved",
		WaitMS:         float64(time.Since(t0)) / float64(time.Millisecond),
		Summary: Summary{
			Layers:          prep.Graph.Len(),
			Weights:         len(prep.Plan.Weights),
			OverlapFraction: prep.Plan.OverlapFraction(),
			PreloadMB:       prep.Plan.PreloadBytes().MiB(),
			SolverStatus:    prep.Plan.Stats.Status.String(),
			SolverWindows:   prep.Plan.Stats.Windows,
			SolverBranches:  prep.Plan.Stats.Branches,
		},
	}
	s.writeWithPlan(w, t0, &resp, wire)
}

// writeWithPlan writes a success body: resp, a PlanResponse or
// ReplanResponse with Plan left empty (and so omitted), with wire spliced
// in as its final "plan" field. The body is byte-identical to
// json.NewEncoder(w).Encode of resp with Plan set to wire — wire is
// already compact, so the encoder's re-compaction of it would change
// nothing — but the plan is neither copied nor re-scanned.
func (s *Server) writeWithPlan(w http.ResponseWriter, t0 time.Time, resp any, wire []byte) {
	head, err := json.Marshal(resp)
	if err != nil {
		s.fail(w, t0, http.StatusInternalServerError, false, codeInternal, fmt.Sprintf("encode response: %v", err))
		return
	}
	s.serveHist.observe(time.Since(t0))
	w.Header().Set("Content-Type", "application/json")
	// Write errors mean the client went away mid-write; nothing to do.
	_, _ = w.Write(head[:len(head)-1])
	_, _ = io.WriteString(w, `,"plan":`)
	_, _ = w.Write(wire)
	_, _ = io.WriteString(w, "}\n")
}

// fail writes an error response; retryable failures get a Retry-After.
func (s *Server) fail(w http.ResponseWriter, t0 time.Time, status int, retryable bool, ecode, msg string) {
	if status == http.StatusBadRequest || status == http.StatusMethodNotAllowed {
		s.ctr.badRequests.Add(1)
	}
	s.serveHist.observe(time.Since(t0))
	w.Header().Set("Content-Type", "application/json")
	if retryable {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg, Code: ecode})
}

// retryFail is fail with a Retry-After — the verdicts (429 queue full,
// 504 solve timeout, 503 breaker open or shutdown) where the client's
// correct next move is the same request again, later.
func (s *Server) retryFail(w http.ResponseWriter, t0 time.Time, status int, ecode, msg string) {
	s.fail(w, t0, status, true, ecode, msg)
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status        string `json:"status"`
	SolverVersion string `json:"solver_version"`
	WarmPlans     int    `json:"warm_plans"`
	CachedPlans   int    `json:"cached_plans"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(HealthResponse{
		Status:        "ok",
		SolverVersion: opg.SolverVersion,
		WarmPlans:     s.WarmPlans(),
		CachedPlans:   s.cache.Len(),
	})
}

// StatsSnapshot is the GET /statsz body: request accounting (the first
// block sums to Requests), live gauges, plan-cache counters, and latency
// histograms. SolveLatency counts actual solver executions, so its Count
// is the number of solves this process ran regardless of how their
// requests ended.
type StatsSnapshot struct {
	SolverVersion string  `json:"solver_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests  int64 `json:"requests"`
	WarmHits  int64 `json:"warm_hits"`
	Hits      int64 `json:"hits"`
	Collapsed int64 `json:"collapsed"`
	Solves    int64 `json:"solves"`
	Degraded  int64 `json:"degraded"`
	// DegradedReasons breaks Degraded down by the failure each stale serve
	// papered over (queue_full, circuit_open, solve_timeout, solve_failed);
	// zero rows are omitted.
	DegradedReasons map[string]int64 `json:"degraded_reasons,omitempty"`
	SolveErrors     int64            `json:"solve_errors"`
	SolverPanics    int64            `json:"solver_panics"`
	Rejected        int64            `json:"rejected"`
	BreakerRejects  int64            `json:"breaker_rejects"`
	TimedOut        int64            `json:"timed_out"`
	BadRequests     int64            `json:"bad_requests"`

	Breaker    string `json:"breaker"`     // closed | open | half-open
	QueueDepth int64  `json:"queue_depth"` // admitted, waiting for a worker
	InFlight   int64  `json:"in_flight"`   // executing on a worker
	Waiting    int64  `json:"waiting"`     // requests parked on a solve
	WarmPlans  int    `json:"warm_plans"`

	Cache plancache.Stats `json:"cache"`

	// Replan aggregates the /replan degradation-ladder outcomes: how many
	// plans each rung produced and how much solve work repair avoided
	// (windows kept vs re-solved).
	Replan ReplanStats `json:"replan"`

	SolveLatency   HistogramSnapshot `json:"solve_latency"`
	RequestLatency HistogramSnapshot `json:"request_latency"`
}

// Stats snapshots the server's counters (also served at /statsz).
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		SolverVersion:   opg.SolverVersion,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.ctr.requests.Load(),
		WarmHits:        s.ctr.warmHits.Load(),
		Hits:            s.ctr.hits.Load(),
		Collapsed:       s.ctr.collapsed.Load(),
		Solves:          s.ctr.solves.Load(),
		Degraded:        s.ctr.degraded.Load(),
		DegradedReasons: s.ctr.degradedReasons(),
		SolveErrors:     s.ctr.solveErrors.Load(),
		SolverPanics:    s.ctr.panics.Load(),
		Rejected:        s.ctr.rejected.Load(),
		BreakerRejects:  s.ctr.breakerRejects.Load(),
		TimedOut:        s.ctr.timedOut.Load(),
		BadRequests:     s.ctr.badRequests.Load(),
		Breaker:         s.brk.snapshot(),
		QueueDepth:      int64(len(s.queue)),
		InFlight:        s.ctr.inFlight.Load(),
		Waiting:         s.ctr.waiting.Load(),
		WarmPlans:       s.WarmPlans(),
		Cache:           s.cache.Stats(),
		Replan: ReplanStats{
			Requests:        s.replanCtr.requests.Load(),
			Repaired:        s.replanCtr.repaired.Load(),
			Cold:            s.replanCtr.cold.Load(),
			CachedVariant:   s.replanCtr.cachedVariant.Load(),
			Patched:         s.replanCtr.patched.Load(),
			WindowsKept:     s.replanCtr.windowsKept.Load(),
			WindowsResolved: s.replanCtr.windowsResolved.Load(),
			Lineages:        s.replans.Len(),
		},
		SolveLatency:   s.solveHist.snapshot(),
		RequestLatency: s.serveHist.snapshot(),
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

// graphEntry memoizes one model's built graph: requests share the lowered
// graph read-only (exactly as cache-hit Prepared values already share
// their fused graphs), so the per-request cost of a warm hit is key
// hashing, not graph construction.
type graphEntry struct {
	once sync.Once
	g    *graph.Graph
}

func (s *Server) graphFor(spec models.Spec) *graph.Graph {
	e, _ := s.graphs.LoadOrStore(spec.Abbr, &graphEntry{})
	ge := e.(*graphEntry)
	ge.once.Do(func() { ge.g = spec.Build() })
	return ge.g
}

// engineFor builds the per-request engine: engines are two words of config
// around stateless cost/capacity models, so construction is cheaper than
// tracking a pool, and every engine shares the one plan cache.
func (s *Server) engineFor(dev device.Device, cfg opg.Config) *core.Engine {
	o := core.DefaultOptions(dev)
	o.Config = cfg
	o.Cache = s.cache
	return core.NewEngine(o)
}
