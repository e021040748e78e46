// Command flashbench regenerates the paper's tables and figures on the
// simulated device. Experiments fan out over a bounded worker pool, an
// optional plan-cache snapshot warm-starts the solver across invocations,
// and the experiment matrix can be partitioned across processes with
// -shard, then joined back with the merge subcommand.
//
// Usage:
//
//	flashbench -exp all                 # everything, in parallel
//	flashbench -exp table7,table8      # specific experiments
//	flashbench -exp fig6 -iters 10     # the multi-model trace
//	flashbench -models ViT,ResNet      # restrict the model set
//	flashbench -budget 500ms           # per-window CP budget
//	flashbench -jobs 4 -workers 2      # 4 experiments × 2 cells each
//	flashbench -cache plans.json       # persist solved plans across runs
//	flashbench -trace-gen churn.json -trace-seed 7   # seeded device-churn trace
//	flashbench -trace churn.json       # replay it through the resilience engine
//
// Sharded runs partition every experiment's cell matrix across processes;
// each shard writes machine-readable partial results (and, with -cache,
// its own plan-cache snapshot), and merge joins them into output identical
// to a single-process run:
//
//	flashbench -shard 0/3 -partial partial-0.json -cache cache-0.json
//	flashbench -shard 1/3 -partial partial-1.json -cache cache-1.json
//	flashbench -shard 2/3 -partial partial-2.json -cache cache-2.json
//	flashbench merge -caches cache-0.json,cache-1.json,cache-2.json \
//	    -cache-out merged.json partial-0.json partial-1.json partial-2.json
//
// Coordinated runs replace the static partition with a coordinator that
// deals cost-sized cell batches to pulling workers (work stealing and
// straggler re-dealing included) and prints the merged tables itself:
//
//	flashbench -coordinator 127.0.0.1:9355 -seed-costs nightly.json \
//	    -cache merged.json -stats-out coord-stats.json
//	flashbench -worker http://127.0.0.1:9355   # × N, any machines
//
// Workers take the experiment list from the coordinator; every other
// result-affecting flag (-models, -budget, -branches, -iters) must
// match the coordinator's, which is enforced by a configuration fingerprint.
//
// Experiment ids: table1 table4 table6 table7 table8 table9 fig2 fig6 fig7
// fig8 fig9 fig10 warmstart abl-chunk abl-window abl-fallback abl-cache
// abl-capacity.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/opg"
	"repro/internal/plancache"
	"repro/internal/sweep"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "merge" {
		if err := runMerge(args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "flashbench merge: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runBench(args); err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: %v\n", err)
		os.Exit(1)
	}
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("flashbench", flag.ExitOnError)
	exp := fs.String("exp", "all", "comma-separated experiment ids (or 'all')")
	modelsFlag := fs.String("models", "", "comma-separated Table 6 abbreviations (default: all 11)")
	budget := fs.Duration("budget", 100*time.Millisecond, "per-window CP solve budget")
	branches := fs.Int64("branches", 8000, "per-window CP branch budget")
	opgParallel := fs.Int("opg-parallel", 0, "LC-OPG speculative window pipeline workers (0/1 = sequential); plans are byte-identical at any setting")
	iters := fs.Int("iters", 10, "multi-model iterations for fig6")
	jobs := fs.Int("jobs", 1, "experiments run concurrently; >1 multiplies with -workers and oversubscribes the CPU, which can starve wall-clock CP budgets and shift solver fallback rates")
	workers := fs.Int("workers", 0, "sweep cells per experiment run concurrently (0 = GOMAXPROCS)")
	cachePath := fs.String("cache", "", "plan-cache snapshot: loaded at start, saved at exit")
	shardFlag := fs.String("shard", "", "run only shard i/N of every experiment's cell matrix (e.g. 0/3)")
	partialPath := fs.String("partial", "", "write machine-readable partial results (JSON) here instead of rendering tables")
	coordAddr := fs.String("coordinator", "", "listen address (e.g. 127.0.0.1:9355): serve the experiment matrix as a coordinated sweep to pulling workers, then print the merged tables")
	workerURL := fs.String("worker", "", "coordinator URL (e.g. http://127.0.0.1:9355): pull and run cell batches; the experiment list comes from the coordinator, every other result-affecting flag must match its")
	workerName := fs.String("worker-name", "", "worker identity in coordinator stats (default hostname-pid)")
	seedCosts := fs.String("seed-costs", "", "comma-separated plan-cache snapshots whose recorded solve costs seed coordinator batch sizing")
	coordWorkers := fs.Int("coordinator-workers", 3, "expected worker count — a batch-sizing hint, not a limit")
	leaseTimeout := fs.Duration("lease-timeout", 2*time.Minute, "how long a worker may hold a batch before the coordinator re-deals it")
	statsOut := fs.String("stats-out", "", "write the coordinator's final per-worker batch/steal/retry stats (JSON) here")
	journalPath := fs.String("journal", "", "coordinator lease journal: accepted results are appended here, and a restarted coordinator resumes the sweep from it instead of starting over")
	chaosFlag := fs.Bool("chaos", false, "run the fault-injection soak (coordinator + workers + plan server under a seeded fault schedule) instead of experiments; exits non-zero on any invariant violation")
	chaosSeed := fs.Int64("chaos-seed", 1, "chaos fault-schedule seed; the same seed replays the same per-site fault sequence")
	chaosCells := fs.Int("chaos-cells", 0, "chaos sweep cells per group (0 = small CI-sized soak)")
	chaosRequests := fs.Int("chaos-requests", 0, "chaos serving-leg request count (0 = small CI-sized soak)")
	chaosReport := fs.String("chaos-report", "", "write the chaos run's machine-readable report (JSON) here")
	traceFlag := fs.String("trace", "", "replay a device-condition trace file through the resilience engine instead of experiments; exits non-zero on any invariant violation")
	traceGen := fs.String("trace-gen", "", "generate a seeded device-condition trace, write it here, and exit (with -trace: generate then replay)")
	traceSeed := fs.Uint64("trace-seed", 1, "trace generator seed; the same seed and device produce the identical trace")
	traceEvents := fs.Int("trace-events", 0, "trace generator event count (0 = generator default)")
	traceDevice := fs.String("trace-device", "OnePlus 12", "device profile for -trace-gen and -trace replay; replay refuses a trace whose device fingerprint differs")
	traceReport := fs.String("trace-report", "", "write the trace replay's machine-readable report (JSON) here")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosFlag {
		return runChaos(*chaosSeed, *chaosCells, *chaosRequests, *chaosReport)
	}
	if *traceFlag != "" || *traceGen != "" {
		return runTrace(traceOpts{
			replayPath: *traceFlag,
			genPath:    *traceGen,
			seed:       *traceSeed,
			events:     *traceEvents,
			deviceName: *traceDevice,
			reportPath: *traceReport,
		})
	}
	if *coordAddr != "" && *workerURL != "" {
		return fmt.Errorf("-coordinator and -worker are mutually exclusive")
	}
	if (*coordAddr != "" || *workerURL != "") && (*shardFlag != "" || *partialPath != "") {
		return fmt.Errorf("coordinated mode replaces -shard/-partial: the coordinator partitions and merges by itself")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	sh := sweep.Full()
	if *shardFlag != "" {
		var err error
		if sh, err = sweep.ParseShard(*shardFlag); err != nil {
			return err
		}
	}
	if !sh.IsFull() && *partialPath == "" {
		return fmt.Errorf("-shard %s needs -partial: a shard's rows only become tables after merge", sh)
	}

	// Bound the cache well above the full evaluation matrix (a few dozen
	// plans) so a merged multi-shard snapshot warm-starts completely; the
	// default 512-entry bound could evict part of a large merge.
	cache := plancache.New(8192)
	if *cachePath != "" {
		stats, err := cache.LoadAll(*cachePath)
		if err != nil {
			return err
		}
		if stats.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "flashbench: snapshot %s: %d stale or undecodable plans dropped\n",
				*cachePath, stats.Dropped)
		}
		if stats.Evicted > 0 {
			fmt.Fprintf(os.Stderr, "flashbench: snapshot %s exceeds the cache bound: %d plans evicted; warm start incomplete\n",
				*cachePath, stats.Evicted)
		}
	}

	cfg := experiments.DefaultConfig()
	cfg.SolveTimeout = *budget
	cfg.MaxBranches = *branches
	cfg.Iterations = *iters
	cfg.Workers = *workers
	cfg.OPGParallelism = *opgParallel
	cfg.PlanCache = cache
	if *modelsFlag != "" {
		cfg.Models = strings.Split(*modelsFlag, ",")
	}
	r := experiments.NewRunner(cfg)

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.AllIDs()
	}
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}

	if *coordAddr != "" {
		fp := fingerprint(ids, *modelsFlag, *budget, *branches, *iters)
		return runCoordinator(r, ids, fp, coordinatorOpts{
			addr:         *coordAddr,
			seedCosts:    *seedCosts,
			workers:      *coordWorkers,
			leaseTimeout: *leaseTimeout,
			statsOut:     *statsOut,
			cachePath:    *cachePath,
			journal:      *journalPath,
		})
	}
	if *workerURL != "" {
		return runWorkerMode(r, cache, workerOpts{
			coordinator: *workerURL,
			name:        *workerName,
			cachePath:   *cachePath,
			modelsFlag:  *modelsFlag,
			budget:      *budget,
			branches:    *branches,
			iters:       *iters,
		})
	}

	var runErr error
	if *partialPath != "" {
		// Shard mode: emit machine-readable rows for the merge step.
		fp := fingerprint(ids, *modelsFlag, *budget, *branches, *iters)
		p, err := experiments.RunPartial(r, ids, sh, *jobs, fp)
		if err == nil {
			err = experiments.WritePartial(*partialPath, p)
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "flashbench: shard %s: wrote %d experiments to %s\n",
				sh, len(p.Experiments), *partialPath)
		}
		runErr = err
	} else {
		// Experiments run concurrently but print in the requested order. On
		// failure the completed experiments are still printed and the cache
		// still saved — a multi-minute run's work is not discarded.
		outs, err := sweep.Map(context.Background(), *jobs, ids, func(_ context.Context, _ int, id string) (string, error) {
			d, ok := experiments.DriverByID(id)
			if !ok {
				return "", fmt.Errorf("unknown experiment id %q", id)
			}
			out, err := d.Output(r)
			if err != nil {
				return "", fmt.Errorf("%s: %w", id, err)
			}
			return out, nil
		})
		for _, out := range outs {
			if out != "" {
				fmt.Println(out)
			}
		}
		runErr = err
	}

	if *cachePath != "" {
		if saveErr := cache.Save(*cachePath); saveErr != nil {
			return saveErr
		}
		s := cache.Stats()
		fmt.Fprintf(os.Stderr, "flashbench: plan cache %d entries, %d hits / %d misses (%.0f%% hit rate)\n",
			s.Entries, s.Hits, s.Misses, s.HitRate()*100)
	}
	return runErr
}

// fingerprint summarizes the result-affecting configuration so merge can
// refuse to join partials from diverging runs — including shards produced
// by binaries with different solver generations. Concurrency knobs
// (-jobs, -workers, -opg-parallel) and cache paths are excluded: they
// change scheduling, not results (the speculative window pipeline commits
// byte-identical plans at any worker count).
func fingerprint(ids []string, models string, budget time.Duration, branches int64, iters int) string {
	return fmt.Sprintf("solver=%s exp=%s models=%s budget=%s branches=%d iters=%d",
		opg.SolverVersion, strings.Join(ids, ","), models, budget, branches, iters)
}

// coordinatorOpts carries the -coordinator mode's flag values.
type coordinatorOpts struct {
	addr         string
	seedCosts    string
	workers      int
	leaseTimeout time.Duration
	statsOut     string
	cachePath    string
	journal      string
}

// runCoordinator serves the experiment matrix as a coordinated sweep:
// cost-sized batches dealt to pulling workers, expired leases re-dealt,
// rows assembled and rendered through the same merge validation the
// partial-file path uses. With -cache, the workers' pushed plan-cache
// snapshots are merged there; with -stats-out, the per-worker accounting
// is written as JSON.
func runCoordinator(r *experiments.Runner, ids []string, fp string, o coordinatorOpts) error {
	var costs map[string]time.Duration
	if o.seedCosts != "" {
		var err error
		costs, err = plancache.ModelCosts(strings.Split(o.seedCosts, ",")...)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "flashbench: coordinator: solve-cost estimates for %d models from %s\n",
			len(costs), o.seedCosts)
	}
	grid, err := experiments.CoordinatorGrid(r, ids, fp, costs)
	if err != nil {
		return err
	}
	coord, err := sweep.NewCoordinator(sweep.CoordinatorConfig{
		Grid:         grid,
		Workers:      o.workers,
		LeaseTimeout: o.leaseTimeout,
		Journal:      o.journal,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	if resumed := coord.Stats().ResumedBatches; resumed > 0 {
		fmt.Fprintf(os.Stderr, "flashbench: coordinator: resumed %d completed batches from journal %s\n",
			resumed, o.journal)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "flashbench: coordinator: serving %d cells in %d groups at http://%s (fingerprint %q)\n",
		grid.Cells(), len(grid.Groups), ln.Addr(), fp)

	res, waitErr := coord.Wait(context.Background())
	if o.statsOut != "" {
		if err := writeStatsFile(o.statsOut, coord.Stats()); err != nil {
			if waitErr == nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "flashbench: coordinator: %v\n", err)
		}
	}
	if waitErr != nil {
		return waitErr
	}

	outs, err := experiments.CoordinatedOutputs(grid, res.Rows)
	if err != nil {
		return err
	}
	for _, out := range outs {
		if out.Text != "" {
			fmt.Println(out.Text)
		}
	}
	if o.cachePath != "" {
		// The merge is the last durable act of a sweep that may have taken
		// hours; a transient write failure (filesystem pressure, injected
		// fault) should not discard it. Deterministic failures — a conflict
		// or corrupt worker snapshot — just exhaust the retries quickly.
		retry := backoff.Policy{}
		var mergeErr error
		for attempt := 0; attempt < 3; attempt++ {
			if mergeErr = mergeWorkerSnapshots(o.cachePath, res.Snapshots); mergeErr == nil {
				break
			}
			fmt.Fprintf(os.Stderr, "flashbench: coordinator: snapshot merge attempt %d: %v\n", attempt+1, mergeErr)
			if err := retry.Sleep(context.Background(), attempt); err != nil {
				break
			}
		}
		if mergeErr != nil {
			return mergeErr
		}
	}
	s := res.Stats
	fmt.Fprintf(os.Stderr, "flashbench: coordinator: %d batches over %d workers, %d steals, %d retries, %d stale results\n",
		s.Batches, len(s.Workers), s.Steals, s.Retries, s.StaleResults)
	// Trailing workers may still be polling for their done signal; give
	// them a beat to hear it before the listener dies with the process.
	time.Sleep(time.Second)
	return nil
}

// runChaos executes the fault-injection soak and reports its verdict: exit
// zero only when every invariant held. Scale comes from -chaos-cells and
// -chaos-requests (zero selects the small CI-sized run); -chaos-seed picks
// the fault schedule, and a failing seed reruns the identical schedule.
func runChaos(seed int64, cells, requests int, reportPath string) error {
	dir, err := os.MkdirTemp("", "flashbench-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := chaos.Run(chaos.Config{
		Seed:     seed,
		Cells:    cells,
		Requests: requests,
		Dir:      dir,
		Log:      os.Stderr,
	})
	if rep != nil && reportPath != "" {
		data, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(reportPath, append(data, '\n'), 0o644)
		}
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "flashbench: chaos report: %v\n", jerr)
		}
	}
	if err != nil {
		return fmt.Errorf("chaos harness: %w", err)
	}
	if n := len(rep.Violations); n > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "flashbench: chaos: INVARIANT VIOLATED: %s\n", v)
		}
		return fmt.Errorf("chaos: %d invariant violation(s) under seed %d — rerun with -chaos-seed %d to replay the identical fault schedule", n, seed, seed)
	}
	fmt.Fprintf(os.Stderr, "flashbench: chaos: seed %d clean — %d faults fired, %d/%d requests served (%d degraded), %d batches resumed from journal\n",
		seed, len(rep.Events), rep.ServedOK, rep.Requests, rep.Degraded, rep.Sweep.ResumedBatches)
	return nil
}

// writeStatsFile saves the coordinator accounting — CI archives this next
// to the nightly BENCH files.
func writeStatsFile(path string, stats sweep.CoordinatorStats) error {
	data, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return fmt.Errorf("flashbench: encode stats: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("flashbench: write stats: %w", err)
	}
	return nil
}

// mergeWorkerSnapshots merges the plan-cache snapshots workers attached to
// their results into one file, keeping any plans already at path.
func mergeWorkerSnapshots(path string, snaps map[string][]byte) error {
	if len(snaps) == 0 {
		return fmt.Errorf("flashbench: coordinator: no worker snapshots to merge into %s", path)
	}
	dir, err := os.MkdirTemp("", "flashbench-worker-snaps-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var paths []string
	if _, err := os.Stat(path); err == nil {
		paths = append(paths, path)
	}
	i := 0
	for _, snap := range snaps {
		p := filepath.Join(dir, fmt.Sprintf("worker-%d.json", i))
		i++
		if err := os.WriteFile(p, snap, 0o644); err != nil {
			return err
		}
		paths = append(paths, p)
	}
	stats, err := plancache.MergeSnapshotFiles(path, paths...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flashbench: merged %d worker snapshots into %s: %d plans (%d deduplicated, %d dropped)\n",
		len(snaps), path, stats.Entries, stats.Replaced, stats.Dropped)
	return nil
}

// workerOpts carries the -worker mode's flag values.
type workerOpts struct {
	coordinator string
	name        string
	cachePath   string
	modelsFlag  string
	budget      time.Duration
	branches    int64
	iters       int
}

// runWorkerMode pulls and executes cell batches from a coordinator. The
// experiment list comes from the coordinator's grid; the worker recomputes
// the configuration fingerprint from its own flags over that list, so any
// result-affecting divergence is refused at the first lease.
func runWorkerMode(r *experiments.Runner, cache *plancache.Cache, o workerOpts) error {
	ctx := context.Background()
	grid, err := sweep.FetchGrid(ctx, nil, o.coordinator, backoff.Policy{})
	if err != nil {
		return err
	}
	ids := make([]string, len(grid.Groups))
	for i, g := range grid.Groups {
		ids[i] = g.ID
	}
	fp := fingerprint(ids, o.modelsFlag, o.budget, o.branches, o.iters)
	name := o.name
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	fmt.Fprintf(os.Stderr, "flashbench: worker %s: pulling %d cells in %d groups from %s\n",
		name, grid.Cells(), len(grid.Groups), o.coordinator)
	stats, err := sweep.RunWorker(ctx, sweep.WorkerConfig{
		Coordinator: o.coordinator,
		Name:        name,
		Fingerprint: fp,
		Exec:        experiments.WorkerExec(r),
		Snapshot:    cache.Snapshot,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flashbench: worker %s: %d batches (%d cells) accepted, %d stale, %d local errors\n",
		name, stats.Batches, stats.Cells, stats.Stale, stats.Errors)
	if o.cachePath != "" {
		if err := cache.Save(o.cachePath); err != nil {
			return err
		}
	}
	return nil
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("flashbench merge", flag.ExitOnError)
	caches := fs.String("caches", "", "comma-separated shard plan-cache snapshots to merge")
	cacheOut := fs.String("cache-out", "", "write the merged plan-cache snapshot here")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: flashbench merge [-caches a.json,b.json -cache-out merged.json] [partial.json ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	partials := fs.Args()
	if len(partials) == 0 && *caches == "" {
		return fmt.Errorf("nothing to merge: give partial files and/or -caches")
	}

	if *caches != "" {
		if *cacheOut == "" {
			return fmt.Errorf("-caches needs -cache-out")
		}
		stats, err := plancache.MergeSnapshotFiles(*cacheOut, strings.Split(*caches, ",")...)
		if err != nil {
			// The merge error names the snapshot files that disagree; add the
			// operator's next move so a failed CI merge is self-explanatory.
			return fmt.Errorf("%w (conflicting snapshots come from diverging runs — re-run the named shard with the shared fingerprint config, or drop its snapshot from -caches)", err)
		}
		fmt.Fprintf(os.Stderr, "flashbench: merged %d snapshots into %s: %d plans (%d deduplicated, %d dropped)\n",
			stats.Files, *cacheOut, stats.Entries, stats.Replaced, stats.Dropped)
	}

	if len(partials) > 0 {
		parts := make([]*experiments.Partial, len(partials))
		for i, path := range partials {
			p, err := experiments.ReadPartial(path)
			if err != nil {
				return err
			}
			parts[i] = p
		}
		outs, err := experiments.MergePartials(parts)
		if err != nil {
			return err
		}
		for _, out := range outs {
			if out.Text != "" {
				fmt.Println(out.Text)
			}
		}
	}
	return nil
}
