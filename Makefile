# Targets mirror what .github/workflows/ci.yml runs: `make lint test-short`
# is the per-push job, `make test bench` is the nightly job, and
# `make shard-check` / `make coord-check` are the static-shard and
# coordinated-sweep jobs condensed into one machine.

GO ?= go

# The CI sharded-suite configuration: generous wall-clock budget with a
# binding branch budget keeps the solver deterministic across processes.
SWEEP_FLAGS ?= -exp table1,table6,table7,table8,fig8,warmstart,abl-cache \
	-models ViT,ResNet,GPTN-S -budget 5s -branches 1500

.PHONY: build test test-short bench bench-solver bench-server bench-trace bench-gate lint vet fmt fmt-check staticcheck shard-check coord-check chaos-check chaos-soak trace-check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The CP-SAT / LC-OPG perf trajectory: cpsat micro-benchmarks, cold
# opg.Solve on the bundled Table 4 models (sequential and speculative
# pipeline), and the Table 4 sweep itself. CI's nightly job archives the
# output (via cmd/benchjson) as BENCH_solver.json; the committed
# BENCH_solver.json at the repo root is the regression-gate baseline.
bench-solver:
	$(GO) test -run '^$$' -bench 'BenchmarkKnapsack|BenchmarkImplicationChain' -benchtime=3x ./internal/cpsat
	$(GO) test -run '^$$' -bench 'BenchmarkColdSolve' -benchtime=1x ./internal/opg
	$(GO) test -run '^$$' -bench 'BenchmarkTable4Solver' -benchtime=1x .

# The request-driven serving trajectory: sustained plan-requests/sec with
# p99 against a warm cache, the same path under client parallelism, and
# the end-to-end cold miss (queue + worker pool + solve) for contrast.
# CI's nightly job archives the output as BENCH_server.json.
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkPlanServe' -benchtime=100x ./internal/server

# The churn-resilience trajectory: incremental plan repair vs a cold
# re-solve on a Llama2-70B memory-budget drop (the headline repair ≪ cold
# claim), the greedy degradation patch, and repair under a thermal
# transition (every capacity changes, so this one honestly approaches a
# cold solve). CI's nightly job archives the output as BENCH_trace.json;
# the committed BENCH_trace.json is the regression-gate baseline.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkRepairBudgetDrop70B|BenchmarkColdSolveBudgetDrop70B|BenchmarkGreedyPatch70B|BenchmarkRepairThrottle70B' -benchtime=3x ./internal/opg

# The solver-perf regression gate (CI quick job): rerun the solver
# benchmarks and fail on any >2x ns/op regression against the committed
# baseline. The bench run lands in its own file first so a crashing
# benchmark fails the gate instead of being parsed away by the pipe, and
# the compare normalizes every ratio by the median ratio of the shared
# benchmarks — measured in the same run — so the baseline host's speed
# cancels, runner hardware spread is tolerated, and no single noisy
# sample can rescale the verdicts. Three scoping rules keep it sound:
# *Parallel benchmarks are advisory-only (ns/op scales with core count,
# which a scalar-speed reference cannot cancel); sub-50ms benchmarks are
# advisory for the wall-clock verdict (one GC pause can double a 6ms
# sample); and the deterministic `branches` counter is gated raw — it is
# machine- and noise-independent, so search-behavior regressions are
# caught even where wall-clock cannot be trusted. Known blind spot: a
# regression slowing every benchmark uniformly at unchanged branch counts
# is indistinguishable from a slow runner here; the nightly
# BENCH_solver.json artifacts exist to catch that by trajectory.
# The server leg's benchmarks all run under 50ms, so its wall clock is
# advisory and it gates the `allocs/op` counter raw instead: a warm hit's
# allocations (BenchmarkPlanServeWarm) are deterministic and are what a
# serving regression moves; *Parallel stays advisory, and ColdSolve
# reports no allocations. The trace leg gates the `resolved` window count.
# Refresh the baseline
# deliberately with `make bench-solver | go run ./cmd/benchjson >
# BENCH_solver.json` when a real solver change shifts the trajectory.
bench-gate:
	@tmp=$$(mktemp) && txt=$$(mktemp) && trap 'rm -f "$$tmp" "$$txt"' EXIT && \
	$(MAKE) --no-print-directory bench-solver > $$txt && \
	$(GO) run ./cmd/benchjson < $$txt > $$tmp && \
	$(GO) run ./cmd/benchjson compare -max-ratio 2.0 -ref median \
		-advisory Parallel -counter branches -min-ns 50000000 \
		BENCH_solver.json $$tmp
	@tmp=$$(mktemp) && txt=$$(mktemp) && trap 'rm -f "$$tmp" "$$txt"' EXIT && \
	$(MAKE) --no-print-directory bench-server > $$txt && \
	$(GO) run ./cmd/benchjson < $$txt > $$tmp && \
	$(GO) run ./cmd/benchjson compare -max-ratio 2.0 -ref median \
		-advisory Parallel -counter allocs/op -min-ns 50000000 \
		BENCH_server.json $$tmp
	@tmp=$$(mktemp) && txt=$$(mktemp) && trap 'rm -f "$$tmp" "$$txt"' EXIT && \
	$(MAKE) --no-print-directory bench-trace > $$txt && \
	$(GO) run ./cmd/benchjson < $$txt > $$tmp && \
	$(GO) run ./cmd/benchjson compare -max-ratio 2.0 -ref median \
		-advisory Parallel -counter resolved -min-ns 50000000 \
		BENCH_trace.json $$tmp

lint: fmt-check vet staticcheck

vet:
	$(GO) vet ./...

# Runs staticcheck when it is installed (CI installs it; locally it is
# optional).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Runs the experiment suite as three shards plus a merge, and checks the
# merged output is byte-identical to an unsharded run and that the merged
# plan-cache snapshot warm-starts with zero re-solves. Scratch space is a
# fresh mktemp dir so concurrent invocations cannot clobber each other.
shard-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/flashbench ./cmd/flashbench && \
	cd $$dir && \
	for i in 0 1 2; do \
		./flashbench $(SWEEP_FLAGS) -shard $$i/3 -partial partial-$$i.json -cache cache-$$i.json || exit 1; \
	done && \
	./flashbench merge -caches cache-0.json,cache-1.json,cache-2.json \
		-cache-out merged-cache.json partial-0.json partial-1.json partial-2.json > merged.txt && \
	./flashbench $(SWEEP_FLAGS) > full.txt && \
	diff full.txt merged.txt && \
	./flashbench $(SWEEP_FLAGS) -cache merged-cache.json > warm.txt 2> warm.log && \
	grep -q ' / 0 misses' warm.log && diff full.txt warm.txt && \
	echo "shard-check: merged output byte-identical; warm start had zero re-solves"

# Runs the experiment suite through the work-stealing coordinator with
# three local worker processes — the reference run's snapshot seeding
# batch sizing — and checks the coordinated output is byte-identical to
# the unsharded run and that the merged worker snapshots warm-start with
# zero re-solves. The CI coordinate job condensed into one machine.
coord-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/flashbench ./cmd/flashbench && \
	cd $$dir && \
	./flashbench $(SWEEP_FLAGS) -cache seed-cache.json > full.txt && \
	{ ./flashbench $(SWEEP_FLAGS) -coordinator 127.0.0.1:9355 \
		-seed-costs seed-cache.json -cache coord-cache.json \
		-stats-out coord-stats.json > coord.txt 2> coord.log & \
	  pid=$$!; \
	  for w in 1 2 3; do \
		./flashbench $(SWEEP_FLAGS) -worker http://127.0.0.1:9355 \
			-worker-name w$$w 2> worker-$$w.log & \
	  done; \
	  wait $$pid; } && \
	diff full.txt coord.txt && \
	./flashbench $(SWEEP_FLAGS) -cache coord-cache.json > warm.txt 2> warm.log && \
	grep -q ' / 0 misses' warm.log && diff full.txt warm.txt && \
	cat coord-stats.json && \
	echo "coord-check: coordinated output byte-identical; warm start had zero re-solves"

# The seeded fault-injection soak (CI quick job): coordinator + workers +
# plan server under an injected fault schedule — flaky worker HTTP,
# coordinator 500s and a mid-sweep coordinator crash/restart from the lease
# journal, failing/slow/panicking solves, short-written and corrupted
# snapshots — asserting no lost cells, output byte-identical to a fault-free
# run, every served plan byte-identical to a direct solve, Retry-After on
# every retryable response, and corrupt snapshots quarantined rather than
# fatal. Deterministic: CHAOS_SEED replays the identical fault schedule.
CHAOS_SEED ?= 1
chaos-check:
	$(GO) run ./cmd/flashbench -chaos -chaos-seed $(CHAOS_SEED)

# The nightly-sized soak: a larger grid and request budget, with the
# machine-readable report written for archiving.
chaos-soak:
	$(GO) run ./cmd/flashbench -chaos -chaos-seed $(CHAOS_SEED) \
		-chaos-cells 120 -chaos-requests 250 -chaos-report chaos-report.json

# The device-churn replay check (CI quick job): generate a short seeded
# device-condition trace (model load/unload, memory-budget steps, thermal
# throttling) and replay it end to end through the resilience engine —
# incremental repair, the degradation ladder, and shedding all exercised.
# flashbench exits non-zero on any invariant violation (a lost request, or
# a served plan invalid for the device state it was served under).
# Deterministic: TRACE_SEED replays the identical scenario.
TRACE_SEED ?= 7
trace-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/flashbench -trace-gen $$dir/churn.json \
		-trace-seed $(TRACE_SEED) -trace-events 60 \
		-trace $$dir/churn.json -trace-report $$dir/churn-report.json

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
