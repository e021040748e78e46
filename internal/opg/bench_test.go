package opg

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/profiler"
)

// Cold-solve benchmarks: a full LC-OPG run with no plan cache, the exact
// path every first-sight Prepare, solver-version bump, and cache-miss
// sweep cell pays. Budgets match bench_test.go's Table 4 runner so the
// numbers line up with BenchmarkTable4Solver. Run via `make bench-solver`;
// CI's nightly job archives the results as BENCH_solver.json.

func benchColdSolve(b *testing.B, spec models.Spec, parallelism int) {
	b.Helper()
	g := spec.Build()
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := DefaultConfig()
	cfg.SolveTimeout = 60 * time.Millisecond
	cfg.MaxBranches = 4000
	cfg.Parallelism = parallelism
	cfg = AdaptMPeak(cfg, g)
	b.ReportAllocs()
	b.ResetTimer()
	var plan *Plan
	for i := 0; i < b.N; i++ {
		plan = Solve(g, caps, cfg)
	}
	b.StopTimer()
	if err := plan.Validate(g, caps, cfg); err != nil {
		b.Fatalf("plan invalid: %v", err)
	}
	b.ReportMetric(float64(plan.Stats.Branches), "branches")
	b.ReportMetric(float64(plan.Stats.Wakes), "wakes")
	b.ReportMetric(plan.Stats.SolveTime.Seconds(), "solve-s")
	if parallelism > 1 {
		b.ReportMetric(float64(plan.Stats.Speculative), "spec-windows")
		b.ReportMetric(float64(plan.Stats.Recommitted), "recommits")
	}
}

// BenchmarkColdSolveLlama70B is the largest bundled model — the worst cold
// solve in Table 4.
func BenchmarkColdSolveLlama70B(b *testing.B) {
	benchColdSolve(b, models.SolverOnly()[2], 0)
}

func BenchmarkColdSolveViT8B(b *testing.B) {
	benchColdSolve(b, models.SolverOnly()[0], 0)
}

func BenchmarkColdSolveGPTNeoS(b *testing.B) {
	benchColdSolve(b, models.MustByAbbr("GPTN-S"), 0)
}

// Parallel variants run the speculative window pipeline at GOMAXPROCS;
// plans are byte-identical to the sequential runs above, so the delta is
// pure wall-clock. GPT-Neo-S is the capacity-rich case where speculation
// validates nearly always; Llama2-70B is the contended case where the
// adaptive throttle keeps doomed speculation from hurting.
func BenchmarkColdSolveLlama70BParallel(b *testing.B) {
	benchColdSolve(b, models.SolverOnly()[2], runtime.GOMAXPROCS(0))
}

func BenchmarkColdSolveGPTNeoSParallel(b *testing.B) {
	benchColdSolve(b, models.MustByAbbr("GPTN-S"), runtime.GOMAXPROCS(0))
}

// Contended variants: the default 500 MB M_peak is NOT adapted to the
// model, so every Llama2-70B window fights for in-flight headroom and the
// boundary windows exhaust their budgets — the family where failed
// speculation and recommits actually happen.
func benchContendedSolve(b *testing.B, parallelism int) {
	b.Helper()
	g := models.SolverOnly()[2].Build() // Llama2-70B
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := DefaultConfig()
	cfg.SolveTimeout = 60 * time.Millisecond
	cfg.MaxBranches = 4000
	cfg.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	var plan *Plan
	for i := 0; i < b.N; i++ {
		plan = Solve(g, caps, cfg)
	}
	b.StopTimer()
	if err := plan.Validate(g, caps, cfg); err != nil {
		b.Fatalf("plan invalid: %v", err)
	}
	b.ReportMetric(float64(plan.Stats.Branches), "branches")
	b.ReportMetric(plan.Stats.SolveTime.Seconds(), "solve-s")
	if parallelism > 1 {
		b.ReportMetric(float64(plan.Stats.Recommitted), "recommits")
	}
}

func BenchmarkColdSolveContended70B(b *testing.B) {
	benchContendedSolve(b, 0)
}

func BenchmarkColdSolveContended70BParallel(b *testing.B) {
	benchContendedSolve(b, runtime.GOMAXPROCS(0))
}
