// Command opgsolve runs the LC-OPG solver on one model and prints the plan
// statistics and a Table 4-style runtime breakdown.
//
// Usage:
//
//	opgsolve -model GPTN-1.3B
//	opgsolve -model Llama2-70B -timeout 150s -mpeak 2048
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/profiler"
	"repro/internal/units"
)

func main() {
	model := flag.String("model", "GPTN-S", "model abbreviation (Table 6 or Table 4 set)")
	timeout := flag.Duration("timeout", 250*time.Millisecond, "per-window CP time budget")
	branches := flag.Int64("branches", 20000, "per-window CP branch budget")
	mpeakMB := flag.Int64("mpeak", 500, "M_peak in MB (0 = adaptive only)")
	chunkMB := flag.Int64("chunk", 1, "chunk size S in MB")
	lambda := flag.Float64("lambda", 0.9, "objective weight λ")
	parallel := flag.Int("parallel", 0, "speculative window pipeline workers (0/1 = sequential)")
	flag.Parse()

	spec, ok := models.ByAbbr(*model)
	if !ok {
		for _, s := range models.SolverOnly() {
			if s.Abbr == *model {
				spec, ok = s, true
				break
			}
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "opgsolve: unknown model %q\n", *model)
		os.Exit(1)
	}

	g := spec.Build()
	cfg := opg.DefaultConfig()
	cfg.SolveTimeout = *timeout
	cfg.MaxBranches = *branches
	cfg.MPeak = units.Bytes(*mpeakMB) * units.MB
	cfg.ChunkSize = units.Bytes(*chunkMB) * units.MB
	cfg.Lambda = *lambda
	cfg.Parallelism = *parallel
	cfg = opg.AdaptMPeak(cfg, g)

	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	plan := opg.Solve(g, caps, cfg)
	st := plan.Stats

	fmt.Printf("Model:        %s (%d layers, %d weights, %v)\n",
		spec.Name, g.Len(), len(plan.Weights), g.TotalWeightBytes())
	fmt.Printf("M_peak:       %v   chunk: %v   lambda: %.2f\n", cfg.MPeak, cfg.ChunkSize, cfg.Lambda)
	fmt.Printf("Process nodes: %8.3f s\n", st.ProcessTime.Seconds())
	fmt.Printf("Build model:   %8.3f s\n", st.BuildTime.Seconds())
	fmt.Printf("Solve model:   %8.3f s\n", st.SolveTime.Seconds())
	fmt.Printf("Solver status: %s (%d windows, %d branches, %dk wakes, %dk trail ops)\n",
		st.Status, st.Windows, st.Branches, st.Wakes/1000, st.TrailOps/1000)
	fmt.Printf("Learning:      %d nogoods, %d restarts\n", st.Nogoods, st.Restarts)
	fmt.Printf("Conflicts:     %d analyzed, %d backjumps, %d lits minimized\n",
		st.Conflicts, st.Backjumps, st.MinimizedLits)
	if cfg.Parallelism > 1 {
		fmt.Printf("Pipeline:      %d speculative, %d recommitted of %d windows\n",
			st.Speculative, st.Recommitted, st.Windows)
	}
	fmt.Printf("Fallbacks:     soft=%d preload=%d greedy=%d\n",
		st.Fallbacks.SoftThreshold, st.Fallbacks.IncrementalPreload, st.Fallbacks.Greedy)
	fmt.Printf("Preload |W|:   %v (%d%% streamed)\n",
		plan.PreloadBytes(), int(plan.OverlapFraction()*100))
	fmt.Printf("Max in-flight: %v\n", plan.MaxInflightBytes(g.Len()))

	if err := plan.Validate(g, caps, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "opgsolve: plan INVALID: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("Plan validated: C0-C3 hold.")
}
