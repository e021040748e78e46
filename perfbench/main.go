// Command perfbench is the end-to-end benchmark of the FlashMem plan
// service. It drives the shipped flashmem-serve over loopback HTTP from
// one client process, checks every plan it is served, and prints one JSON
// result line:
//
//	sh perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//
// Workloads: serve-warm (warm /plan hits), plan-cold (cold planning of the
// 44-key matrix, with plan quality on the simulator) and replan-churn
// (/replan under memory-budget and thermal churn). With --trace 1 the run
// instead calls each layer's public functions in-process on the same
// inputs, records spans and counts, writes them to a file, and prints the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// bench is one benchmark run.
type bench struct {
	out     string // output directory for snapshots and span files
	bin     string // the flashmem-serve binary under test
	seed    uint64
	seconds time.Duration

	res result

	mu         sync.Mutex
	violations int
}

// violate records an output that failed a check. The run still finishes
// and reports correct=false.
func (b *bench) violate(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.violations++
	if b.violations <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-warm, plan-cold or replan-churn")
	seed := fs.Uint64("seed", 1, "input seed: key order and churn sequence")
	seconds := fs.Int("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	root := fs.String("root", ".", "repository root holding .bench_build/bin/flashmem-serve")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	b := &bench{
		out:     filepath.Join(*root, ".bench_build", "perfbench"),
		bin:     filepath.Join(*root, ".bench_build", "bin", "flashmem-serve"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
	}
	if err := b.run(*workload, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b.res.Correct = b.violations == 0
	line, err := json.Marshal(&b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (b *bench) run(workload string, traced bool) error {
	if _, err := os.Stat(b.bin); err != nil {
		return fmt.Errorf("server binary: %w (build it with perfbench/run.sh)", err)
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	if traced {
		return b.traced(workload)
	}
	switch workload {
	case "serve-warm":
		return b.serveWarm()
	case "plan-cold":
		return b.planCold()
	case "replan-churn":
		return b.replanChurn()
	}
	return fmt.Errorf("unknown workload %q", workload)
}

// settle collects the garbage the untimed preparation left behind, so it
// is not collected during timing.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}
