package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/graph"
	"repro/internal/opg"
)

// CacheStats counts plan-cache traffic.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Stores    int64
	Evictions int64
	Entries   int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanCache memoizes Prepare results across engines. Implementations must
// be safe for concurrent use; internal/plancache provides the standard LRU
// with persistence. Cached Prepared values are shared between callers and
// must be treated as immutable.
type PlanCache interface {
	Get(key string) (*Prepared, bool)
	Put(key string, p *Prepared)
	Stats() CacheStats
}

// PlanKey returns the deterministic cache key for preparing a graph on this
// engine: a hash of the solver version, the device profile, solver and
// fusion configuration, pipeline flags, capacity source, and the graph's
// content fingerprint. The second return is false when the engine cannot be
// fingerprinted — an anonymous custom Capacity with no CapacityKey — in
// which case Prepare skips the cache rather than risk stale hits.
//
// The opg.SolverVersion salt invalidates persisted plans across LC-OPG
// heuristic upgrades: a snapshot written by an older solver generation
// simply never hits, so stale plans are re-solved instead of silently
// reused.
//
// KernelRewriting is deliberately excluded: it shapes execution cost, not
// the plan, so engines differing only in rewriting share cache entries.
// Config.Parallelism is excluded for the same reason: the speculative
// window pipeline commits byte-identical plans at any worker count, so
// engines differing only in pipeline width share entries too.
func (e *Engine) PlanKey(g *graph.Graph) (string, bool) {
	return e.planKeySalted(opg.SolverVersion, g)
}

// planKeySalted is PlanKey with an explicit solver-version salt, split out
// so tests can prove that a version bump shifts every key.
func (e *Engine) planKeySalted(solverVersion string, g *graph.Graph) (string, bool) {
	capKey := "analytic"
	if e.opts.Capacity != nil {
		if e.opts.CapacityKey == "" {
			return "", false
		}
		capKey = "custom:" + e.opts.CapacityKey
	}
	d := e.opts.Device
	c := e.opts.Config
	f := e.opts.Fusion
	// Free-form strings are %q-quoted so a crafted Name or CapacityKey
	// cannot shift text across field delimiters and collide keys (the same
	// reason graph.Fingerprint length-prefixes its strings).
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"solver{%q}"+
			"dev{%q|%q|%q|%d|%d|%g|%g|%g|%g|%g|%d|%d|%g}"+
			"cfg{%d|%d|%g|%d|%d|%d|%g}"+
			"fus{%d|%g|%d|%d}"+
			"flags{%t|%t|%t}cap{%q}graph{%s}",
		solverVersion,
		d.Name, d.SoC, d.GPU, d.RAM, d.AppLimit,
		float64(d.DiskBW), float64(d.UMBW), float64(d.TMBW), float64(d.CacheBW),
		float64(d.Compute), d.SMs, d.MaxTexDim, float64(d.KernelLaunch),
		c.ChunkSize, c.MPeak, c.Lambda, c.Window, c.SolveTimeout, c.MaxBranches, c.SoftThreshold,
		f.MaxParts, f.Alpha, f.Rounds, f.SplitsPerRound,
		e.opts.BaseFusion, e.opts.AdaptiveFusion, e.opts.AdjustPrefetch,
		capKey, g.Fingerprint())))
	return hex.EncodeToString(h[:]), true
}
