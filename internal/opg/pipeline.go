package opg

import (
	"sync"
)

// The speculative window pipeline. Windows are enumerated up front; the
// window at the commit frontier is always solved against the true
// committed state, while idle workers speculatively solve upcoming windows
// against the state visible at claim time — an optimistic prediction,
// since in-flight predecessors' consumption is missing from it. Commits
// happen strictly in window order: a speculative result is committed iff
// replaying its canonical read trace against the true state reproduces
// every value (see window.go), which guarantees the committed plan is
// byte-identical to a sequential solve; otherwise the window re-solves on
// the true state, exactly as the sequential path would have.
//
// Windows couple only through a depth-1 chain: window k+1's read range
// overlaps window k's write range but window k+2's never does, so a
// speculative solve fails validation only when its immediate predecessor
// consumed state the clamped reads actually depend on. Capacity-rich
// models therefore speculate near-perfectly, while contended ones degrade
// gracefully toward sequential re-solves.

// pipeState is the shared scheduler state, guarded by mu.
type pipeState struct {
	mu   sync.Mutex
	cond *sync.Cond

	workers  int
	frontier int // next window to commit
	claimed  []bool
	done     []*windowResult
	direct   []bool // result was solved on the true state (no validation needed)

	// rejectStreak throttles speculation: consecutive failed validations
	// mean the model is in a contended region where speculative solves are
	// doomed, and running them anyway steals CPU from the frontier
	// re-solves that actually make progress. While throttled, only an
	// occasional probe window speculates, so the pipeline notices when the
	// model leaves the contended region. Pure scheduling: the committed
	// plan is identical either way.
	rejectStreak int
}

// rejectThrottle is the streak at which speculation pauses, and probeEvery
// the window stride that still speculates while paused.
const (
	rejectThrottle = 3
	probeEvery     = 4
)

// speculationLookahead bounds how far past the frontier workers may claim:
// enough to keep every worker busy when speculation is succeeding, without
// piling up doomed solves when it is not.
func speculationLookahead(workers int) int { return 2 * workers }

// solveParallel runs the pipeline with the given worker count and commits
// results into the solver in window order.
func (s *solver) solveParallel(wins []window, workers int) {
	n := len(wins)
	if workers > n {
		workers = n
	}
	ps := &pipeState{
		workers: workers,
		claimed: make([]bool, n),
		done:    make([]*windowResult, n),
		direct:  make([]bool, n),
	}
	ps.cond = sync.NewCond(&ps.mu)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.pipelineWorker(wins, ps)
		}()
	}
	wg.Wait()
}

// pipelineWorker is one scheduler loop: commit what is committable, solve
// the frontier directly when nobody has it, otherwise speculate ahead.
func (s *solver) pipelineWorker(wins []window, ps *pipeState) {
	n := len(wins)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for ps.frontier < n {
		f := ps.frontier
		switch {
		case ps.done[f] != nil:
			// Commit the frontier. A direct result is the sequential solve
			// by construction; a speculative one commits only if its read
			// trace replays exactly against the true state (and its CP
			// budget never hit the wall clock — see windowResult).
			res := ps.done[f]
			if ps.direct[f] || (!res.wallClocked && replayOK(res, &s.cfg, s.capRemaining, s.inflight)) {
				if !ps.direct[f] {
					s.stats.Speculative++
					ps.rejectStreak = 0
				}
				s.apply(res)
				ps.frontier++
				ps.cond.Broadcast()
				continue
			}
			// Failed speculation: re-solve on the true state. No other
			// worker can commit (the frontier is ours), so the live arrays
			// are stable outside the lock.
			ps.done[f] = nil
			s.stats.Recommitted++
			ps.rejectStreak++
			ps.mu.Unlock()
			res = solveWindow(&s.cfg, wins[f], s.capRemaining, s.inflight, false)
			ps.mu.Lock()
			ps.done[f], ps.direct[f] = res, true
			ps.cond.Broadcast()

		case !ps.claimed[f]:
			// Nobody is solving the frontier: do it directly on the true
			// state (stable while this claim is outstanding, since commits
			// advance only through the frontier).
			ps.claimed[f] = true
			ps.mu.Unlock()
			res := solveWindow(&s.cfg, wins[f], s.capRemaining, s.inflight, false)
			ps.mu.Lock()
			ps.done[f], ps.direct[f] = res, true
			ps.cond.Broadcast()

		default:
			// Frontier in flight elsewhere: speculate on the next unclaimed
			// window against a snapshot of the current committed state.
			k := -1
			limit := f + speculationLookahead(ps.workers)
			if limit > n {
				limit = n
			}
			for i := f + 1; i < limit; i++ {
				if !ps.claimed[i] && (ps.rejectStreak < rejectThrottle || i%probeEvery == 0) {
					k = i
					break
				}
			}
			if k < 0 {
				ps.cond.Wait()
				continue
			}
			ps.claimed[k] = true
			snapCap := append([]int(nil), s.capRemaining...)
			snapIn := append([]int64(nil), s.inflight...)
			ps.mu.Unlock()
			res := solveWindow(&s.cfg, wins[k], snapCap, snapIn, true)
			ps.mu.Lock()
			ps.done[k] = res
			ps.cond.Broadcast()
		}
	}
	ps.cond.Broadcast() // wake peers so they observe the finished frontier
}
