package opg

// SolverVersion names the current generation of the LC-OPG heuristics: the
// candidate-window pruning, the tiered fallback ladder, and the greedy
// packer. It is baked into every plan-cache key (core.PlanKey) and recorded
// in persisted snapshots, so plans solved by an older generation are
// invalidated — they miss the cache and are re-solved — rather than
// silently reused after the heuristics change.
//
// Bump this string whenever a change to this package (or to the cpsat
// search it drives) can alter the plan produced for an identical input,
// or when the plan-key format changes. Config.Parallelism deliberately
// does NOT need a bump of its own: the speculative pipeline commits
// byte-identical plans at any worker count. The plan-stability pin
// (stability_test.go) records each version's plan digests and fails when a
// change moves a plan without a bump.
//
// lc-opg-6: CDCL is the only cpsat search; the plain and restart-scoped
// engines, the learning-mode selector and the warm-recommit mode are gone.
// Plans are byte-identical to lc-opg-5's default (CDCL) plans, but
// core.PlanKey no longer salts a learning mode, so the key format changed
// and lc-opg-5 snapshot keys can never hit. Removing the opt-in nogood
// transfer between repair re-solves kept this version: default solves never
// imported nogoods, and the pin's digests and search counters did not move.
//
// lc-opg-5: true CDCL in cpsat — a reason-recorded trail, first-UIP
// conflict analysis with self-subsumption minimization, non-chronological
// backjumping, and immediate clause installation with activity-managed
// database reduction. Search trajectories differ from lc-opg-4 on every
// budget-bound window, so incumbents (and thus plans) can change.
//
// lc-opg-4: conflict-driven cpsat (nld-nogood learning, Luby restarts,
// activity branching) plus the canonical clamped window-model build
// (C2/C3 limits clamped at their row ceilings) that the speculative
// pipeline's commit validation relies on — equally optimal plans may pick
// different assignments than lc-opg-3 did, and budget-bound windows may
// surface different incumbents.
//
// lc-opg-3: event-driven cpsat engine (watchlists, trail backtracking,
// most-constrained branching) plus the window-model root reduction
// (forced-variable fixing, duplicate C2 row merging).
const SolverVersion = "lc-opg-6"
