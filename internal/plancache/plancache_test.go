package plancache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/units"
)

// testOptions returns a small solver budget so tests stay quick. The
// branch budget binds long before the generous wall-clock budget, so two
// solves of one model are deterministic and comparable — a tight
// SolveTimeout would make the CP cutoff depend on scheduler noise.
func testOptions() core.Options {
	opts := core.DefaultOptions(device.OnePlus12())
	opts.Config.SolveTimeout = 5 * time.Second
	opts.Config.MaxBranches = 500
	return opts
}

func TestCacheHitReturnsIdenticalPlan(t *testing.T) {
	cache := New(0)
	opts := testOptions()
	opts.Cache = cache
	e := core.NewEngine(opts)
	g := models.MustByAbbr("ResNet").Build()

	cold, err := e.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Fatal("first Prepare unexpectedly served from cache")
	}
	warm, err := e.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("second Prepare missed the cache")
	}
	// The hit shares the cold solve's graph and plan — byte-identical by
	// construction, checked structurally too.
	if warm.Plan != cold.Plan || warm.Graph != cold.Graph {
		t.Error("cache hit returned different objects than the cold solve")
	}
	if !reflect.DeepEqual(warm.Plan.Weights, cold.Plan.Weights) {
		t.Error("per-weight schedules differ")
	}
	s := cache.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 store / 1 entry", s)
	}

	// A second engine with the same configuration shares the entry; a
	// different solver configuration must not.
	same := core.NewEngine(opts)
	p, err := same.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if !p.FromCache {
		t.Error("identical engine configuration missed the cache")
	}
	diff := testOptions()
	diff.Cache = cache
	diff.Config.Lambda = 0.5
	p2, err := core.NewEngine(diff).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if p2.FromCache {
		t.Error("different solver config falsely hit the cache")
	}
}

func TestCacheExecutionMatchesColdSolve(t *testing.T) {
	cache := New(0)
	opts := testOptions()
	opts.Cache = cache
	warm := core.NewEngine(opts)
	noCache := core.NewEngine(testOptions())
	g := models.MustByAbbr("DepthA-S").Build()

	if _, err := warm.Prepare(g); err != nil { // populate
		t.Fatal(err)
	}
	hit, err := warm.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.FromCache {
		t.Fatal("expected cache hit")
	}
	cold, err := noCache.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	hitRep, _ := warm.Execute(hit)
	coldRep, _ := noCache.Execute(cold)
	if hitRep.Integrated != coldRep.Integrated || hitRep.Mem != coldRep.Mem {
		t.Errorf("cached execution %+v != cold execution %+v", hitRep, coldRep)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	p := &core.Prepared{}
	c.Put("a", p)
	c.Put("b", p)
	if _, ok := c.Get("a"); !ok { // bump "a": now "b" is the LRU entry
		t.Fatal("a missing")
	}
	c.Put("c", p) // evicts "b"
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New(0)
	p := &core.Prepared{}
	c.Put("a", p)
	c.Put("b", p)
	c.Put("c", p)
	if _, ok := c.Get("a"); !ok { // bump "a" to the front
		t.Fatal("a missing")
	}
	got := c.Keys()
	want := []string{"a", "c", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keys() = %v, want MRU-first %v", got, want)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.json")

	cache := New(0)
	opts := testOptions()
	opts.Cache = cache
	e := core.NewEngine(opts)
	g := models.MustByAbbr("DepthA-S").Build()
	cold, err := e.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := e.PlanKey(cold.Graph)
	_ = key
	if !ok {
		t.Fatal("engine not fingerprintable")
	}
	if err := cache.Save(path); err != nil {
		t.Fatal(err)
	}

	// A fresh process: load the snapshot, expect a hit without solving.
	reloaded := New(0)
	if err := reloaded.Load(path); err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != cache.Len() {
		t.Fatalf("reloaded %d entries, want %d", reloaded.Len(), cache.Len())
	}
	opts2 := testOptions()
	opts2.Cache = reloaded
	e2 := core.NewEngine(opts2)
	warm, err := e2.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("reloaded cache missed")
	}
	if !reflect.DeepEqual(warm.Plan, cold.Plan) {
		t.Error("persisted plan differs from cold solve")
	}
	// Field by field rather than reflect.DeepEqual on the graphs: the cold
	// graph carries a memoized fingerprint (PlanKey above computed it), the
	// reloaded one does not yet.
	if warm.Graph.Name != cold.Graph.Name || warm.Graph.DType != cold.Graph.DType ||
		!reflect.DeepEqual(warm.Graph.Nodes(), cold.Graph.Nodes()) {
		t.Error("persisted fused graph differs from cold solve")
	}

	// Executing the round-tripped preparation reproduces the cold run.
	warmRep, _ := e2.Execute(warm)
	coldRep, _ := e.Execute(cold)
	if warmRep.Integrated != coldRep.Integrated || warmRep.Mem != coldRep.Mem {
		t.Errorf("round-tripped execution %+v != cold %+v", warmRep, coldRep)
	}
}

func TestLoadMissingFileIsColdStart(t *testing.T) {
	c := New(0)
	if err := c.Load(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatalf("missing snapshot should not error: %v", err)
	}
	if c.Len() != 0 {
		t.Errorf("entries = %d, want 0", c.Len())
	}
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.json")
	c := New(0)
	c.Put("k", &core.Prepared{Graph: models.MustByAbbr("ResNet").Build()})
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	// Rewrite the version field to a future value.
	data := fmt.Sprintf(`{"version":%d,"entries":[]}`, FormatVersion+1)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(0).Load(path); err == nil {
		t.Fatal("version mismatch not rejected")
	}
}

// writeV4 hand-crafts a checksum-valid FormatVersion snapshot from raw
// entries JSON, bypassing Save, so tests can build stale-solver and
// damaged-entry payloads whose checksums still verify.
func writeV4(t *testing.T, path, solver, entriesJSON string) {
	t.Helper()
	data := fmt.Sprintf(`{"version":%d,"solver":%q,"checksum":%q,"entries":%s}`,
		FormatVersion, solver, checksum([]byte(entriesJSON)), entriesJSON)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A nil-plan entry in a checksum-valid snapshot is in-payload damage the
// CRC cannot see; strict decoding must catch it, and the boot path must
// quarantine the file and start cold rather than reject the boot.
func TestLoadQuarantinesEntryWithoutPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	writeV4(t, path, opg.SolverVersion,
		`[{"key":"k","graph":{"name":"g","dtype":0,"nodes":[]},"plan":null}]`)
	c := New(0)
	stats, err := c.LoadAll(path)
	if err != nil {
		t.Fatalf("corrupt snapshot must degrade, not error: %v", err)
	}
	if c.Len() != 0 {
		t.Errorf("corrupt snapshot loaded %d entries", c.Len())
	}
	if stats.BadFiles != 1 || stats.Loaded != 0 || stats.Dropped != 0 {
		t.Errorf("stats = %+v, want 1 bad file, nothing loaded or dropped", stats)
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt snapshot left in the boot path")
	}

	// The merge path has no cold-start fallback — the same file fails hard.
	bad := filepath.Join(t.TempDir(), "merge-src.json")
	writeV4(t, bad, opg.SolverVersion,
		`[{"key":"k","graph":{"name":"g","dtype":0,"nodes":[]},"plan":null}]`)
	if _, err := MergeSnapshotFiles(filepath.Join(t.TempDir(), "out.json"), bad); err == nil {
		t.Error("merge accepted a nil-plan entry")
	}
}

func TestLoadSkipsStaleSolverSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	writeV4(t, path, "lc-opg-0",
		`[{"key":"k","graph":{"name":"g","dtype":0,"nodes":[]},"plan":{"chunk_size":1}}]`)
	c := New(0)
	stats, err := c.LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("stale-solver entries loaded: %d", c.Len())
	}
	if stats.Dropped != 1 || stats.Loaded != 0 {
		t.Errorf("stats = %+v, want 1 dropped / 0 loaded", stats)
	}
}

// saveAsV3 rewrites a cache snapshot into the version-3 layout — same
// entry shape as v4, no checksum — to exercise the pre-checksum load path
// without keeping stale fixture files around.
func saveAsV3(t *testing.T, c *Cache, path string) {
	t.Helper()
	data, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	snap["version"] = 3
	delete(snap, "checksum")
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// seedCache solves one model into a fresh cache so persistence tests have
// a real entry to snapshot.
func seedCache(t *testing.T) *Cache {
	t.Helper()
	c := New(0)
	opts := testOptions()
	opts.Cache = c
	e := core.NewEngine(opts)
	if _, err := e.Prepare(models.MustByAbbr("ResNet").Build()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestVersion3SnapshotStillLoads: a fresh v3 file was written by the
// current solver generation; dropping it just because it predates the
// checksum would cold-start fleets for no reason.
func TestVersion3SnapshotStillLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v3.json")
	saveAsV3(t, seedCache(t), path)
	c := New(0)
	stats, err := c.LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || stats.Loaded != 1 || stats.BadFiles != 0 {
		t.Errorf("v3 load: len=%d stats=%+v, want 1 loaded", c.Len(), stats)
	}
}

// TestTruncatedV3SnapshotDegradesToColdStart: the satellite contract — a
// truncated pre-checksum snapshot handed to LoadAll quarantines and boots
// cold with a counted bad file, never an error.
func TestTruncatedV3SnapshotDegradesToColdStart(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.json")
	saveAsV3(t, seedCache(t), whole)
	raw, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "plans.json")
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(0)
	stats, err := c.LoadAll(path)
	if err != nil {
		t.Fatalf("truncated snapshot must degrade to cold start, not error: %v", err)
	}
	if c.Len() != 0 {
		t.Errorf("truncated snapshot loaded %d entries", c.Len())
	}
	if stats.BadFiles != 1 || stats.Loaded != 0 {
		t.Errorf("stats = %+v, want 1 bad file / 0 loaded", stats)
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
}

// TestBitFlipQuarantinedByChecksum: single-byte damage inside the entries
// payload of a real Save file — valid JSON or not — fails the v4 checksum
// and quarantines.
func TestBitFlipQuarantinedByChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	c := seedCache(t)
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the entries payload, past the header fields.
	idx := bytesIndex(raw, []byte(`"entries":`)) + len(`"entries":`) + 40
	raw[idx] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := New(0)
	stats, err := fresh.LoadAll(path)
	if err != nil {
		t.Fatalf("bit-flipped snapshot must degrade, not error: %v", err)
	}
	if fresh.Len() != 0 || stats.BadFiles != 1 {
		t.Errorf("bit flip: len=%d stats=%+v, want quarantine + cold start", fresh.Len(), stats)
	}

	// The merge path treats the same file as a hard error: a damaged shard
	// snapshot means lost sweep work, not a colder cache.
	if _, err := MergeSnapshotFiles(filepath.Join(t.TempDir(), "out.json"), path+".bad"); err == nil {
		t.Error("merge accepted a checksum-mismatched snapshot")
	}
}

// bytesIndex is strings.Index for byte slices without an extra import.
func bytesIndex(haystack, needle []byte) int {
	return strings.Index(string(haystack), string(needle))
}

// saveAsV1 rewrites a cache snapshot into the version-1 layout (no solver
// field), optionally corrupting some entries, to exercise the migration
// path without keeping stale fixture files around.
func saveAsV1(t *testing.T, c *Cache, path string, corrupt func([]map[string]any)) {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), "v2.json")
	if err := c.Save(tmp); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap["version"] = 1
	delete(snap, "solver")
	if corrupt != nil {
		var entries []map[string]any
		for _, e := range snap["entries"].([]any) {
			entries = append(entries, e.(map[string]any))
		}
		corrupt(entries)
	}
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVersion1SnapshotDegradesToColdStart(t *testing.T) {
	cache := New(0)
	opts := testOptions()
	opts.Cache = cache
	e := core.NewEngine(opts)
	for _, abbr := range []string{"ResNet", "DepthA-S"} {
		if _, err := e.Prepare(models.MustByAbbr(abbr).Build()); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("seed cache has %d entries, want 2", cache.Len())
	}

	// A version-1 file predates the solver-version key salt, so none of
	// its entries could ever hit; they must all be dropped — with a count,
	// not an error — instead of polluting the LRU and faking a warm start.
	clean := filepath.Join(t.TempDir(), "v1-clean.json")
	saveAsV1(t, cache, clean, nil)
	c1 := New(0)
	stats, err := c1.LoadAll(clean)
	if err != nil {
		t.Fatalf("v1 snapshot must not be rejected: %v", err)
	}
	if c1.Len() != 0 || stats.Loaded != 0 || stats.Dropped != 2 {
		t.Errorf("v1 load: len=%d stats=%+v, want 0 loaded / 2 dropped", c1.Len(), stats)
	}

	// Even a damaged v1 file degrades to a cold start rather than an error.
	damaged := filepath.Join(t.TempDir(), "v1-damaged.json")
	saveAsV1(t, cache, damaged, func(entries []map[string]any) {
		entries[0]["plan"] = nil
	})
	c2 := New(0)
	stats, err = c2.LoadAll(damaged)
	if err != nil {
		t.Fatalf("damaged v1 snapshot must not be rejected: %v", err)
	}
	if c2.Len() != 0 || stats.Dropped != 2 {
		t.Errorf("damaged v1 load: len=%d stats=%+v, want 0 loaded / 2 dropped", c2.Len(), stats)
	}
}

func TestLoadAllMergesShardSnapshots(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	shardModels := [][]string{{"ResNet"}, {"DepthA-S"}}
	var paths []string
	for i, set := range shardModels {
		c := New(0)
		o := opts
		o.Cache = c
		e := core.NewEngine(o)
		for _, abbr := range set {
			if _, err := e.Prepare(models.MustByAbbr(abbr).Build()); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		if err := c.Save(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	merged := New(0)
	stats, err := merged.LoadAll(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 2 || stats.Loaded != 2 || stats.Files != 2 {
		t.Errorf("merged len=%d stats=%+v, want 2 entries from 2 files", merged.Len(), stats)
	}

	// The merged cache warm-starts both models with zero re-solves.
	o := opts
	o.Cache = merged
	e := core.NewEngine(o)
	for _, abbr := range []string{"ResNet", "DepthA-S"} {
		p, err := e.Prepare(models.MustByAbbr(abbr).Build())
		if err != nil {
			t.Fatal(err)
		}
		if !p.FromCache {
			t.Errorf("%s not served from merged cache", abbr)
		}
	}
	if s := merged.Stats(); s.Misses != 0 {
		t.Errorf("warm start recorded %d misses, want 0", s.Misses)
	}
}

func TestMergeSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()

	build := func(name string, abbrs ...string) string {
		c := New(0)
		o := opts
		o.Cache = c
		e := core.NewEngine(o)
		for _, abbr := range abbrs {
			if _, err := e.Prepare(models.MustByAbbr(abbr).Build()); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, name)
		if err := c.Save(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// ResNet appears in both shards with an identical deterministic plan:
	// last writer wins, no conflict.
	a := build("a.json", "ResNet")
	b := build("b.json", "ResNet", "DepthA-S")

	out := filepath.Join(dir, "merged.json")
	stats, err := MergeSnapshotFiles(out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 2 || stats.Replaced != 1 || stats.Files != 2 {
		t.Errorf("stats = %+v, want 2 entries / 1 replaced / 2 files", stats)
	}
	c := New(0)
	if err := c.Load(out); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("merged snapshot has %d entries, want 2", c.Len())
	}

	// A key mapping to two different plans is corruption, not a merge.
	conflicted := filepath.Join(dir, "conflict.json")
	raw, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	en := snap["entries"].([]any)[0].(map[string]any)
	en["plan"].(map[string]any)["ChunkSize"] = float64(12345)
	// Re-seal the checksum over the mutated entries so the conflict (not the
	// corruption) path is what fires.
	entJSON, err := json.Marshal(snap["entries"])
	if err != nil {
		t.Fatal(err)
	}
	snap["checksum"] = checksum(entJSON)
	mut, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(conflicted, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = MergeSnapshotFiles(filepath.Join(dir, "bad.json"), a, conflicted)
	if err == nil {
		t.Fatal("conflicting plans under one key must fail the merge")
	}
	// The error must name both snapshot files, so an operator merging
	// dozens of shards knows which one to re-run or drop.
	if !strings.Contains(err.Error(), filepath.Base(a)) || !strings.Contains(err.Error(), filepath.Base(conflicted)) {
		t.Errorf("conflict error %q does not name both snapshot files (%s, %s)",
			err, filepath.Base(a), filepath.Base(conflicted))
	}

	// A missing shard snapshot must not silently merge colder.
	if _, err := MergeSnapshotFiles(filepath.Join(dir, "x.json"), a, filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing input snapshot must fail the merge")
	}
}

func TestCustomCapacityWithoutKeySkipsCache(t *testing.T) {
	cache := New(0)
	flat := func(n *graph.Node) units.Bytes { return 4 * units.MB }
	opts := testOptions()
	opts.Cache = cache
	opts.Capacity = flat
	e := core.NewEngine(opts)
	g := models.MustByAbbr("ResNet").Build()
	if _, err := e.Prepare(g); err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.FromCache || cache.Len() != 0 {
		t.Error("anonymous custom capacity must bypass the cache")
	}

	// Naming the capacity makes the engine fingerprintable again.
	opts.CapacityKey = "flat-4mb"
	e2 := core.NewEngine(opts)
	if _, err := e2.Prepare(g); err != nil {
		t.Fatal(err)
	}
	p2, err := e2.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.FromCache {
		t.Error("keyed custom capacity should cache")
	}
}

func TestLoadReportsEvictionsPastBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	g := models.MustByAbbr("ResNet").Build()
	src := New(0)
	for i := 0; i < 3; i++ {
		src.Put(fmt.Sprintf("k%d", i), &core.Prepared{Graph: g, Plan: &opg.Plan{Model: "ResNet", ChunkSize: units.MB}})
	}
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}

	// A snapshot larger than the cache bound cannot warm-start completely;
	// the load must say so instead of silently evicting.
	dst := New(2)
	stats, err := dst.LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 3 || stats.Evicted != 1 {
		t.Errorf("stats = %+v, want 3 loaded / 1 evicted", stats)
	}
	if dst.Len() != 2 {
		t.Errorf("len = %d, want the bound 2", dst.Len())
	}
}

func costedPrep(solve time.Duration) *core.Prepared {
	return &core.Prepared{
		Graph: models.MustByAbbr("DepthA-S").Build(),
		Plan: &opg.Plan{ChunkSize: units.MB,
			Stats: opg.SolveStats{SolveTime: solve}},
	}
}

func TestCostAwareEvictionKeepsExpensivePlans(t *testing.T) {
	c := New(3)
	c.Put("llama70b", costedPrep(5*time.Second)) // oldest but most expensive
	c.Put("cnn-a", costedPrep(2*time.Millisecond))
	c.Put("cnn-b", costedPrep(3*time.Millisecond))

	// Plain LRU would evict llama70b here; cost-aware eviction must drop
	// the cheapest of the tail sample instead.
	c.Put("cnn-c", costedPrep(4*time.Millisecond))
	if _, ok := c.Get("llama70b"); !ok {
		t.Fatal("expensive plan evicted before cheap ones")
	}
	if _, ok := c.Get("cnn-a"); ok {
		t.Error("cheapest tail entry should have been evicted")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction / 3 entries", s)
	}
}

func TestCostAwareEvictionTiesFallBackToLRU(t *testing.T) {
	// Equal (zero) costs must degrade to plain LRU: the oldest entry goes.
	c := New(2)
	p := &core.Prepared{}
	c.Put("old", p)
	c.Put("mid", p)
	c.Put("new", p)
	if _, ok := c.Get("old"); ok {
		t.Error("tie-break must evict the least recently used entry")
	}
	if _, ok := c.Get("mid"); !ok {
		t.Error("newer tied entry evicted")
	}
}

func TestSolveCostSurvivesSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	src := New(0)
	src.Put("expensive", costedPrep(7*time.Second))
	src.Put("cheap-a", costedPrep(time.Millisecond))
	src.Put("cheap-b", costedPrep(time.Millisecond))
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}

	// Costs must ride the snapshot: after a reload into a smaller cache,
	// pressure evicts a reloaded cheap plan, never the expensive one.
	dst := New(3)
	if err := dst.Load(path); err != nil {
		t.Fatal(err)
	}
	dst.Put("cheap-c", costedPrep(time.Millisecond))
	if _, ok := dst.Get("expensive"); !ok {
		t.Fatal("persisted cost ignored: expensive plan evicted on reload pressure")
	}
}

func TestEvictionNeverDropsTheJustInsertedEntry(t *testing.T) {
	// At bounds below the eviction sample size, the tail walk must stop
	// before the MRU slot: otherwise inserting a cheap plan into a cache
	// full of expensive ones would evict the new entry itself, turning the
	// store into a silent no-op.
	c := New(3)
	c.Put("big-a", costedPrep(5*time.Second))
	c.Put("big-b", costedPrep(5*time.Second))
	c.Put("big-c", costedPrep(5*time.Second))
	c.Put("cheap-new", costedPrep(time.Millisecond))
	if _, ok := c.Get("cheap-new"); !ok {
		t.Fatal("just-inserted entry was evicted by its own Put")
	}
	if _, ok := c.Get("big-a"); ok {
		t.Error("oldest equal-cost entry should have been evicted instead")
	}
}

func wirePrep(model string) *core.Prepared {
	return &core.Prepared{Plan: &opg.Plan{Model: model, ChunkSize: units.MB,
		Weights: []opg.WeightPlan{{Weight: 1, Bytes: 3 * units.MB, Chunks: 3, Preload: true}}}}
}

// sameBacking reports whether two byte slices share their first byte,
// i.e. one was handed out again rather than re-encoded.
func sameBacking(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestWireKeptBesideEntry: an entry's compact plan bytes are encoded on
// the first Wire call and handed out as-is afterwards; a refresh that
// stores the same preparation keeps them, a different preparation drops
// them, and a preparation the key no longer holds is encoded but not kept.
func TestWireKeptBesideEntry(t *testing.T) {
	c := New(0)
	p, q := wirePrep("p"), wirePrep("q")
	wantP, _ := p.Plan.Wire()
	wantQ, _ := q.Plan.Wire()

	c.Put("k", p)
	first, err := c.Wire("k", p)
	if err != nil || !bytes.Equal(first, wantP) {
		t.Fatalf("first Wire = %s, %v; want %s", first, err, wantP)
	}
	if again, _ := c.Wire("k", p); !sameBacking(again, first) {
		t.Error("second Wire re-encoded instead of returning the kept bytes")
	}
	c.Put("k", p) // the last-known-good refresh every healthy serve makes
	if again, _ := c.Wire("k", p); !sameBacking(again, first) {
		t.Error("a Put of the same preparation dropped the kept bytes")
	}

	c.Put("k", q)
	fresh, err := c.Wire("k", q)
	if err != nil || !bytes.Equal(fresh, wantQ) {
		t.Fatalf("Wire after replacement = %s, %v; want %s", fresh, err, wantQ)
	}
	stray, err := c.Wire("k", p)
	if err != nil || !bytes.Equal(stray, wantP) {
		t.Fatalf("Wire of a replaced preparation = %s, %v; want %s", stray, err, wantP)
	}
	if again, _ := c.Wire("k", q); !sameBacking(again, fresh) {
		t.Error("encoding a stray preparation overwrote the entry's bytes")
	}
	if _, err := c.Wire("gone", p); err != nil {
		t.Errorf("Wire of an absent key: %v", err)
	}
}

// TestWireConcurrentWithRefresh: concurrent first Wire calls and same-
// preparation refreshes agree on the bytes (run under -race).
func TestWireConcurrentWithRefresh(t *testing.T) {
	c := New(0)
	p := wirePrep("p")
	want, _ := p.Plan.Wire()
	c.Put("k", p)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if got, err := c.Wire("k", p); err != nil || !bytes.Equal(got, want) {
					t.Errorf("Wire = %s, %v; want %s", got, err, want)
					return
				}
				c.Put("k", p)
			}
		}()
	}
	wg.Wait()
}
