// Package plancache memoizes FlashMem overlap plans. For a fixed (device
// profile, graph content, solver configuration) triple the LC-OPG solve is
// deterministic, so its result — the fused graph plus the overlap plan —
// can be reused by every later Prepare with the same key: repeated
// Runtime.Load calls, baseline comparisons, and every cell of the
// evaluation sweeps. The cache is a bounded, cost-aware LRU — eviction
// prefers the cheapest-to-re-solve plan among the least recently used, so
// a 70B model's multi-second solve outlives a batch of microsecond CNN
// plans — with hit/miss counters and optional JSON persistence so
// benchmark tools warm-start across invocations.
package plancache

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// DefaultMaxEntries bounds the cache when New is given a non-positive
// limit. Plans are small (kilobytes) relative to the solves they save.
const DefaultMaxEntries = 512

// evictionSample is how many entries from the LRU tail the evictor
// considers: the cheapest of the sample is dropped, so recency still rules
// at a coarse grain while an expensive old plan survives a run of cheap
// newcomers. Samples larger than the tail degrade gracefully.
const evictionSample = 8

// Stats counts cache traffic since construction; loads via Load do not
// count as stores.
type Stats = core.CacheStats

// Cache is a thread-safe LRU of prepared plans keyed by core.PlanKey
// fingerprints. It implements core.PlanCache.
type Cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	stats   Stats
	inj     *faultinject.Injector // optional persistence fault injection
}

type entry struct {
	key  string
	prep *core.Prepared
	wire []byte        // prep.Plan.Wire(), filled by the first Wire call; not persisted
	cost time.Duration // recorded solve cost; persisted in snapshots
}

// New builds a cache bounded to maxEntries (<= 0 uses DefaultMaxEntries).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		max:     maxEntries,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached preparation for a key, bumping its recency.
func (c *Cache) Get(key string) (*core.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).prep, true
}

// Wire returns the compact wire encoding (opg.Plan.Wire) of p, the
// preparation cached under key. The first call per entry encodes it,
// outside the cache lock, and keeps the bytes beside the entry, so later
// calls — every warm hit a server answers — return them without encoding.
// A Put of the same preparation keeps them; a different one drops them.
// If key no longer holds p (evicted or replaced meanwhile), p is encoded
// and nothing is kept. The bytes are shared and must not be modified.
func (c *Cache) Wire(key string, p *core.Prepared) ([]byte, error) {
	c.mu.Lock()
	if en := c.holding(key, p); en != nil && en.wire != nil {
		wire := en.wire
		c.mu.Unlock()
		return wire, nil
	}
	c.mu.Unlock()
	wire, err := p.Plan.Wire()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if en := c.holding(key, p); en != nil {
		en.wire = wire
	}
	c.mu.Unlock()
	return wire, nil
}

// holding returns key's entry if it holds p, nil otherwise. Callers hold
// c.mu.
func (c *Cache) holding(key string, p *core.Prepared) *entry {
	if el, ok := c.entries[key]; ok && el.Value.(*entry).prep == p {
		return el.Value.(*entry)
	}
	return nil
}

// Put stores a preparation, evicting past the bound — cost-aware, see
// insert. The value is retained by reference and must stay immutable.
func (c *Cache) Put(key string, p *core.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Stores++
	c.insert(key, p, p.PlanCost())
}

// insert adds or refreshes an entry; callers hold c.mu. Past the bound it
// evicts the cheapest plan among the evictionSample least recently used:
// plain LRU treats a 70B plan that took seconds to solve and a trivial
// plan solved in microseconds as equals, so sweeps over many small models
// would flush exactly the entries that are most expensive to lose.
func (c *Cache) insert(key string, p *core.Prepared, cost time.Duration) {
	if el, ok := c.entries[key]; ok {
		en := el.Value.(*entry)
		if en.prep != p {
			en.prep, en.wire = p, nil
		}
		en.cost = cost
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, prep: p, cost: cost})
	for c.order.Len() > c.max {
		c.evictOne()
	}
}

// evictOne removes the cheapest entry among the evictionSample least
// recently used; on cost ties the older entry goes, preserving strict LRU
// for plans without recorded costs. The front (most recently used) entry
// is never sampled: at cache bounds below the sample size it would be the
// entry Put is inserting right now, and evicting it would turn the store
// into a silent no-op. Callers hold c.mu.
func (c *Cache) evictOne() {
	victim := c.order.Back()
	if victim == nil {
		return
	}
	front := c.order.Front()
	for el, i := victim.Prev(), 1; el != nil && el != front && i < evictionSample; el, i = el.Prev(), i+1 {
		if el.Value.(*entry).cost < victim.Value.(*entry).cost {
			victim = el
		}
	}
	c.order.Remove(victim)
	delete(c.entries, victim.Value.(*entry).key)
	c.stats.Evictions++
}

// Keys returns the cached plan keys, most recently used first. The plan
// server snapshots it right after boot-time LoadAll to mark which keys
// belong to the warm fleet cache, so each request can report whether it
// was served warm (snapshot), cached (solved earlier in-process), or cold.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.order.Len()
	return s
}

// compile-time interface check
var _ core.PlanCache = (*Cache)(nil)
