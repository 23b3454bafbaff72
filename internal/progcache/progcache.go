// Package progcache is the process-wide shared compiled-program cache.
//
// A compiled ir.Program is immutable once ir.Compile returns (the
// interpreter and every analysis only read it), so one compilation can
// be shared by any number of concurrent Sessions — the property the
// reproduction service relies on to grind thousands of jobs against a
// hot program that was compiled exactly once. The cache keys on the
// SHA-256 of the source text plus the instrumentation flag, dedupes
// concurrent compilations of the same key (the losers wait for the
// winner instead of compiling again), and bounds its footprint with
// LRU eviction — an evicted program stays valid for everyone already
// holding it; only the shared pointer is forgotten.
//
// The cross-process analogue is ShareJIT's shared code cache: here the
// sharing unit is one server process, which is where the batch service
// runs all its tenants.
package progcache

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/telemetry"
)

// Key identifies one compilation: source hash + compile options.
type Key struct {
	Hash       [sha256.Size]byte
	Instrument bool
}

// KeyFor computes the cache key for a source text and instrumentation
// flag.
func KeyFor(source string, instrument bool) Key {
	return Key{Hash: sha256.Sum256([]byte(source)), Instrument: instrument}
}

type entry struct {
	key  Key
	elem *list.Element
	once sync.Once
	prog *ir.Program
	err  error
}

// Cache is a bounded, concurrency-safe compile cache. The zero value
// is not usable; build one with New or use the process-wide Shared
// instance.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*entry
	lru     *list.List // front = most recently used; values are *entry

	hits, misses, evictions uint64

	// mirror, set on the Shared instance only, echoes the counters
	// into the process-wide telemetry registry. Private caches (tests,
	// embedders) stay out of it so the scraped heisen_progcache_*
	// series equal Shared().Stats() exactly.
	mirror bool
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Entries is the number of cached programs (including in-flight
	// compilations).
	Entries int `json:"entries"`
	// Capacity is the LRU bound.
	Capacity int `json:"capacity"`
	// Hits counts Get calls served from the cache; Misses counts calls
	// that compiled. Concurrent requests for an in-flight key count as
	// hits — only one of them compiles.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
}

// New builds a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[Key]*entry),
		lru:     list.New(),
	}
}

var shared = func() *Cache {
	c := New(256)
	c.mirror = true
	return c
}()

// Shared is the process-wide cache behind heisendump.Compile,
// Workload.Compile and the batch server.
func Shared() *Cache { return shared }

// Get returns the compiled program for source, and whether this call
// compiled it, compiling at most once per key: concurrent callers for
// the same key share a single compilation, and every caller receives
// the same *ir.Program pointer for as long as the entry stays
// resident. Exactly one caller per resident key reports compiled; the
// others waited for or reused its result. Compile failures are cached
// too (compilation is deterministic, so retrying cannot succeed).
func (c *Cache) Get(source string, instrument bool) (prog *ir.Program, compiled bool, err error) {
	e := c.lookup(KeyFor(source, instrument))
	e.once.Do(func() {
		compiled = true
		e.prog, e.err = compile(source, instrument)
	})
	return e.prog, compiled, e.err
}

// lookup returns the entry for key, creating (and LRU-evicting) as
// needed. The returned entry stays valid even if evicted later.
func (c *Cache) lookup(key Key) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if c.mirror {
			telemetry.ProgcacheHits.Inc()
		}
		c.lru.MoveToFront(e.elem)
		return e
	}
	c.misses++
	if c.mirror {
		telemetry.ProgcacheMisses.Inc()
	}
	e := &entry{key: key}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.cap {
		back := c.lru.Back()
		old := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.evictions++
		if c.mirror {
			telemetry.ProgcacheEvictions.Inc()
		}
	}
	return e
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.entries),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// compile is the one-shot parse+check+lower path every cached entry
// runs. lang.Parse runs lang.Check, so source errors come back as
// typed *lang.Error values; input mismatches are the caller's problem
// (programs compile independently of inputs).
func compile(source string, instrument bool) (*ir.Program, error) {
	p, err := lang.Parse(source)
	if err != nil {
		return nil, err
	}
	return ir.Compile(p, ir.Options{InstrumentLoops: instrument})
}
