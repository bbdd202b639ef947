package mem

import (
	"fmt"

	"photon/internal/obs"
	"photon/internal/sim/event"
)

// LineSize is the cache-line size in bytes for every cache level, matching
// the 64-byte lines of GCN/CDNA GPUs.
const LineSize = 64

// CacheConfig describes one cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency event.Time
	// ThroughputCycles is the minimum spacing between two accesses through
	// the cache's port; it produces bandwidth contention when many warps
	// hammer the same cache.
	ThroughputCycles event.Time
	// IndexShift drops low line-number bits before set indexing. Banked
	// caches that are line-interleaved across banks set it to log2(banks)
	// so a bank still uses all of its sets.
	IndexShift uint
}

// Validate checks the configuration for internal consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: cache %q: non-positive size or ways", c.Name)
	}
	if c.SizeBytes%(c.Ways*LineSize) != 0 {
		return fmt.Errorf("mem: cache %q: size %d not divisible into %d ways of %d-byte lines",
			c.Name, c.SizeBytes, c.Ways, LineSize)
	}
	return nil
}

// Lower is the interface a cache uses to fetch lines from the next level of
// the hierarchy. Access takes the time the request leaves this level and
// returns the time the line is available.
type Lower interface {
	Access(now event.Time, lineAddr uint64, write bool) event.Time
}

// levelMetrics is the registry-backed stat set one cache level (or DRAM)
// publishes into; every cache instance of a level shares one set, so the
// registry stays at per-level cardinality however many CUs the GPU has.
// All handles are nil-safe: an unwired hierarchy publishes to no-ops.
type levelMetrics struct {
	hits, misses, evictions, writebacks *obs.Counter
	latency                             *obs.Histogram
}

// newLevelMetrics registers the level's counters and latency histogram.
func newLevelMetrics(reg *obs.Registry, level string) *levelMetrics {
	l := obs.L("level", level)
	return &levelMetrics{
		hits:       reg.Counter("sim_cache_hits_total", l),
		misses:     reg.Counter("sim_cache_misses_total", l),
		evictions:  reg.Counter("sim_cache_evictions_total", l),
		writebacks: reg.Counter("sim_cache_writebacks_total", l),
		latency:    reg.Histogram("sim_cache_latency_cycles", obs.ExpBuckets(1, 2, 14), l),
	}
}

// Cache is a set-associative, write-back, write-allocate cache with an LRU
// replacement policy and a single port whose throughput limit models
// bandwidth contention. It is a timing model only: data lives in the
// functional Flat memory.
//
// The tag store is one packed word per way. Each set's Ways words sit back
// to back in recency order, most recently used first, so a hit moves its
// word to the front and a miss evicts the tail. A word is
// (line number + 1) << 1 | dirty, and 0 marks an invalid way: invalid ways
// are never touched, so they sink to the tail and a miss takes one before
// evicting any valid line.
//
// Statistics are dual-homed: per-kernel counts live in plain fields (reset
// with the cache, read through the accessors below), while the cumulative
// run totals stream into the level's registry-backed metrics.
type Cache struct {
	cfg      CacheConfig
	ways     []uint64
	setMask  uint64
	lower    Lower
	portFree event.Time

	// accesses is counted independently at the top of Access rather than
	// derived from hits+misses, so the conservation check
	// accesses == hits + misses is a real invariant and not a tautology.
	accesses                            uint64
	hits, misses, evictions, writebacks uint64
	mx                                  *levelMetrics
}

// dirtyBit is the low bit of a packed way word.
const dirtyBit = 1

// NewCache builds a cache over the given lower level.
func NewCache(cfg CacheConfig, lower Lower) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * LineSize)
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q: set count %d not a power of two", cfg.Name, numSets))
	}
	// An unwired cache publishes into a zero levelMetrics: every handle is
	// nil, so the nil-safe obs methods make each publish a no-op.
	return &Cache{cfg: cfg, ways: make([]uint64, numSets*cfg.Ways), setMask: uint64(numSets - 1), lower: lower, mx: &levelMetrics{}}
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Accesses returns the access count since the last Reset.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Hits returns the hit count since the last Reset.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count since the last Reset.
func (c *Cache) Misses() uint64 { return c.misses }

// Evictions returns the eviction count since the last Reset.
func (c *Cache) Evictions() uint64 { return c.evictions }

// Writebacks returns the writeback count since the last Reset.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// setMetrics attaches the level's registry-backed stat set.
func (c *Cache) setMetrics(mx *levelMetrics) { c.mx = mx }

// Reset invalidates all lines and clears statistics (used between kernels
// when a cold-cache policy is wanted, and by tests).
func (c *Cache) Reset() {
	clear(c.ways)
	c.portFree = 0
	c.accesses = 0
	c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0
}

// set returns the ways of the set holding lineAddr and the line's packed
// clean word.
func (c *Cache) set(lineAddr uint64) ([]uint64, uint64) {
	line := lineAddr / LineSize // full line number doubles as the tag
	i := int((line>>c.cfg.IndexShift)&c.setMask) * c.cfg.Ways
	return c.ways[i : i+c.cfg.Ways], (line + 1) << 1
}

// lookup returns the index of the way holding word's line, or -1.
func lookup(set []uint64, word uint64) int {
	for i, w := range set {
		if w&^dirtyBit == word {
			return i
		}
	}
	return -1
}

// touch moves way i to the front of its set, marking it dirty on a write.
func touch(set []uint64, i int, write bool) {
	w := set[i]
	if write {
		w |= dirtyBit
	}
	copy(set[1:i+1], set[:i])
	set[0] = w
}

// fill inserts word at the front of its set and returns the word shifted
// out of the tail: the LRU victim, or 0 if that way was invalid.
func fill(set []uint64, word uint64, write bool) uint64 {
	victim := set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	if write {
		word |= dirtyBit
	}
	set[0] = word
	return victim
}

// victimAddr is the line address a valid way word holds.
func victimAddr(w uint64) uint64 { return (w>>1 - 1) * LineSize }

// Access performs a timing access for the line containing lineAddr and
// returns the completion time. lineAddr must be line-aligned. A miss writes
// back a dirty victim, then fills from the lower level; the writeback
// consumes lower-level bandwidth but is off the critical path of this
// access.
func (c *Cache) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	c.accesses++

	// Port arbitration: the access cannot start before the port frees up.
	start := now
	if c.portFree > start {
		start = c.portFree
	}
	c.portFree = start + c.cfg.ThroughputCycles
	at := start + c.cfg.HitLatency

	set, word := c.set(lineAddr)
	if i := lookup(set, word); i >= 0 {
		c.hits++
		c.mx.hits.Inc()
		touch(set, i, write)
		c.mx.latency.Observe(float64(at - now))
		return at
	}
	c.misses++
	c.mx.misses.Inc()
	if victim := fill(set, word, write); victim != 0 {
		c.evictions++
		c.mx.evictions.Inc()
		if victim&dirtyBit != 0 {
			c.writebacks++
			c.mx.writebacks.Inc()
			c.lower.Access(at, victimAddr(victim), true)
		}
	}
	fillDone := c.lower.Access(at, lineAddr, false)
	c.mx.latency.Observe(float64(fillDone - now))
	return fillDone
}

// Contains reports whether the line holding lineAddr is currently resident
// (no LRU update, no timing side effects). Tests use it to verify fills.
func (c *Cache) Contains(lineAddr uint64) bool {
	return lookup(c.set(lineAddr)) >= 0
}
