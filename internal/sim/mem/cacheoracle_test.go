package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"photon/internal/sim/event"
)

// The reference oracle: the original stamp-based cache, with one 24-byte
// line record per way and a global LRU clock, kept verbatim (renamed) so
// the packed recency-ordered tag store in cache.go can be diffed against
// it. Access below may not be edited to follow a change in cache.go.

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type refCache struct {
	cfg      CacheConfig
	sets     [][]refLine
	setMask  uint64
	lower    Lower
	portFree event.Time
	lruClock uint64

	accesses                            uint64
	hits, misses, evictions, writebacks uint64
	mx                                  *levelMetrics
}

func newRefCache(cfg CacheConfig, lower Lower) *refCache {
	numSets := cfg.SizeBytes / (cfg.Ways * LineSize)
	sets := make([][]refLine, numSets)
	backing := make([]refLine, numSets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{cfg: cfg, sets: sets, setMask: uint64(numSets - 1), lower: lower, mx: &levelMetrics{}}
}

func (c *refCache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = refLine{}
		}
	}
	c.portFree = 0
	c.accesses = 0
	c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0
}

func (c *refCache) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	c.accesses++

	// Port arbitration: the access cannot start before the port frees up.
	start := now
	if c.portFree > start {
		start = c.portFree
	}
	c.portFree = start + c.cfg.ThroughputCycles

	setIdx := ((lineAddr / LineSize) >> c.cfg.IndexShift) & c.setMask
	tag := lineAddr / LineSize // full line number doubles as the tag
	set := c.sets[setIdx]
	c.lruClock++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.hits++
			c.mx.hits.Inc()
			set[i].lru = c.lruClock
			if write {
				set[i].dirty = true
			}
			done := start + c.cfg.HitLatency
			c.mx.latency.Observe(float64(done - now))
			return done
		}
	}

	// Miss: pick the LRU victim, write it back if dirty, then fill from the
	// lower level. The writeback consumes lower-level bandwidth but is off
	// the critical path of this access.
	c.misses++
	c.mx.misses.Inc()
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		c.evictions++
		c.mx.evictions.Inc()
		if set[victim].dirty {
			c.writebacks++
			c.mx.writebacks.Inc()
			c.lower.Access(start+c.cfg.HitLatency, set[victim].tag*LineSize, true)
		}
	}
	fillDone := c.lower.Access(start+c.cfg.HitLatency, lineAddr, false)
	set[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.lruClock}
	c.mx.latency.Observe(float64(fillDone - now))
	return fillDone
}

func (c *refCache) Contains(lineAddr uint64) bool {
	setIdx := ((lineAddr / LineSize) >> c.cfg.IndexShift) & c.setMask
	tag := lineAddr / LineSize
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// lowerCall is one request a cache made to the level below it.
type lowerCall struct {
	at    event.Time
	line  uint64
	write bool
}

// recordingLower logs every request and answers with a latency that varies
// by line, so completion times differ across accesses.
type recordingLower struct{ calls []lowerCall }

func (r *recordingLower) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	r.calls = append(r.calls, lowerCall{now, lineAddr, write})
	return now + 100 + event.Time(lineAddr/LineSize%7)
}

// oracleGeometries are the cache shapes the simulated GPUs build: the 4-way
// L1 (64 sets) and one 16-way L2 bank of the 8-bank R9 Nano (IndexShift 3)
// and the 32-bank MI100 (IndexShift 5).
var oracleGeometries = []CacheConfig{
	{Name: "L1V", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 28, ThroughputCycles: 1},
	{Name: "L2-r9nano", SizeBytes: 256 * 1024, Ways: 16, HitLatency: 80, ThroughputCycles: 2, IndexShift: 3},
	{Name: "L2-mi100", SizeBytes: 256 * 1024, Ways: 16, HitLatency: 80, ThroughputCycles: 2, IndexShift: 5},
}

// oracleAccess is one step of a seeded access stream; reset asks for a
// cache Reset before the access.
type oracleAccess struct {
	at          event.Time
	line        uint64
	write       bool
	probe       uint64 // a second line to check residency of
	reset       bool
	description string
}

// oracleStream builds a seeded stream mixing the patterns that exercise
// replacement: a few hot sets holding more lines than ways, a stream of
// lines never reused, and random lines over twice the capacity, with a
// third of the accesses writes, bursts of same-cycle issues for port
// contention, and one Reset partway through. Lines map to bank 1 of the
// geometry's interleave, as the L2 router would deliver them.
func oracleStream(cfg CacheConfig, seed int64, n int) []oracleAccess {
	rng := rand.New(rand.NewSource(seed))
	sets := uint64(cfg.SizeBytes / (cfg.Ways * LineSize))
	capacity := sets * uint64(cfg.Ways)
	bank := uint64(0)
	if cfg.IndexShift > 0 {
		bank = 1
	}
	bankLine := func(idx uint64) uint64 { return (idx<<cfg.IndexShift | bank) * LineSize }
	hot := []uint64{3, 17, sets - 1}
	var stream uint64 = 1 << 20
	out := make([]oracleAccess, n)
	var now event.Time
	for i := range out {
		a := &out[i]
		if rng.Intn(4) != 0 {
			now += event.Time(rng.Intn(6))
		}
		a.at = now
		a.write = rng.Intn(3) == 0
		switch k := rng.Intn(10); {
		case k < 4: // hot: 2×ways distinct lines in each of three sets
			set := hot[rng.Intn(len(hot))]
			a.line = bankLine(set + sets*uint64(rng.Intn(2*cfg.Ways)))
			a.description = "hot"
		case k < 7: // streaming: never reused
			a.line = bankLine(stream)
			stream++
			a.description = "stream"
		default:
			a.line = bankLine(uint64(rng.Int63n(int64(2 * capacity))))
			a.description = "random"
		}
		a.probe = bankLine(uint64(rng.Int63n(int64(2 * capacity))))
	}
	out[n/2].reset = true
	return out
}

// TestCacheMatchesStampOracle drives the packed cache and the stamp-based
// oracle with identical seeded streams through the serial Access path and
// compares every observable, access by access: completion time, the five
// counters, residency of the accessed line and of a probe line, and the
// exact (time, line, write) sequence the lower level saw.
func TestCacheMatchesStampOracle(t *testing.T) {
	for _, cfg := range oracleGeometries {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				refLower, newLower := &recordingLower{}, &recordingLower{}
				ref, got := newRefCache(cfg, refLower), NewCache(cfg, newLower)
				for i, a := range oracleStream(cfg, seed, 20000) {
					if a.reset {
						ref.Reset()
						got.Reset()
					}
					want := ref.Access(a.at, a.line, a.write)
					done := got.Access(a.at, a.line, a.write)
					if done != want {
						t.Fatalf("access %d (%s line %#x write=%v): done %d, oracle %d", i, a.description, a.line, a.write, done, want)
					}
					checkCacheState(t, i, ref, got, a)
					if len(refLower.calls) != len(newLower.calls) {
						t.Fatalf("access %d: lower saw %d calls, oracle's %d", i, len(newLower.calls), len(refLower.calls))
					}
					for j := range refLower.calls {
						if refLower.calls[j] != newLower.calls[j] {
							t.Fatalf("access %d: lower call %d = %+v, oracle %+v", i, j, newLower.calls[j], refLower.calls[j])
						}
					}
					refLower.calls, newLower.calls = refLower.calls[:0], newLower.calls[:0]
				}
			})
		}
	}
}

func checkCacheState(t *testing.T, i int, ref *refCache, got *Cache, a oracleAccess) {
	t.Helper()
	want := [5]uint64{ref.accesses, ref.hits, ref.misses, ref.evictions, ref.writebacks}
	have := [5]uint64{got.Accesses(), got.Hits(), got.Misses(), got.Evictions(), got.Writebacks()}
	if have != want {
		t.Fatalf("access %d: counters (acc, hit, miss, evict, wb) = %v, oracle %v", i, have, want)
	}
	for _, line := range []uint64{a.line, a.probe} {
		if got.Contains(line) != ref.Contains(line) {
			t.Fatalf("access %d: Contains(%#x) = %v, oracle %v", i, line, got.Contains(line), ref.Contains(line))
		}
	}
}
