package mem

import (
	"fmt"

	"photon/internal/obs"
	"photon/internal/sim/event"
)

// HierarchyConfig wires the full GPU memory system: per-CU L1 vector caches,
// L1 instruction and scalar caches shared by groups of CUs, a banked L2, and
// DRAM. The two configurations in the paper's Table 1 are built in
// internal/sim/gpu.
type HierarchyConfig struct {
	NumCUs int
	// CUsPerScalarBlock is how many CUs share one L1I + one L1 scalar cache
	// (4 on both R9 Nano and MI100: 64 CUs/16 caches, 120 CUs/30 caches).
	CUsPerScalarBlock int
	L1V               CacheConfig
	L1I               CacheConfig
	L1K               CacheConfig // scalar (constant) cache
	L2                CacheConfig // per-bank configuration
	L2Banks           int
	DRAM              DRAMConfig
}

// Validate checks the wiring.
func (c HierarchyConfig) Validate() error {
	if c.NumCUs <= 0 {
		return fmt.Errorf("mem: hierarchy: NumCUs must be positive")
	}
	if c.CUsPerScalarBlock <= 0 || c.NumCUs%c.CUsPerScalarBlock != 0 {
		return fmt.Errorf("mem: hierarchy: %d CUs not divisible into scalar blocks of %d",
			c.NumCUs, c.CUsPerScalarBlock)
	}
	if c.L2Banks <= 0 || c.L2Banks&(c.L2Banks-1) != 0 {
		return fmt.Errorf("mem: hierarchy: L2 bank count %d must be a positive power of two", c.L2Banks)
	}
	for _, cc := range []CacheConfig{c.L1V, c.L1I, c.L1K, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	return c.DRAM.Validate()
}

// Hierarchy is the timing model of the memory system. It is not safe for
// concurrent use; each simulated GPU owns one.
type Hierarchy struct {
	cfg  HierarchyConfig
	l1v  []*Cache
	l1i  []*Cache
	l1k  []*Cache
	l2   []*Cache
	dram *DRAM

	// atomicAccesses counts per-lane atomic operations, which execute at the
	// L2 coherence point and so reach L2 without a corresponding L1 miss;
	// CheckConservation needs the count to balance the L2 traffic equation.
	atomicAccesses uint64

	// drainBuf is the reusable scratch DrainLaneRequests merges lane
	// requests into at each quantum barrier.
	drainBuf []laneReq
}

// l2Router steers L1 misses to the right L2 bank by line interleaving.
type l2Router struct{ h *Hierarchy }

func (r l2Router) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	bank := (lineAddr / LineSize) & uint64(r.h.cfg.L2Banks-1)
	return r.h.l2[bank].Access(now, lineAddr, write)
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg, dram: NewDRAM(cfg.DRAM)}
	h.l2 = make([]*Cache, cfg.L2Banks)
	bankShift := uint(0)
	for 1<<bankShift < cfg.L2Banks {
		bankShift++
	}
	for i := range h.l2 {
		bankCfg := cfg.L2
		bankCfg.Name = fmt.Sprintf("%s[%d]", cfg.L2.Name, i)
		bankCfg.IndexShift = bankShift
		h.l2[i] = NewCache(bankCfg, h.dram)
	}
	router := l2Router{h}
	h.l1v = make([]*Cache, cfg.NumCUs)
	for i := range h.l1v {
		c := cfg.L1V
		c.Name = fmt.Sprintf("%s[cu%d]", cfg.L1V.Name, i)
		h.l1v[i] = NewCache(c, router)
	}
	blocks := cfg.NumCUs / cfg.CUsPerScalarBlock
	h.l1i = make([]*Cache, blocks)
	h.l1k = make([]*Cache, blocks)
	for i := 0; i < blocks; i++ {
		ci := cfg.L1I
		ci.Name = fmt.Sprintf("%s[blk%d]", cfg.L1I.Name, i)
		h.l1i[i] = NewCache(ci, router)
		ck := cfg.L1K
		ck.Name = fmt.Sprintf("%s[blk%d]", cfg.L1K.Name, i)
		h.l1k[i] = NewCache(ck, router)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// SetMetrics attaches a telemetry registry: every cache level and the DRAM
// publish cumulative hit/miss/eviction/writeback counts and access-latency
// histograms into it, labeled by level. All instances of a level share one
// stat set, so cardinality is bounded regardless of CU count. Safe to call
// with a nil registry (detaches into no-ops).
func (h *Hierarchy) SetMetrics(reg *obs.Registry) {
	for level, caches := range map[string][]*Cache{
		"L1V": h.l1v, "L1I": h.l1i, "L1K": h.l1k, "L2": h.l2,
	} {
		mx := newLevelMetrics(reg, level)
		for _, c := range caches {
			c.setMetrics(mx)
		}
	}
	h.dram.setMetrics(reg)
}

// Reset invalidates every cache and clears DRAM state; the driver calls it
// between independent workloads.
func (h *Hierarchy) Reset() {
	for _, c := range h.l1v {
		c.Reset()
	}
	for _, c := range h.l1i {
		c.Reset()
	}
	for _, c := range h.l1k {
		c.Reset()
	}
	for _, c := range h.l2 {
		c.Reset()
	}
	h.dram.Reset()
	h.atomicAccesses = 0
}

// VectorAccess performs a coalesced per-warp vector memory access from cuID.
// addrs holds the per-active-lane byte addresses. The access is split into
// unique cache lines; the returned time is when the slowest line completes.
func (h *Hierarchy) VectorAccess(now event.Time, cuID int, addrs []uint64, write bool) event.Time {
	if len(addrs) == 0 {
		return now + h.cfg.L1V.HitLatency
	}
	l1 := h.l1v[cuID]
	done := now
	var lines [64]uint64
	n := coalesce(addrs, &lines)
	for i := 0; i < n; i++ {
		if t := l1.Access(now, lines[i], write); t > done {
			done = t
		}
	}
	return done
}

// coalesce collects the unique line addresses of addrs (at most 64 lanes)
// into lines in first-seen lane order and returns their count. The order is
// observable: it is the order the lines arbitrate for the L1 port. Lane
// counts are small, so a linear-scan set beats map allocation; a lane on the
// line just appended — contiguous lanes share a line 16 at a time — skips
// the scan.
func coalesce(addrs []uint64, lines *[64]uint64) int {
	n := 0
outer:
	for _, a := range addrs {
		la := a &^ uint64(LineSize-1)
		if n > 0 && lines[n-1] == la {
			continue
		}
		for i := 0; i < n; i++ {
			if lines[i] == la {
				continue outer
			}
		}
		lines[n] = la
		n++
	}
	return n
}

// AtomicAccess performs a per-warp atomic read-modify-write. As on GCN
// hardware, global atomics execute at the L2 (the coherence point), not in
// the per-CU L1: every active lane performs its own access against the
// owning L2 bank, so atomics to one hot line serialize on one bank while
// spread atomics parallelize across banks.
func (h *Hierarchy) AtomicAccess(now event.Time, cuID int, addrs []uint64) event.Time {
	if len(addrs) == 0 {
		return now + h.cfg.L2.HitLatency
	}
	r := l2Router{h}
	done := now
	for _, a := range addrs {
		h.atomicAccesses++
		if t := r.Access(now, a&^uint64(LineSize-1), true); t > done {
			done = t
		}
	}
	return done
}

// ScalarAccess performs a scalar (constant) load through the scalar cache
// shared by cuID's block.
func (h *Hierarchy) ScalarAccess(now event.Time, cuID int, addr uint64) event.Time {
	blk := cuID / h.cfg.CUsPerScalarBlock
	return h.l1k[blk].Access(now, addr&^uint64(LineSize-1), false)
}

// InstFetch charges an instruction-cache access for the fetch group
// containing instAddr (the timing model fetches once per basic-block entry).
func (h *Hierarchy) InstFetch(now event.Time, cuID int, instAddr uint64) event.Time {
	blk := cuID / h.cfg.CUsPerScalarBlock
	return h.l1i[blk].Access(now, instAddr&^uint64(LineSize-1), false)
}

// CheckConservation verifies the flow-conservation invariants every
// well-formed run must satisfy, using counters that are incremented
// independently of each other (Cache.accesses is counted at entry, hits and
// misses on their branches, so accesses == hits+misses is a real check on
// control flow, not arithmetic). The traffic equations follow from the
// write-back write-allocate design: each L1 miss fills from L2 and each dirty
// L1 eviction writes back through L2, and atomics execute directly at the L2
// coherence point, so L2 access traffic is exactly the sum of L1 misses, L1
// writebacks and per-lane atomic operations; likewise DRAM sees exactly L2
// misses plus L2 writebacks.
func (h *Hierarchy) CheckConservation() error {
	var l1Demand, l2Acc, l2Demand uint64
	for _, group := range [][]*Cache{h.l1v, h.l1i, h.l1k} {
		for _, c := range group {
			if c.Accesses() != c.Hits()+c.Misses() {
				return fmt.Errorf("mem: %s: accesses %d != hits %d + misses %d",
					c.cfg.Name, c.Accesses(), c.Hits(), c.Misses())
			}
			l1Demand += c.Misses() + c.Writebacks()
		}
	}
	for _, c := range h.l2 {
		if c.Accesses() != c.Hits()+c.Misses() {
			return fmt.Errorf("mem: %s: accesses %d != hits %d + misses %d",
				c.cfg.Name, c.Accesses(), c.Hits(), c.Misses())
		}
		l2Acc += c.Accesses()
		l2Demand += c.Misses() + c.Writebacks()
	}
	if l2Acc != l1Demand+h.atomicAccesses {
		return fmt.Errorf("mem: L2 accesses %d != L1 misses+writebacks %d + atomics %d",
			l2Acc, l1Demand, h.atomicAccesses)
	}
	if h.dram.Accesses() != l2Demand {
		return fmt.Errorf("mem: DRAM accesses %d != L2 misses+writebacks %d",
			h.dram.Accesses(), l2Demand)
	}
	return nil
}

// Stats aggregates hit/miss counters across the hierarchy.
type Stats struct {
	L1VHits, L1VMisses uint64
	L1IHits, L1IMisses uint64
	L1KHits, L1KMisses uint64
	L2Hits, L2Misses   uint64
	DRAMAccesses       uint64
	DRAMRowHits        uint64
}

// CollectStats sums the per-cache counters.
func (h *Hierarchy) CollectStats() Stats {
	var s Stats
	for _, c := range h.l1v {
		s.L1VHits += c.Hits()
		s.L1VMisses += c.Misses()
	}
	for _, c := range h.l1i {
		s.L1IHits += c.Hits()
		s.L1IMisses += c.Misses()
	}
	for _, c := range h.l1k {
		s.L1KHits += c.Hits()
		s.L1KMisses += c.Misses()
	}
	for _, c := range h.l2 {
		s.L2Hits += c.Hits()
		s.L2Misses += c.Misses()
	}
	s.DRAMAccesses = h.dram.Accesses()
	s.DRAMRowHits = h.dram.RowHits()
	return s
}
