package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"photon/internal/obs"
	"photon/internal/sim/event"
	"photon/internal/testutil"
)

func TestFlatReadWriteRoundTrip(t *testing.T) {
	m := NewFlat()
	base := m.Alloc(1024)
	m.Write32(base, 0xdeadbeef)
	if got := m.Read32(base); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x", got)
	}
	m.WriteF32(base+4, 3.5)
	if got := m.ReadF32(base + 4); got != 3.5 {
		t.Fatalf("ReadF32 = %v", got)
	}
}

func TestFlatUnwrittenReadsZero(t *testing.T) {
	m := NewFlat()
	base := m.Alloc(64)
	if got := m.Read32(base + 60); got != 0 {
		t.Fatalf("unwritten read = %#x, want 0", got)
	}
}

func TestFlatCrossPageAccess(t *testing.T) {
	m := NewFlat()
	addr := uint64(2*pageSize - 2) // straddles a page boundary
	m.Write32(addr, 0x11223344)
	if got := m.Read32(addr); got != 0x11223344 {
		t.Fatalf("cross-page read = %#x", got)
	}
}

// TestFlatWindow pins the page-window contract on both Flat and FlatView:
// a span inside one page aliases memory in both directions, and a span that
// crosses a page boundary is refused.
func TestFlatWindow(t *testing.T) {
	m := NewFlat()
	for _, tc := range []struct {
		name string
		win  func(addr uint64, n int) ([]byte, bool)
	}{{"flat", m.Window}, {"view", m.View().Window}} {
		base := uint64(3*pageSize - 256)
		m.Write32(base+8, 0xa1b2c3d4)
		w, ok := tc.win(base, 256)
		if !ok || len(w) != 256 {
			t.Fatalf("%s: window of the page's last 256 bytes: ok=%v len=%d", tc.name, ok, len(w))
		}
		if w[8] != 0xd4 || w[11] != 0xa1 {
			t.Fatalf("%s: window does not alias the stored word: % x", tc.name, w[8:12])
		}
		w[252] = 0x7f
		if got := m.Read32(base + 252); got != 0x7f {
			t.Fatalf("%s: write through the window not visible: %#x", tc.name, got)
		}
		if _, ok := tc.win(base+4, 256); ok {
			t.Fatalf("%s: page-straddling window was granted", tc.name)
		}
	}
}

func TestFlatAllocAlignmentAndDisjointness(t *testing.T) {
	m := NewFlat()
	a := m.Alloc(100)
	b := m.Alloc(100)
	if a%256 != 0 || b%256 != 0 {
		t.Fatalf("allocations not 256-aligned: %#x %#x", a, b)
	}
	if b < a+100 {
		t.Fatalf("allocations overlap: %#x %#x", a, b)
	}
}

func TestFlatBulkHelpers(t *testing.T) {
	m := NewFlat()
	base := m.Alloc(64)
	m.WriteFloats(base, []float32{1, 2, 3})
	got := m.ReadFloats(base, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("ReadFloats = %v", got)
	}
	m.WriteWords(base, []uint32{7, 8})
	w := m.ReadWords(base, 2)
	if w[0] != 7 || w[1] != 8 {
		t.Fatalf("ReadWords = %v", w)
	}
}

// Property: Flat behaves like a map from address to word for aligned,
// non-overlapping writes.
func TestPropertyFlatMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewFlat()
		model := map[uint64]uint32{}
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1<<20) * 4)
			v := rng.Uint32()
			m.Write32(addr, v)
			model[addr] = v
		}
		for addr, v := range model {
			if m.Read32(addr) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// fixedLower is a Lower with constant latency, counting accesses.
type fixedLower struct {
	latency  event.Time
	accesses int
}

func (f *fixedLower) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	f.accesses++
	return now + f.latency
}

func testCache(lower Lower) *Cache {
	return NewCache(CacheConfig{
		Name: "t", SizeBytes: 4 * 1024, Ways: 4,
		HitLatency: 10, ThroughputCycles: 1,
	}, lower)
}

func TestCacheHitAfterMiss(t *testing.T) {
	lower := &fixedLower{latency: 100}
	c := testCache(lower)
	t1 := c.Access(0, 0x1000, false)
	if t1 != 110 { // 10 hit-check + 100 fill
		t.Fatalf("miss done at %d, want 110", t1)
	}
	t2 := c.Access(200, 0x1000, false)
	if t2 != 210 {
		t.Fatalf("hit done at %d, want 210", t2)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCachePortContention(t *testing.T) {
	lower := &fixedLower{latency: 100}
	c := testCache(lower)
	c.Access(0, 0x0, false)
	// Ten simultaneous accesses to resident line: each occupies the port
	// for 1 cycle, so completion times fan out.
	c.Access(50, 0x0, false)
	last := c.Access(50, 0x0, false)
	if last != 50+1+10 { // second access starts 1 cycle later
		t.Fatalf("contended access done at %d, want 61", last)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	lower := &fixedLower{latency: 100}
	c := testCache(lower) // 4KB, 4-way, 64B lines -> 16 sets; same set every 16 lines
	setStride := uint64(16 * LineSize)
	// Fill all 4 ways of set 0, then touch a 5th line in set 0.
	for i := uint64(0); i < 5; i++ {
		c.Access(event.Time(i*1000), i*setStride, false)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if c.Contains(0) {
		t.Fatal("LRU line 0 still resident after eviction")
	}
	if !c.Contains(4 * setStride) {
		t.Fatal("newly filled line not resident")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	lower := &fixedLower{latency: 100}
	c := testCache(lower)
	setStride := uint64(16 * LineSize)
	c.Access(0, 0, true) // dirty line
	for i := uint64(1); i < 5; i++ {
		c.Access(event.Time(i*1000), i*setStride, false)
	}
	if c.Writebacks() != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writebacks())
	}
	// Lower sees 5 fills + 1 writeback.
	if lower.accesses != 6 {
		t.Fatalf("lower accesses = %d, want 6", lower.accesses)
	}
}

func TestCacheIndexShiftUsesAllSets(t *testing.T) {
	lower := &fixedLower{latency: 100}
	cfg := CacheConfig{Name: "b", SizeBytes: 4 * 1024, Ways: 4,
		HitLatency: 10, ThroughputCycles: 1, IndexShift: 3}
	c := NewCache(cfg, lower)
	// Lines 0, 8, 16, ... (bank-interleaved stride 8) should map to
	// different sets with IndexShift=3.
	for i := uint64(0); i < 16; i++ {
		c.Access(event.Time(i*1000), i*8*LineSize, false)
	}
	if c.Evictions() != 0 {
		t.Fatalf("evictions = %d, want 0 (index shift should spread sets)", c.Evictions())
	}
}

// TestCacheAccessZeroAlloc pins the tag store's hot paths at zero heap
// allocations: a hit, a miss that evicts a dirty line and writes it back,
// and a 64-lane coalesced VectorAccess through the hierarchy.
func TestCacheAccessZeroAlloc(t *testing.T) {
	c := testCache(&fixedLower{latency: 100})
	c.Access(0, 0x40, false)
	testutil.MustZeroAllocs(t, "Cache.Access (hit)", func() {
		c.Access(0, 0x40, false)
	})

	setStride := uint64(16 * LineSize) // every access lands in set 0
	var next uint64
	miss := func() {
		c.Access(0, next*setStride, true)
		next++
	}
	for i := 0; i < 4; i++ { // fill set 0 with dirty lines
		miss()
	}
	wb := c.Writebacks()
	testutil.MustZeroAllocs(t, "Cache.Access (miss, dirty writeback)", miss)
	if c.Writebacks() == wb {
		t.Fatal("steady-state misses wrote nothing back")
	}

	h := testHierarchy()
	addrs := make([]uint64, 64)
	var base uint64
	testutil.MustZeroAllocs(t, "Hierarchy.VectorAccess (64 lanes)", func() {
		for i := range addrs {
			addrs[i] = base + uint64(i)*4
		}
		base += 4 * LineSize
		h.VectorAccess(0, 0, addrs, false)
	})
}

// BenchmarkCacheStream times one L2 bank of the MI100 geometry (256 KB,
// 16 ways, IndexShift 5 for 32 banks) on lines that are never reused: after
// warm-up every access misses, evicts the tail of a full set and fills.
func BenchmarkCacheStream(b *testing.B) {
	c := NewCache(CacheConfig{Name: "L2", SizeBytes: 256 * 1024, Ways: 16,
		HitLatency: 80, ThroughputCycles: 2, IndexShift: 5}, &fixedLower{latency: 100})
	var line uint64
	access := func() {
		c.Access(event.Time(line), line<<5*LineSize, false)
		line++
	}
	for i := 0; i < 256*1024/LineSize; i++ {
		access()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access()
	}
}

func TestDRAMRowHitVsMiss(t *testing.T) {
	d := NewDRAM(DRAMConfig{Name: "d", Banks: 4, RowBits: 11,
		RowHitLatency: 50, RowMissLatency: 200, BurstCycles: 4})
	t1 := d.Access(0, 0, false)
	if t1 != 200 {
		t.Fatalf("first access (row miss) done at %d, want 200", t1)
	}
	t2 := d.Access(300, 256, false) // same bank? line 4 -> bank 0, same row
	if t2 != 350 {
		t.Fatalf("row hit done at %d, want 350", t2)
	}
	if d.RowHits() != 1 {
		t.Fatalf("row hits = %d, want 1", d.RowHits())
	}
}

func TestDRAMBankQueueing(t *testing.T) {
	d := NewDRAM(DRAMConfig{Name: "d", Banks: 4, RowBits: 11,
		RowHitLatency: 50, RowMissLatency: 200, BurstCycles: 4})
	d.Access(0, 0, false)
	// Second access to the same bank at the same instant queues behind the
	// burst window.
	t2 := d.Access(0, 0, false)
	if t2 != 4+50 {
		t.Fatalf("queued access done at %d, want 54", t2)
	}
	// Different bank does not queue.
	t3 := d.Access(0, LineSize, false)
	if t3 != 200 {
		t.Fatalf("other-bank access done at %d, want 200", t3)
	}
}

func testHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		NumCUs:            4,
		CUsPerScalarBlock: 2,
		L1V:               CacheConfig{Name: "l1v", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 28, ThroughputCycles: 1},
		L1I:               CacheConfig{Name: "l1i", SizeBytes: 32 * 1024, Ways: 4, HitLatency: 20, ThroughputCycles: 1},
		L1K:               CacheConfig{Name: "l1k", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 24, ThroughputCycles: 1},
		L2:                CacheConfig{Name: "l2", SizeBytes: 256 * 1024, Ways: 16, HitLatency: 80, ThroughputCycles: 2},
		L2Banks:           8,
		DRAM: DRAMConfig{Name: "dram", Banks: 16, RowBits: 11,
			RowHitLatency: 120, RowMissLatency: 250, BurstCycles: 8},
	})
}

// TestHierarchyCoalescing checks that a warp's lanes collapse to their
// unique lines and that the L1 misses reach L2 in first-seen lane order,
// the order the lines arbitrate for the L1 port.
func TestHierarchyCoalescing(t *testing.T) {
	const a, b = 0x10000, 0x20000
	line := func(i int) uint64 { return a + uint64(i)*LineSize }
	for _, tc := range []struct {
		name  string
		addr  func(lane int) uint64
		lines []uint64
	}{
		{"one line", func(i int) uint64 { return a + uint64(i%16)*4 }, []uint64{a}},
		{"contiguous", func(i int) uint64 { return a + uint64(i)*4 }, []uint64{line(0), line(1), line(2), line(3)}},
		{"descending", func(i int) uint64 { return a + uint64(63-i)*4 }, []uint64{line(3), line(2), line(1), line(0)}},
		{"interleaved", func(i int) uint64 {
			if i%2 == 0 {
				return a + uint64(i/2%16)*4
			}
			return b + uint64(i/2%16)*4
		}, []uint64{a, b}},
		{"scattered", func(i int) uint64 { return line(i * 37 % 64) }, nil},
	} {
		if tc.lines == nil {
			for i := 0; i < 64; i++ {
				tc.lines = append(tc.lines, tc.addr(i))
			}
		}
		h := testHierarchy()
		l2 := &recordingLower{}
		h.l1v[0].lower = l2
		addrs := make([]uint64, 64)
		for i := range addrs {
			addrs[i] = tc.addr(i)
		}
		h.VectorAccess(0, 0, addrs, false)
		if s := h.CollectStats(); s.L1VHits+s.L1VMisses != uint64(len(tc.lines)) {
			t.Errorf("%s: %d L1 accesses, want %d", tc.name, s.L1VHits+s.L1VMisses, len(tc.lines))
		}
		if len(l2.calls) != len(tc.lines) {
			t.Errorf("%s: %d L1 misses reached L2, want %d", tc.name, len(l2.calls), len(tc.lines))
			continue
		}
		for i, c := range l2.calls {
			if c.line != tc.lines[i] {
				t.Errorf("%s: L1 miss %d reached L2 for line %#x, want %#x (first-seen lane order)", tc.name, i, c.line, tc.lines[i])
			}
		}
	}
}

func TestHierarchyScatteredSlowerThanCoalesced(t *testing.T) {
	h := testHierarchy()
	co := make([]uint64, 64)
	sc := make([]uint64, 64)
	for i := range co {
		co[i] = uint64(0x10000 + (i%16)*4)
		sc[i] = uint64(0x200000 + i*LineSize)
	}
	tCo := h.VectorAccess(0, 0, co, false)
	h2 := testHierarchy()
	tSc := h2.VectorAccess(0, 1, sc, false)
	if tSc <= tCo {
		t.Fatalf("scattered access (%d) not slower than coalesced (%d)", tSc, tCo)
	}
}

func TestHierarchyResetClearsState(t *testing.T) {
	h := testHierarchy()
	h.VectorAccess(0, 0, []uint64{0x40000}, false)
	h.ScalarAccess(0, 0, 0x5000)
	h.InstFetch(0, 0, 0x6000)
	h.Reset()
	s := h.CollectStats()
	if s.L1VHits+s.L1VMisses+s.L1KHits+s.L1KMisses+s.L1IHits+s.L1IMisses != 0 {
		t.Fatalf("stats after reset: %+v", s)
	}
}

func TestHierarchyScalarBlockSharing(t *testing.T) {
	h := testHierarchy()
	// CUs 0 and 1 share an L1K; CU 2 uses another.
	h.ScalarAccess(0, 0, 0x9000)
	h.ScalarAccess(1000, 1, 0x9000) // should hit in the shared cache
	s := h.CollectStats()
	if s.L1KHits != 1 || s.L1KMisses != 1 {
		t.Fatalf("scalar block sharing: hits=%d misses=%d, want 1/1", s.L1KHits, s.L1KMisses)
	}
	h.ScalarAccess(2000, 2, 0x9000) // different block: miss (but L2 hit)
	s = h.CollectStats()
	if s.L1KMisses != 2 {
		t.Fatalf("cross-block access should miss: misses=%d", s.L1KMisses)
	}
	if s.L2Hits != 1 {
		t.Fatalf("second block's miss should hit L2: l2 hits=%d", s.L2Hits)
	}
}

func TestHierarchyEmptyVectorAccess(t *testing.T) {
	h := testHierarchy()
	done := h.VectorAccess(100, 0, nil, false)
	if done <= 100 {
		t.Fatalf("empty access done at %d, want > 100", done)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := CacheConfig{Name: "x", SizeBytes: 1000, Ways: 3}
	if err := bad.Validate(); err == nil {
		t.Error("indivisible cache config accepted")
	}
	badDRAM := DRAMConfig{Name: "x", Banks: 3, RowBits: 11}
	if err := badDRAM.Validate(); err == nil {
		t.Error("non-power-of-two bank count accepted")
	}
	h := HierarchyConfig{NumCUs: 5, CUsPerScalarBlock: 2}
	if err := h.Validate(); err == nil {
		t.Error("indivisible scalar-block config accepted")
	}
}

func TestAtomicAccessExecutesAtL2(t *testing.T) {
	h := testHierarchy()
	// One hot line: 64 lanes serialize at a single L2 bank port. Warm the
	// lines first so the comparison isolates serialization from cold
	// misses.
	hot := make([]uint64, 64)
	for i := range hot {
		hot[i] = 0x40000
	}
	h.AtomicAccess(0, 0, hot)
	tHot := h.AtomicAccess(100000, 0, hot) - 100000
	// Spread across lines mapping to different banks.
	h2 := testHierarchy()
	spread := make([]uint64, 64)
	for i := range spread {
		spread[i] = uint64(0x40000 + i*LineSize)
	}
	h2.AtomicAccess(0, 0, spread)
	tSpread := h2.AtomicAccess(100000, 0, spread) - 100000
	if tHot <= tSpread {
		t.Fatalf("hot-line atomics (%d) not slower than spread (%d)", tHot, tSpread)
	}
	// Atomics bypass the L1 entirely.
	s := h.CollectStats()
	if s.L1VHits+s.L1VMisses != 0 {
		t.Fatalf("atomics touched the L1: %+v", s)
	}
	if s.L2Hits+s.L2Misses == 0 {
		t.Fatal("atomics did not reach the L2")
	}
	if h.AtomicAccess(10, 1, nil) <= 10 {
		t.Fatal("empty atomic access must still cost time")
	}
}

// TestHierarchyMetricsAccumulateAcrossResets checks the registry-backed
// stats' defining property: Reset clears the per-kernel accessors but the
// run-cumulative registry counters keep growing, and hit/miss totals match
// what the accessors saw per kernel.
func TestHierarchyMetricsAccumulateAcrossResets(t *testing.T) {
	reg := obs.NewRegistry()
	h := testHierarchy()
	h.SetMetrics(reg)

	addrs := []uint64{0, 64, 128}
	var wantHits, wantMisses uint64
	for kernel := 0; kernel < 3; kernel++ {
		h.Reset()
		h.VectorAccess(0, 0, addrs, false) // cold: 3 misses
		h.VectorAccess(100, 0, addrs, false)
		s := h.CollectStats()
		wantHits += s.L1VHits
		wantMisses += s.L1VMisses
		if s.L1VMisses != 3 || s.L1VHits != 3 {
			t.Fatalf("kernel %d: per-kernel stats = %+v, want 3 hits / 3 misses", kernel, s)
		}
	}
	snap := reg.Snapshot()
	if got := snap.SumCounters("sim_cache_hits_total", obs.L("level", "L1V")); got != wantHits {
		t.Fatalf("registry L1V hits = %d, want %d", got, wantHits)
	}
	if got := snap.SumCounters("sim_cache_misses_total", obs.L("level", "L1V")); got != wantMisses {
		t.Fatalf("registry L1V misses = %d, want %d", got, wantMisses)
	}
	if got := snap.SumCounters("sim_dram_accesses_total"); got == 0 {
		t.Fatal("DRAM accesses never reached the registry")
	}
	for _, hs := range snap.Histograms {
		if hs.Name == "sim_cache_latency_cycles" && hs.Labels["level"] == "L1V" && hs.Count == 0 {
			t.Fatal("L1V latency histogram recorded nothing")
		}
	}
}
