package emu

import (
	"fmt"

	"photon/internal/sim/kernel"
)

// maskSlots is the number of saved-EXEC mask slots per warp (the m0..m7
// operands of s_and_saveexec / s_set_exec).
const maskSlots = 8

// slotChunk is the granularity WarpStore capacity grows in when Alloc runs
// out of free slots mid-launch. Growing in chunks keeps the amortized cost
// of a grow O(1) per slot while bounding slack to one chunk.
const slotChunk = 64

// Per-slot flag bits packed into WarpStore.flags.
const (
	flagDone    uint8 = 1 << iota // warp executed s_endpgm
	flagBarrier                   // warp is waiting at s_barrier
	flagSCC                       // scalar condition code
)

// Memory is the functional-memory surface warps execute against. The
// serial paths bind the launch's *mem.Flat directly; the quantum-laned
// engine binds a per-lane *mem.FlatView so concurrent lanes never share
// Flat's unlocked page cache.
type Memory interface {
	Read32(addr uint64) uint32
	Write32(addr uint64, v uint32)
	// Window returns the n bytes at addr as one writable slice, or false
	// when the memory cannot serve the span that way (it crosses a page,
	// or the memory must see every word). Callers fall back to
	// Read32/Write32 on false.
	Window(addr uint64, n int) ([]byte, bool)
}

// WarpStore holds the architectural state of many warps in
// structure-of-arrays form: one contiguous backing array per field, indexed
// by warp slot, plus a single shared slab each for SGPRs, VGPRs and BBV
// counters (sliced by slot at a fixed per-slot stride). A Warp is just a
// slot handle into a store, so stepping, resetting and snapshotting warps
// sweeps contiguous memory instead of chasing per-warp heap objects.
//
// Stores are sized at launch time (Configure) and grow in slotChunk chunks
// if a launch needs more resident warps than planned (Alloc). A store is
// bound to one launch at a time; Configure rebinds it, reusing the slabs
// whenever the new launch's register shape fits. Stores are not safe for
// concurrent use — the parallel harness gives each job its own.
type WarpStore struct {
	launch *kernel.Launch

	// mem is the functional memory warps read and write; Configure resets it
	// to the launch's Flat, SetMemView overrides it for laned execution.
	mem Memory

	// deferAtomics makes atomicMem capture its per-lane (addr, value, lane)
	// triples into the scratch buffers instead of performing the RMW, so the
	// laned coordinator can apply global atomics at the quantum barrier in
	// deterministic order (atomics execute at the L2 coherence point, which
	// lanes never touch mid-quantum).
	deferAtomics bool

	// Per-slot strides into the shared slabs.
	sregs  int // SGPR words per slot
	vwords int // VGPR words per slot (NumVRegs * 64 lanes)
	blocks int // BBV counters per slot

	slots int // allocated slot count (slab length / stride)

	// One lane per slot.
	pc        []int32
	exec      []uint64
	vcc       []uint64
	instCount []uint64
	outMem    []int32 // vector-memory ops since last waitcnt
	flags     []uint8

	// maskSlots lanes per slot.
	masks []uint64

	// Shared register and BBV slabs, stride lanes per slot.
	sgpr []uint32
	vgpr []uint32 // [slot*vwords + reg*64 + lane]
	bb   []uint32

	// LIFO free list of slot indices for Alloc/Release.
	free []int32

	// addrBuf is the scratch address buffer StepInfo.Addrs aliases. One per
	// store (not per warp): Step's caller consumes the addresses before the
	// next Step on the same store, so sharing it saves 512 bytes per slot.
	addrBuf [kernel.WavefrontSize]uint64

	// atomVal/atomLane are the deferred-atomic scratch buffers
	// StepInfo.AtomicVals/AtomicLanes alias, with addrBuf's lifetime rules.
	atomVal  [kernel.WavefrontSize]uint32
	atomLane [kernel.WavefrontSize]uint8

	// bcast holds one scratch row per source operand position; a scalar
	// register or immediate source is written to its row's lane 0 once per
	// instruction and read with index mask 0 (see WarpStore.src). Only lane
	// 0 is used; the full row type lets kernels index every source alike.
	bcast [3]lanes
}

// NewWarpStore builds a store for the launch with the given slot capacity.
func NewWarpStore(l *kernel.Launch, slots int) *WarpStore {
	s := &WarpStore{}
	s.Configure(l, slots)
	return s
}

// Configure binds the store to a launch and (re)sizes it to the given slot
// count, reusing the existing slabs whenever their capacity fits the new
// shape. All slots become free; live handles from a previous configuration
// are invalid. The pooled simulation paths call this once per kernel, so
// steady-state reconfiguration with a stable shape does not allocate.
func (s *WarpStore) Configure(l *kernel.Launch, slots int) {
	if slots < 1 {
		slots = 1
	}
	p := l.Program
	s.launch = l
	s.mem = l.Memory
	s.deferAtomics = false
	s.sregs = max(p.NumSRegs, kernel.ArgSGPRBase+len(l.Args))
	s.vwords = p.NumVRegs * kernel.WavefrontSize
	s.blocks = p.NumBlocks()
	s.slots = 0
	s.grow(slots)
	s.free = s.free[:0]
	for i := slots - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
}

// grow extends every slab to cover `to` slots, preserving the contents of
// existing slots (mid-launch growth must not disturb live warps). Growth
// only ever happens between instructions — at Configure or Alloc, never
// inside Step — so no caller holds a stale sub-slice across it.
func (s *WarpStore) grow(to int) {
	if to <= s.slots {
		return
	}
	s.pc = growSlab(s.pc, to, 1)
	s.exec = growSlab(s.exec, to, 1)
	s.vcc = growSlab(s.vcc, to, 1)
	s.instCount = growSlab(s.instCount, to, 1)
	s.outMem = growSlab(s.outMem, to, 1)
	s.flags = growSlab(s.flags, to, 1)
	s.masks = growSlab(s.masks, to, maskSlots)
	s.sgpr = growSlab(s.sgpr, to, s.sregs)
	s.vgpr = growSlab(s.vgpr, to, s.vwords)
	s.bb = growSlab(s.bb, to, s.blocks)
	s.slots = to
}

// growSlab returns the slab resized to slots*stride elements, reusing its
// backing array when the capacity suffices and copying the old contents
// over otherwise.
func growSlab[T any](slab []T, slots, stride int) []T {
	n := slots * stride
	if cap(slab) >= n {
		return slab[:n]
	}
	ns := make([]T, n)
	copy(ns, slab)
	return ns
}

// Alloc pops a free slot, growing the store by slotChunk slots when none is
// left. The returned slot's contents are stale until Bind.
func (s *WarpStore) Alloc() int {
	if len(s.free) == 0 {
		old := s.slots
		s.grow(old + slotChunk)
		for i := s.slots - 1; i >= old; i-- {
			s.free = append(s.free, int32(i))
		}
	}
	k := len(s.free) - 1
	slot := int(s.free[k])
	s.free = s.free[:k]
	return slot
}

// Release returns a slot to the free list. The caller must drop every Warp
// handle for it first; the slot's state is dead the moment it is released.
func (s *WarpStore) Release(slot int) {
	s.free = append(s.free, int32(slot))
}

// SetMemView overrides the functional memory the store's warps execute
// against (call after Configure, which resets it to the launch's Flat).
func (s *WarpStore) SetMemView(m Memory) { s.mem = m }

// SetDeferAtomics switches atomic instructions into capture mode: Step
// records (addr, value, lane) triples without touching memory, and the
// caller applies them later via Warp.ApplyAtomic.
func (s *WarpStore) SetDeferAtomics(v bool) { s.deferAtomics = v }

// Slots returns the allocated slot capacity.
func (s *WarpStore) Slots() int { return s.slots }

// FreeSlots returns how many slots are currently unbound.
func (s *WarpStore) FreeSlots() int { return len(s.free) }

// Bind resets the slot to warp globalID's dispatch state and returns a
// handle for it. lds is the workgroup's local-data-share backing, shared
// between sibling warps.
func (s *WarpStore) Bind(slot, globalID int, lds []byte) Warp {
	if slot < 0 || slot >= s.slots {
		panic(fmt.Sprintf("emu: %s: bind of slot %d in a %d-slot store",
			s.launch.Name, slot, s.slots))
	}
	l := s.launch
	w := Warp{
		Launch:    l,
		GlobalID:  globalID,
		GroupID:   globalID / l.WarpsPerGroup,
		IDInGroup: globalID % l.WarpsPerGroup,
		store:     s,
		slot:      slot,
		lds:       lds,
	}
	s.resetSlot(slot, &w)
	return w
}

// resetSlot writes warp w's dispatch-time architectural state into the slot:
// zeroed registers and counters, full EXEC, and the launch's dispatch
// conventions (s0=workgroup ID, s1=warp ID within group, s2=global warp ID,
// s3=warps per group, kernel args from s8, v0=lane).
func (s *WarpStore) resetSlot(slot int, w *Warp) {
	s.pc[slot] = 0
	s.exec[slot] = ^uint64(0)
	s.vcc[slot] = 0
	s.instCount[slot] = 0
	s.outMem[slot] = 0
	s.flags[slot] = 0
	clear(s.masks[slot*maskSlots : (slot+1)*maskSlots])
	sgpr := s.sgpr[slot*s.sregs : (slot+1)*s.sregs]
	clear(sgpr)
	sgpr[0] = uint32(w.GroupID)
	sgpr[1] = uint32(w.IDInGroup)
	sgpr[2] = uint32(w.GlobalID)
	sgpr[3] = uint32(s.launch.WarpsPerGroup)
	copy(sgpr[kernel.ArgSGPRBase:], s.launch.Args)
	vgpr := s.vgpr[slot*s.vwords : (slot+1)*s.vwords]
	clear(vgpr)
	if s.vwords > 0 {
		for lane := 0; lane < kernel.WavefrontSize; lane++ {
			vgpr[lane] = uint32(lane)
		}
	}
	clear(s.bb[slot*s.blocks : (slot+1)*s.blocks])
}

// BytesPerWarp returns the store's architectural bytes per warp slot under
// its current shape — the slab bytes divided by slots, with no per-object
// overhead. This is the budget README's "Memory layout" section documents.
func (s *WarpStore) BytesPerWarp() int {
	return warpSlotBytes(s.sregs, s.vwords, s.blocks)
}

// ResidentBytes returns the total heap bytes the store's slabs retain
// (capacities, not lengths), plus the shared address and broadcast buffers.
func (s *WarpStore) ResidentBytes() int {
	return cap(s.pc)*4 + cap(s.exec)*8 + cap(s.vcc)*8 +
		cap(s.instCount)*8 + cap(s.outMem)*4 + cap(s.flags) +
		cap(s.masks)*8 + (cap(s.sgpr)+cap(s.vgpr)+cap(s.bb))*4 +
		cap(s.free)*4 + len(s.addrBuf)*8 + len(s.bcast)*len(s.bcast[0])*4
}

// WarpBytes returns the SoA bytes per warp slot a store for the launch
// would use, without building one. The fast-forward path sizes its replay
// batches from this.
func WarpBytes(l *kernel.Launch) int {
	p := l.Program
	sregs := max(p.NumSRegs, kernel.ArgSGPRBase+len(l.Args))
	return warpSlotBytes(sregs, p.NumVRegs*kernel.WavefrontSize, p.NumBlocks())
}

// warpSlotBytes is the per-slot byte budget: pc(4) + exec(8) + vcc(8) +
// instCount(8) + outMem(4) + flags(1) + masks(8×8) + the register and BBV
// slab strides at 4 bytes per word.
func warpSlotBytes(sregs, vwords, blocks int) int {
	const scalarBytes = 4 + 8 + 8 + 8 + 4 + 1 + maskSlots*8
	return scalarBytes + (sregs+vwords+blocks)*4
}

func (s *WarpStore) scc(slot int) bool { return s.flags[slot]&flagSCC != 0 }

func (s *WarpStore) setSCC(slot int, v bool) {
	if v {
		s.flags[slot] |= flagSCC
	} else {
		s.flags[slot] &^= flagSCC
	}
}
