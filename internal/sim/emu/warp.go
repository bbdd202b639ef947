// Package emu is the functional emulator: it executes warps of a kernel
// launch instruction-by-instruction over real register state, with lane
// masking for divergence. The timing model drives it one instruction at a
// time in detailed mode; fast-forward (sampled) modes run it in a tight loop
// with no timing at all — the speed gap between those two paths is exactly
// what sampled simulation exploits.
//
// Warp state lives in a structure-of-arrays WarpStore; a Warp is a thin
// slot handle into one, so batch execution sweeps contiguous slabs.
package emu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// StepKind tells the timing model what a step did.
type StepKind uint8

const (
	StepALU StepKind = iota
	StepVectorMem
	StepAtomic
	StepScalarMem
	StepLDS
	StepBarrier
	StepWaitcnt
	StepDone
)

// StepInfo reports the side effects of executing one instruction, for the
// timing model's consumption. Addrs aliases the warp's store-shared scratch
// buffer and is only valid until the next Step on any warp of that store.
type StepInfo struct {
	Kind     StepKind
	Inst     *isa.Inst
	IsStore  bool
	Addrs    []uint64 // per-active-lane byte addresses for vector memory
	SAddr    uint64   // address for scalar loads
	EnteredB bool     // this instruction is the first of a basic block
	BlockIdx int      // static basic-block index containing the instruction

	// AtomicVals/AtomicLanes are the captured per-lane operand values and
	// lane indices of a deferred atomic (SetDeferAtomics mode). They alias
	// store scratch with Addrs' lifetime; the caller must copy them before
	// the next Step and replay them through Warp.ApplyAtomic.
	AtomicVals  []uint32
	AtomicLanes []uint8
}

// Warp is a handle to one wavefront's architectural state: a slot in a
// WarpStore plus the identity fields that never change over the warp's
// lifetime. Handles are small values; copy them freely, but note that
// copies share the underlying slot.
type Warp struct {
	Launch    *kernel.Launch
	GlobalID  int
	GroupID   int
	IDInGroup int

	store *WarpStore
	slot  int
	lds   []byte // shared with the other warps of the workgroup
}

// NewWarp creates warp warpID of the launch, backed by a private
// single-slot store. lds is the workgroup's local-data-share backing,
// shared between sibling warps. The batch paths (Group, Replayer, the
// timing machine) bind warps into shared stores instead.
func NewWarp(l *kernel.Launch, globalID int, lds []byte) *Warp {
	w := &Warp{}
	w.Reset(l, globalID, lds)
	return w
}

// Reset reinitializes a standalone warp for a new dispatch, reusing its
// private store's slabs when they are large enough. After Reset the warp is
// indistinguishable from a NewWarp result. Warps bound into a shared store
// are rebound through WarpStore.Bind instead.
func (w *Warp) Reset(l *kernel.Launch, globalID int, lds []byte) {
	if w.store == nil {
		w.store = &WarpStore{}
	}
	w.store.Configure(l, 1)
	*w = w.store.Bind(0, globalID, lds)
}

// Slot returns the warp's slot index in its store; the timing machine uses
// it to release slots at workgroup retirement.
func (w *Warp) Slot() int { return w.slot }

// PC returns the warp's program counter.
func (w *Warp) PC() int { return int(w.store.pc[w.slot]) }

// SCC returns the scalar condition code.
func (w *Warp) SCC() bool { return w.store.scc(w.slot) }

// SetSCC sets the scalar condition code (tests use it).
func (w *Warp) SetSCC(v bool) { w.store.setSCC(w.slot, v) }

// Exec returns the EXEC lane mask.
func (w *Warp) Exec() uint64 { return w.store.exec[w.slot] }

// SetExec sets the EXEC lane mask (tests use it).
func (w *Warp) SetExec(v uint64) { w.store.exec[w.slot] = v }

// VCC returns the vector condition code mask.
func (w *Warp) VCC() uint64 { return w.store.vcc[w.slot] }

// SetVCC sets the vector condition code mask (tests use it).
func (w *Warp) SetVCC(v uint64) { w.store.vcc[w.slot] = v }

// Done reports whether the warp executed s_endpgm.
func (w *Warp) Done() bool { return w.store.flags[w.slot]&flagDone != 0 }

// AtBarrier reports whether the warp is waiting at s_barrier.
func (w *Warp) AtBarrier() bool { return w.store.flags[w.slot]&flagBarrier != 0 }

// ClearBarrier resumes a warp waiting at s_barrier; the group runtimes call
// it once every live sibling has arrived.
func (w *Warp) ClearBarrier() { w.store.flags[w.slot] &^= flagBarrier }

// InstCount returns the number of dynamic instructions executed.
func (w *Warp) InstCount() uint64 { return w.store.instCount[w.slot] }

// BBCounts returns the warp's Basic Block Vector: entry counts per static
// basic block. The slice aliases the store's slab; it is valid until the
// slot is released or rebound.
func (w *Warp) BBCounts() []uint32 {
	s := w.store
	return s.bb[w.slot*s.blocks : (w.slot+1)*s.blocks]
}

func (w *Warp) sregs() []uint32 {
	s := w.store
	return s.sgpr[w.slot*s.sregs : (w.slot+1)*s.sregs]
}

func (w *Warp) vregs() []uint32 {
	s := w.store
	return s.vgpr[w.slot*s.vwords : (w.slot+1)*s.vwords]
}

// ActiveLanes returns the number of lanes enabled in EXEC.
func (w *Warp) ActiveLanes() int { return popcount(w.Exec()) }

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// sread reads a scalar source from the hoisted SGPR window.
func (w *Warp) sread(sgpr []uint32, o isa.Operand) uint32 {
	switch o.Kind {
	case isa.OperandSReg:
		return sgpr[o.Idx]
	case isa.OperandImm:
		return uint32(o.Imm)
	}
	return badOperand(w.Launch.Name, "scalar", o.Kind)
}

//go:noinline
func badOperand(name, class string, k isa.OperandKind) uint32 {
	panic(fmt.Sprintf("emu: %s: bad %s operand kind %d", name, class, k))
}

// lanes is one wavefront-wide row of 32-bit values: a vector register, or a
// store scratch row holding a broadcast value.
type lanes [kernel.WavefrontSize]uint32

// allLanes is the EXEC mask with every lane of the wavefront enabled.
const allLanes = ^uint64(0)

// zeroLanes backs a source an op does not declare (OperandNone); it is
// never written.
var zeroLanes lanes

// vreg returns vector register r's lane row.
func vreg(vgpr []uint32, r uint16) *lanes {
	base := int(r) * kernel.WavefrontSize
	return (*lanes)(vgpr[base : base+kernel.WavefrontSize])
}

// src resolves source operand k (0..2) of a vector instruction once per
// instruction, not once per lane. Lane i of the source is row[i&mask]: a
// VReg source is its register row with mask 63, while a scalar register or
// immediate is written once into row[0] of the store's scratch row k and
// read with mask 0. The masked index keeps every kernel a single loop with
// no per-lane branch on the operand kind and no bounds checks.
func (s *WarpStore) src(k int, sgpr, vgpr []uint32, o isa.Operand) (row *lanes, mask int) {
	switch o.Kind {
	case isa.OperandVReg:
		return vreg(vgpr, o.Idx), kernel.WavefrontSize - 1
	case isa.OperandSReg:
		s.bcast[k][0] = sgpr[o.Idx]
	case isa.OperandImm:
		s.bcast[k][0] = uint32(o.Imm)
	default:
		return &zeroLanes, 0
	}
	return &s.bcast[k], 0
}

// SReg returns scalar register i (for tests and debugging).
func (w *Warp) SReg(i int) uint32 { return w.sregs()[i] }

// VReg returns vector register i of the given lane (for tests).
func (w *Warp) VReg(i, lane int) uint32 { return w.vregs()[i*kernel.WavefrontSize+lane] }

func f32(bits uint32) float32 { return math.Float32frombits(bits) }
func bits32(f float32) uint32 { return math.Float32bits(f) }
func sext(v uint32) int32     { return int32(v) }

// Step executes the instruction at PC and advances the warp. It must not be
// called on a Done warp; callers resume barriers by ClearBarrier. The SGPR
// and VGPR windows are hoisted once per instruction so the hot loop indexes
// flat slices instead of re-slicing the slabs per operand.
func (w *Warp) Step(info *StepInfo) {
	st := w.store
	slot := w.slot
	if st.flags[slot]&flagDone != 0 {
		panic(fmt.Sprintf("emu: %s warp %d stepped after s_endpgm", w.Launch.Name, w.GlobalID))
	}
	p := w.Launch.Program
	pc := int(st.pc[slot])
	in := &p.Insts[pc]
	*info = StepInfo{Kind: StepALU, Inst: in, BlockIdx: p.BlockIndexAt(pc)}
	if p.BlockStartsAt(pc) {
		info.EnteredB = true
		st.bb[slot*st.blocks+info.BlockIdx]++
	}
	st.instCount[slot]++
	nextPC := pc + 1
	sgpr := st.sgpr[slot*st.sregs : (slot+1)*st.sregs]

	switch in.Op {
	// ---- scalar ALU ----
	case isa.OpSMov:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0)
	case isa.OpSAdd:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) + w.sread(sgpr, in.Src1)
	case isa.OpSSub:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) - w.sread(sgpr, in.Src1)
	case isa.OpSMul:
		sgpr[in.Dst.Idx] = uint32(sext(w.sread(sgpr, in.Src0)) * sext(w.sread(sgpr, in.Src1)))
	case isa.OpSLShl:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) << (w.sread(sgpr, in.Src1) & 31)
	case isa.OpSLShr:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) >> (w.sread(sgpr, in.Src1) & 31)
	case isa.OpSAnd:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) & w.sread(sgpr, in.Src1)
	case isa.OpSOr:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) | w.sread(sgpr, in.Src1)
	case isa.OpSXor:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) ^ w.sread(sgpr, in.Src1)
	case isa.OpSMin:
		a, b := sext(w.sread(sgpr, in.Src0)), sext(w.sread(sgpr, in.Src1))
		if b < a {
			a = b
		}
		sgpr[in.Dst.Idx] = uint32(a)
	case isa.OpSMax:
		a, b := sext(w.sread(sgpr, in.Src0)), sext(w.sread(sgpr, in.Src1))
		if b > a {
			a = b
		}
		sgpr[in.Dst.Idx] = uint32(a)
	case isa.OpSDiv:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) / w.sread(sgpr, in.Src1)
	case isa.OpSMod:
		sgpr[in.Dst.Idx] = w.sread(sgpr, in.Src0) % w.sread(sgpr, in.Src1)
	case isa.OpSCmpLt:
		st.setSCC(slot, sext(w.sread(sgpr, in.Src0)) < sext(w.sread(sgpr, in.Src1)))
	case isa.OpSCmpLe:
		st.setSCC(slot, sext(w.sread(sgpr, in.Src0)) <= sext(w.sread(sgpr, in.Src1)))
	case isa.OpSCmpEq:
		st.setSCC(slot, w.sread(sgpr, in.Src0) == w.sread(sgpr, in.Src1))
	case isa.OpSCmpNe:
		st.setSCC(slot, w.sread(sgpr, in.Src0) != w.sread(sgpr, in.Src1))
	case isa.OpSCmpGt:
		st.setSCC(slot, sext(w.sread(sgpr, in.Src0)) > sext(w.sread(sgpr, in.Src1)))
	case isa.OpSCmpGe:
		st.setSCC(slot, sext(w.sread(sgpr, in.Src0)) >= sext(w.sread(sgpr, in.Src1)))

	// ---- vector ALU ----
	case isa.OpVMov, isa.OpVAdd, isa.OpVSub, isa.OpVMul, isa.OpVMad,
		isa.OpVLShl, isa.OpVLShr, isa.OpVAnd, isa.OpVOr, isa.OpVXor,
		isa.OpVMin, isa.OpVMax, isa.OpVDiv, isa.OpVMod,
		isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul, isa.OpVFFma, isa.OpVFMin,
		isa.OpVFMax, isa.OpVFRcp, isa.OpVFSqrt, isa.OpVFExp, isa.OpVFAbs,
		isa.OpVCvtI2F, isa.OpVCvtF2I:
		w.vectorALU(in, sgpr)

	// ---- vector compares ----
	case isa.OpVCmpLt, isa.OpVCmpLe, isa.OpVCmpEq, isa.OpVCmpNe,
		isa.OpVCmpGt, isa.OpVCmpGe, isa.OpVFCmpLt, isa.OpVFCmpGt:
		w.vectorCmp(in, sgpr)

	// ---- exec mask ----
	case isa.OpSAndSaveExec:
		st.masks[slot*maskSlots+int(in.Dst.Idx)] = st.exec[slot]
		st.exec[slot] &= st.vcc[slot]
	case isa.OpSAndNotExec:
		st.exec[slot] = st.masks[slot*maskSlots+int(in.Src0.Idx)] &^ st.vcc[slot]
	case isa.OpSSetExec:
		st.exec[slot] = st.masks[slot*maskSlots+int(in.Src0.Idx)]
	case isa.OpSMovExecAll:
		st.exec[slot] = ^uint64(0)

	// ---- memory ----
	case isa.OpSLoad:
		addr := uint64(w.sread(sgpr, in.Src0)) + uint64(int64(in.Offset))
		sgpr[in.Dst.Idx] = st.mem.Read32(addr)
		info.Kind = StepScalarMem
		info.SAddr = addr
	case isa.OpVLoad:
		w.vectorMem(in, info, sgpr, false)
	case isa.OpVStore:
		w.vectorMem(in, info, sgpr, true)
	case isa.OpVAtomicAdd, isa.OpVAtomicMax, isa.OpVAtomicMin, isa.OpVAtomicFAdd:
		w.atomicMem(in, info, sgpr)
	case isa.OpLDSLoad:
		w.ldsAccess(in, info, sgpr, false)
	case isa.OpLDSStore:
		w.ldsAccess(in, info, sgpr, true)

	// ---- control ----
	case isa.OpSBranch:
		nextPC = in.Target
	case isa.OpCBranchSCC0:
		if !st.scc(slot) {
			nextPC = in.Target
		}
	case isa.OpCBranchSCC1:
		if st.scc(slot) {
			nextPC = in.Target
		}
	case isa.OpCBranchVCCZ:
		if st.vcc[slot] == 0 {
			nextPC = in.Target
		}
	case isa.OpCBranchVCCNZ:
		if st.vcc[slot] != 0 {
			nextPC = in.Target
		}
	case isa.OpCBranchExecZ:
		if st.exec[slot] == 0 {
			nextPC = in.Target
		}
	case isa.OpCBranchExecNZ:
		if st.exec[slot] != 0 {
			nextPC = in.Target
		}
	case isa.OpSBarrier:
		st.flags[slot] |= flagBarrier
		info.Kind = StepBarrier
	case isa.OpSWaitcnt:
		st.outMem[slot] = 0
		info.Kind = StepWaitcnt
	case isa.OpSNop:
		// nothing
	case isa.OpSEndpgm:
		st.flags[slot] |= flagDone
		info.Kind = StepDone
	default:
		panic(fmt.Sprintf("emu: %s: unimplemented op %s", w.Launch.Name, in.Op))
	}

	st.pc[slot] = int32(nextPC)
}

// vectorALU switches on the op once and runs that op's own loop over the
// lane rows. Under full EXEC the loop covers every lane; a partial EXEC
// takes vectorALULanes, which visits only the enabled lanes.
func (w *Warp) vectorALU(in *isa.Inst, sgpr []uint32) {
	st := w.store
	exec := st.exec[w.slot]
	if exec != allLanes {
		w.vectorALULanes(in, sgpr, exec)
		return
	}
	vgpr := w.vregs()
	a, am := st.src(0, sgpr, vgpr, in.Src0)
	b, bm := st.src(1, sgpr, vgpr, in.Src1)
	d := vreg(vgpr, in.Dst.Idx)
	switch in.Op {
	case isa.OpVMov:
		for i := range d {
			d[i] = a[i&am]
		}
	case isa.OpVAdd:
		for i := range d {
			d[i] = a[i&am] + b[i&bm]
		}
	case isa.OpVSub:
		for i := range d {
			d[i] = a[i&am] - b[i&bm]
		}
	case isa.OpVMul:
		for i := range d {
			d[i] = uint32(sext(a[i&am]) * sext(b[i&bm]))
		}
	case isa.OpVMad:
		c, cm := st.src(2, sgpr, vgpr, in.Src2)
		for i := range d {
			d[i] = uint32(sext(a[i&am])*sext(b[i&bm])) + c[i&cm]
		}
	case isa.OpVLShl:
		for i := range d {
			d[i] = a[i&am] << (b[i&bm] & 31)
		}
	case isa.OpVLShr:
		for i := range d {
			d[i] = a[i&am] >> (b[i&bm] & 31)
		}
	case isa.OpVAnd:
		for i := range d {
			d[i] = a[i&am] & b[i&bm]
		}
	case isa.OpVOr:
		for i := range d {
			d[i] = a[i&am] | b[i&bm]
		}
	case isa.OpVXor:
		for i := range d {
			d[i] = a[i&am] ^ b[i&bm]
		}
	case isa.OpVMin:
		for i := range d {
			d[i] = uint32(min(sext(a[i&am]), sext(b[i&bm])))
		}
	case isa.OpVMax:
		for i := range d {
			d[i] = uint32(max(sext(a[i&am]), sext(b[i&bm])))
		}
	case isa.OpVDiv:
		for i := range d {
			d[i] = a[i&am] / b[i&bm]
		}
	case isa.OpVMod:
		for i := range d {
			d[i] = a[i&am] % b[i&bm]
		}
	case isa.OpVFAdd:
		for i := range d {
			x, y := a[i&am], b[i&bm]
			d[i] = nan2(bits32(f32(x)+f32(y)), x, y)
		}
	case isa.OpVFSub:
		for i := range d {
			x, y := a[i&am], b[i&bm]
			d[i] = nan2(bits32(f32(x)-f32(y)), x, y)
		}
	case isa.OpVFMul:
		for i := range d {
			x, y := a[i&am], b[i&bm]
			d[i] = nan2(bits32(f32(x)*f32(y)), x, y)
		}
	case isa.OpVFFma:
		c, cm := st.src(2, sgpr, vgpr, in.Src2)
		for i := range d {
			x, y, z := a[i&am], b[i&bm], c[i&cm]
			d[i] = nanFma(bits32(f32(x)*f32(y)+f32(z)), x, y, z)
		}
	case isa.OpVFMin:
		for i := range d {
			d[i] = bits32(float32(math.Min(float64(f32(a[i&am])), float64(f32(b[i&bm])))))
		}
	case isa.OpVFMax:
		for i := range d {
			d[i] = bits32(float32(math.Max(float64(f32(a[i&am])), float64(f32(b[i&bm])))))
		}
	case isa.OpVFRcp:
		for i := range d {
			d[i] = bits32(1 / f32(a[i&am]))
		}
	case isa.OpVFSqrt:
		for i := range d {
			d[i] = bits32(float32(math.Sqrt(float64(f32(a[i&am])))))
		}
	case isa.OpVFExp:
		for i := range d {
			d[i] = bits32(float32(math.Exp(float64(f32(a[i&am])))))
		}
	case isa.OpVFAbs:
		for i := range d {
			d[i] = bits32(float32(math.Abs(float64(f32(a[i&am])))))
		}
	case isa.OpVCvtI2F:
		for i := range d {
			d[i] = bits32(float32(sext(a[i&am])))
		}
	case isa.OpVCvtF2I:
		for i := range d {
			d[i] = uint32(int32(f32(a[i&am])))
		}
	}
}

// vectorALULanes is the partial-EXEC path: the per-lane switch over the
// enabled lanes only, so an inactive lane never computes (v_div and v_mod
// would trap on its stale divisor).
func (w *Warp) vectorALULanes(in *isa.Inst, sgpr []uint32, exec uint64) {
	st := w.store
	vgpr := w.vregs()
	a, am := st.src(0, sgpr, vgpr, in.Src0)
	b, bm := st.src(1, sgpr, vgpr, in.Src1)
	c, cm := st.src(2, sgpr, vgpr, in.Src2)
	d := vreg(vgpr, in.Dst.Idx)
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		x, y := a[lane&am], b[lane&bm]
		var r uint32
		switch in.Op {
		case isa.OpVMov:
			r = x
		case isa.OpVAdd:
			r = x + y
		case isa.OpVSub:
			r = x - y
		case isa.OpVMul:
			r = uint32(sext(x) * sext(y))
		case isa.OpVMad:
			r = uint32(sext(x)*sext(y)) + c[lane&cm]
		case isa.OpVLShl:
			r = x << (y & 31)
		case isa.OpVLShr:
			r = x >> (y & 31)
		case isa.OpVAnd:
			r = x & y
		case isa.OpVOr:
			r = x | y
		case isa.OpVXor:
			r = x ^ y
		case isa.OpVMin:
			r = uint32(min(sext(x), sext(y)))
		case isa.OpVMax:
			r = uint32(max(sext(x), sext(y)))
		case isa.OpVDiv:
			r = x / y
		case isa.OpVMod:
			r = x % y
		case isa.OpVFAdd:
			r = nan2(bits32(f32(x)+f32(y)), x, y)
		case isa.OpVFSub:
			r = nan2(bits32(f32(x)-f32(y)), x, y)
		case isa.OpVFMul:
			r = nan2(bits32(f32(x)*f32(y)), x, y)
		case isa.OpVFFma:
			z := c[lane&cm]
			r = nanFma(bits32(f32(x)*f32(y)+f32(z)), x, y, z)
		case isa.OpVFMin:
			r = bits32(float32(math.Min(float64(f32(x)), float64(f32(y)))))
		case isa.OpVFMax:
			r = bits32(float32(math.Max(float64(f32(x)), float64(f32(y)))))
		case isa.OpVFRcp:
			r = bits32(1 / f32(x))
		case isa.OpVFSqrt:
			r = bits32(float32(math.Sqrt(float64(f32(x)))))
		case isa.OpVFExp:
			r = bits32(float32(math.Exp(float64(f32(x)))))
		case isa.OpVFAbs:
			r = bits32(float32(math.Abs(float64(f32(x)))))
		case isa.OpVCvtI2F:
			r = bits32(float32(sext(x)))
		case isa.OpVCvtF2I:
			r = uint32(int32(f32(x)))
		}
		d[lane] = r
	}
}

// Float results that are NaN get an explicit payload, so they do not depend
// on which operand the compiler leaves in the destination register of a
// commutative instruction. The rule is the one amd64 applies when the
// destination holds the first operand, which the emulator has always
// computed: a NaN operand propagates quieted (the first, if both are NaN);
// otherwise the result is the operation's own default NaN (0·∞, ∞−∞).

// nan2 returns r, the result of x op y, with the NaN rule applied.
func nan2(r, x, y uint32) uint32 {
	if !isNaN(r) {
		return r
	}
	return pickNaN(r, x, y)
}

// nanFma returns r, the result of x*y + z, with the NaN rule applied to the
// product and then to the sum, whose first operand is the product.
func nanFma(r, x, y, z uint32) uint32 {
	if !isNaN(r) {
		return r
	}
	return fmaNaN(r, x, y, z)
}

func fmaNaN(r, x, y, z uint32) uint32 {
	return pickNaN(r, pickNaN(bits32(f32(x)*f32(y)), x, y), z)
}

// pickNaN returns x or y quieted if either is a NaN, the first one first,
// else r.
func pickNaN(r, x, y uint32) uint32 {
	const quiet = 1 << 22
	switch {
	case isNaN(x):
		return x | quiet
	case isNaN(y):
		return y | quiet
	}
	return r
}

func isNaN(v uint32) bool { return v&0x7fffffff > 0x7f800000 }

// vectorCmp switches on the op once and compares every lane, then masks the
// result with EXEC: a compare cannot trap, so computing an inactive lane is
// harmless and its bit never reaches VCC.
func (w *Warp) vectorCmp(in *isa.Inst, sgpr []uint32) {
	st := w.store
	vgpr := w.vregs()
	a, am := st.src(0, sgpr, vgpr, in.Src0)
	b, bm := st.src(1, sgpr, vgpr, in.Src1)
	var vcc uint64
	switch in.Op {
	case isa.OpVCmpLt:
		for i := range kernel.WavefrontSize {
			vcc |= laneBit(sext(a[i&am]) < sext(b[i&bm]), i)
		}
	case isa.OpVCmpLe:
		for i := range kernel.WavefrontSize {
			vcc |= laneBit(sext(a[i&am]) <= sext(b[i&bm]), i)
		}
	case isa.OpVCmpEq:
		for i := range kernel.WavefrontSize {
			vcc |= laneBit(a[i&am] == b[i&bm], i)
		}
	case isa.OpVCmpNe:
		for i := range kernel.WavefrontSize {
			vcc |= laneBit(a[i&am] != b[i&bm], i)
		}
	case isa.OpVCmpGt:
		for i := range kernel.WavefrontSize {
			vcc |= laneBit(sext(a[i&am]) > sext(b[i&bm]), i)
		}
	case isa.OpVCmpGe:
		for i := range kernel.WavefrontSize {
			vcc |= laneBit(sext(a[i&am]) >= sext(b[i&bm]), i)
		}
	case isa.OpVFCmpLt:
		for i := range kernel.WavefrontSize {
			vcc |= laneBit(f32(a[i&am]) < f32(b[i&bm]), i)
		}
	case isa.OpVFCmpGt:
		for i := range kernel.WavefrontSize {
			vcc |= laneBit(f32(a[i&am]) > f32(b[i&bm]), i)
		}
	}
	st.vcc[w.slot] = vcc & st.exec[w.slot]
}

// laneBit returns lane i's mask bit when t holds.
func laneBit(t bool, i int) uint64 {
	var b uint64
	if t {
		b = 1
	}
	return b << uint(i)
}

// vectorMem computes every active lane's address first (StepInfo.Addrs
// reports them either way), then moves the data. A full-EXEC access to
// base+4·lane with a word-aligned base moves through one page window when
// the memory grants it; gathers, partial EXEC and page-straddling spans go
// lane by lane.
func (w *Warp) vectorMem(in *isa.Inst, info *StepInfo, sgpr []uint32, store bool) {
	info.Kind = StepVectorMem
	info.IsStore = store
	st := w.store
	vgpr := w.vregs()
	exec := st.exec[w.slot]
	a, am := st.src(0, sgpr, vgpr, in.Src0)
	v, vm := st.src(1, sgpr, vgpr, in.Src1)
	off := uint64(int64(in.Offset))
	var win *[4 * kernel.WavefrontSize]byte
	n := 0
	if exec == allLanes {
		// Full EXEC: note on the way whether the addresses are the span
		// base+4·lane, and if so ask the memory for its page window.
		base := uint64(a[0]) + off
		diff := base & 3
		for i := range kernel.WavefrontSize {
			addr := uint64(a[i&am]) + off
			st.addrBuf[i] = addr
			diff |= addr ^ (base + 4*uint64(i))
		}
		n = kernel.WavefrontSize
		if diff == 0 {
			if span, ok := st.mem.Window(base, 4*kernel.WavefrontSize); ok {
				win = (*[4 * kernel.WavefrontSize]byte)(span)
			}
		}
	} else {
		for m := exec; m != 0; m &= m - 1 {
			st.addrBuf[n] = uint64(a[bits.TrailingZeros64(m)&am]) + off
			n++
		}
	}
	info.Addrs = st.addrBuf[:n]
	st.outMem[w.slot]++

	var d *lanes
	if !store {
		d = vreg(vgpr, in.Dst.Idx)
	}
	if win != nil {
		if store {
			for i := range kernel.WavefrontSize {
				binary.LittleEndian.PutUint32(win[4*i:], v[i&vm])
			}
		} else {
			for i := range d {
				d[i] = binary.LittleEndian.Uint32(win[4*i:])
			}
		}
		return
	}
	for m, k := exec, 0; m != 0; m, k = m&(m-1), k+1 {
		lane := bits.TrailingZeros64(m)
		if store {
			st.mem.Write32(st.addrBuf[k], v[lane&vm])
		} else {
			d[lane] = st.mem.Read32(st.addrBuf[k])
		}
	}
}

// atomicMem executes a per-lane read-modify-write. Lanes resolve in lane
// order, making intra-warp conflicts on one address deterministic.
func (w *Warp) atomicMem(in *isa.Inst, info *StepInfo, sgpr []uint32) {
	info.Kind = StepAtomic
	info.IsStore = true
	st := w.store
	vgpr := w.vregs()
	exec := st.exec[w.slot]
	a, am := st.src(0, sgpr, vgpr, in.Src0)
	v, vm := st.src(1, sgpr, vgpr, in.Src1)
	off := uint64(int64(in.Offset))
	if st.deferAtomics {
		n := 0
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			st.addrBuf[n] = uint64(a[lane&am]) + off
			st.atomVal[n] = v[lane&vm]
			st.atomLane[n] = uint8(lane)
			n++
		}
		info.Addrs = st.addrBuf[:n]
		info.AtomicVals = st.atomVal[:n]
		info.AtomicLanes = st.atomLane[:n]
		st.outMem[w.slot]++
		return
	}
	var d *lanes
	if in.Dst.Kind == isa.OperandVReg {
		d = vreg(vgpr, in.Dst.Idx)
	}
	n := 0
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		addr := uint64(a[lane&am]) + off
		st.addrBuf[n] = addr
		n++
		old := st.mem.Read32(addr)
		st.mem.Write32(addr, atomicRMW(in.Op, old, v[lane&vm]))
		if d != nil {
			d[lane] = old
		}
	}
	info.Addrs = st.addrBuf[:n]
	st.outMem[w.slot]++
}

// atomicRMW computes the next memory value of one atomic lane.
func atomicRMW(op isa.Op, old, val uint32) uint32 {
	switch op {
	case isa.OpVAtomicAdd:
		return old + val
	case isa.OpVAtomicMax:
		if sext(val) > sext(old) {
			return val
		}
		return old
	case isa.OpVAtomicMin:
		if sext(val) < sext(old) {
			return val
		}
		return old
	case isa.OpVAtomicFAdd:
		return bits32(f32(old) + f32(val))
	}
	panic(fmt.Sprintf("emu: atomicRMW on non-atomic op %s", op))
}

// ApplyAtomic replays a deferred atomic captured by Step under
// SetDeferAtomics: the read-modify-writes execute now, in the given lane
// order, and the old values land in the destination register if the
// instruction names one. The timing machine calls this at the quantum
// barrier at the operation's deterministic completion slot; destination
// writes landing after issue match hardware's asynchronous writeback, which
// well-formed programs order with s_waitcnt before reuse.
func (w *Warp) ApplyAtomic(in *isa.Inst, addrs []uint64, vals []uint32, laneIDs []uint8) {
	st := w.store
	var d *lanes
	if in.Dst.Kind == isa.OperandVReg {
		d = vreg(w.vregs(), in.Dst.Idx)
	}
	for i, addr := range addrs {
		old := st.mem.Read32(addr)
		st.mem.Write32(addr, atomicRMW(in.Op, old, vals[i]))
		if d != nil {
			d[laneIDs[i]] = old
		}
	}
}

// ldsAccess moves one word per active lane between a VGPR and the
// workgroup's LDS. Under full EXEC the lowest and highest lane address are
// bounds-checked once and the words move without per-lane range checks; a
// partial EXEC, or a failed range check, goes lane by lane and panics at
// the first out-of-range lane.
func (w *Warp) ldsAccess(in *isa.Inst, info *StepInfo, sgpr []uint32, store bool) {
	info.Kind = StepLDS
	info.IsStore = store
	st := w.store
	vgpr := w.vregs()
	exec := st.exec[w.slot]
	a, am := st.src(0, sgpr, vgpr, in.Src0)
	v, vm := st.src(1, sgpr, vgpr, in.Src1)
	var d *lanes
	if !store {
		d = vreg(vgpr, in.Dst.Idx)
	}
	off := int(in.Offset)
	if exec == allLanes {
		lo, hi := a[0], a[0]
		for i := range kernel.WavefrontSize {
			lo, hi = min(lo, a[i&am]), max(hi, a[i&am])
		}
		if int(lo)+off >= 0 && int(hi)+off+4 <= len(w.lds) {
			if store {
				for i := range kernel.WavefrontSize {
					binary.LittleEndian.PutUint32(w.lds[int(a[i&am])+off:], v[i&vm])
				}
			} else {
				for i := range d {
					d[i] = binary.LittleEndian.Uint32(w.lds[int(a[i&am])+off:])
				}
			}
			return
		}
	}
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		addr := int(a[lane&am]) + off
		if addr < 0 || addr+4 > len(w.lds) {
			panic(fmt.Sprintf("emu: %s warp %d: LDS access %d out of %d bytes",
				w.Launch.Name, w.GlobalID, addr, len(w.lds)))
		}
		if store {
			binary.LittleEndian.PutUint32(w.lds[addr:], v[lane&vm])
		} else {
			d[lane] = binary.LittleEndian.Uint32(w.lds[addr:])
		}
	}
}
