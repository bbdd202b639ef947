package emu

import (
	"fmt"
	"math"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// The reference oracle: the emulator's original per-lane vector kernels,
// kept verbatim (renamed) so the lane kernels in warp.go can be diffed
// against them. Each walks the 64 lanes, skips inactive ones, and switches
// on the op inside the loop; none of them may be edited to follow a change
// in warp.go.

func refVectorALU(w *Warp, in *isa.Inst, sgpr []uint32) {
	vgpr := w.vregs()
	exec := w.store.exec[w.slot]
	l0, b0 := refVsrc(sgpr, vgpr, in.Src0)
	l1, b1 := refVsrc(sgpr, vgpr, in.Src1)
	l2, b2 := refVsrc(sgpr, vgpr, in.Src2)
	dst := refVdst(vgpr, in.Dst)
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		a, b := refLv(l0, b0, lane), refLv(l1, b1, lane)
		var r uint32
		switch in.Op {
		case isa.OpVMov:
			r = a
		case isa.OpVAdd:
			r = a + b
		case isa.OpVSub:
			r = a - b
		case isa.OpVMul:
			r = uint32(sext(a) * sext(b))
		case isa.OpVMad:
			r = uint32(sext(a)*sext(b)) + refLv(l2, b2, lane)
		case isa.OpVLShl:
			r = a << (b & 31)
		case isa.OpVLShr:
			r = a >> (b & 31)
		case isa.OpVAnd:
			r = a & b
		case isa.OpVOr:
			r = a | b
		case isa.OpVXor:
			r = a ^ b
		case isa.OpVMin:
			x, y := sext(a), sext(b)
			if y < x {
				x = y
			}
			r = uint32(x)
		case isa.OpVMax:
			x, y := sext(a), sext(b)
			if y > x {
				x = y
			}
			r = uint32(x)
		case isa.OpVDiv:
			r = a / b
		case isa.OpVMod:
			r = a % b
		case isa.OpVFAdd:
			r = bits32(f32(a) + f32(b))
		case isa.OpVFSub:
			r = bits32(f32(a) - f32(b))
		case isa.OpVFMul:
			r = bits32(f32(a) * f32(b))
		case isa.OpVFFma:
			r = bits32(f32(a)*f32(b) + f32(refLv(l2, b2, lane)))
		case isa.OpVFMin:
			r = bits32(float32(math.Min(float64(f32(a)), float64(f32(b)))))
		case isa.OpVFMax:
			r = bits32(float32(math.Max(float64(f32(a)), float64(f32(b)))))
		case isa.OpVFRcp:
			r = bits32(1 / f32(a))
		case isa.OpVFSqrt:
			r = bits32(float32(math.Sqrt(float64(f32(a)))))
		case isa.OpVFExp:
			r = bits32(float32(math.Exp(float64(f32(a)))))
		case isa.OpVFAbs:
			r = bits32(float32(math.Abs(float64(f32(a)))))
		case isa.OpVCvtI2F:
			r = bits32(float32(sext(a)))
		case isa.OpVCvtF2I:
			r = uint32(int32(f32(a)))
		}
		dst[lane] = r
	}
}

func refVectorCmp(w *Warp, in *isa.Inst, sgpr []uint32) {
	vgpr := w.vregs()
	exec := w.store.exec[w.slot]
	l0, b0 := refVsrc(sgpr, vgpr, in.Src0)
	l1, b1 := refVsrc(sgpr, vgpr, in.Src1)
	var vcc uint64
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		a, b := refLv(l0, b0, lane), refLv(l1, b1, lane)
		var t bool
		switch in.Op {
		case isa.OpVCmpLt:
			t = sext(a) < sext(b)
		case isa.OpVCmpLe:
			t = sext(a) <= sext(b)
		case isa.OpVCmpEq:
			t = a == b
		case isa.OpVCmpNe:
			t = a != b
		case isa.OpVCmpGt:
			t = sext(a) > sext(b)
		case isa.OpVCmpGe:
			t = sext(a) >= sext(b)
		case isa.OpVFCmpLt:
			t = f32(a) < f32(b)
		case isa.OpVFCmpGt:
			t = f32(a) > f32(b)
		}
		if t {
			vcc |= 1 << uint(lane)
		}
	}
	w.store.vcc[w.slot] = vcc
}

func refVectorMem(w *Warp, in *isa.Inst, info *StepInfo, sgpr []uint32, store bool) {
	info.Kind = StepVectorMem
	info.IsStore = store
	st := w.store
	vgpr := w.vregs()
	exec := st.exec[w.slot]
	la, ba := refVsrc(sgpr, vgpr, in.Src0)
	lval, bval := refVsrc(sgpr, vgpr, in.Src1)
	var dst []uint32
	if !store {
		dst = refVdst(vgpr, in.Dst)
	}
	n := 0
	memArena := st.mem
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		addr := uint64(refLv(la, ba, lane)) + uint64(int64(in.Offset))
		st.addrBuf[n] = addr
		n++
		if store {
			memArena.Write32(addr, refLv(lval, bval, lane))
		} else {
			dst[lane] = memArena.Read32(addr)
		}
	}
	info.Addrs = st.addrBuf[:n]
	st.outMem[w.slot]++
}

func refLDSAccess(w *Warp, in *isa.Inst, info *StepInfo, sgpr []uint32, store bool) {
	info.Kind = StepLDS
	info.IsStore = store
	vgpr := w.vregs()
	exec := w.store.exec[w.slot]
	la, ba := refVsrc(sgpr, vgpr, in.Src0)
	lval, bval := refVsrc(sgpr, vgpr, in.Src1)
	var dst []uint32
	if !store {
		dst = refVdst(vgpr, in.Dst)
	}
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		addr := int(refLv(la, ba, lane)) + int(in.Offset)
		if addr < 0 || addr+4 > len(w.lds) {
			panic(fmt.Sprintf("emu: %s warp %d: LDS access %d out of %d bytes",
				w.Launch.Name, w.GlobalID, addr, len(w.lds)))
		}
		if store {
			v := refLv(lval, bval, lane)
			w.lds[addr] = byte(v)
			w.lds[addr+1] = byte(v >> 8)
			w.lds[addr+2] = byte(v >> 16)
			w.lds[addr+3] = byte(v >> 24)
		} else {
			v := uint32(w.lds[addr]) | uint32(w.lds[addr+1])<<8 |
				uint32(w.lds[addr+2])<<16 | uint32(w.lds[addr+3])<<24
			dst[lane] = v
		}
	}
}

// refAtomicMem executes a per-lane read-modify-write. Lanes resolve in lane
// order, making intra-warp conflicts on one address deterministic.
func refAtomicMem(w *Warp, in *isa.Inst, info *StepInfo, sgpr []uint32) {
	info.Kind = StepAtomic
	info.IsStore = true
	st := w.store
	vgpr := w.vregs()
	exec := st.exec[w.slot]
	la, ba := refVsrc(sgpr, vgpr, in.Src0)
	lval, bval := refVsrc(sgpr, vgpr, in.Src1)
	if st.deferAtomics {
		n := 0
		for lane := 0; lane < kernel.WavefrontSize; lane++ {
			if exec&(1<<uint(lane)) == 0 {
				continue
			}
			st.addrBuf[n] = uint64(refLv(la, ba, lane)) + uint64(int64(in.Offset))
			st.atomVal[n] = refLv(lval, bval, lane)
			st.atomLane[n] = uint8(lane)
			n++
		}
		info.Addrs = st.addrBuf[:n]
		info.AtomicVals = st.atomVal[:n]
		info.AtomicLanes = st.atomLane[:n]
		st.outMem[w.slot]++
		return
	}
	var dst []uint32
	if in.Dst.Kind == isa.OperandVReg {
		dst = refVdst(vgpr, in.Dst)
	}
	n := 0
	memArena := st.mem
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		addr := uint64(refLv(la, ba, lane)) + uint64(int64(in.Offset))
		st.addrBuf[n] = addr
		n++
		old := memArena.Read32(addr)
		val := refLv(lval, bval, lane)
		next := atomicRMW(in.Op, old, val)
		memArena.Write32(addr, next)
		if dst != nil {
			dst[lane] = old
		}
	}
	info.Addrs = st.addrBuf[:n]
	st.outMem[w.slot]++
}

// refVsrc, refLv and refVdst are the original per-lane operand helpers.
func refVsrc(sgpr, vgpr []uint32, o isa.Operand) (lanes []uint32, bcast uint32) {
	switch o.Kind {
	case isa.OperandVReg:
		base := int(o.Idx) * kernel.WavefrontSize
		return vgpr[base : base+kernel.WavefrontSize], 0
	case isa.OperandSReg:
		return nil, sgpr[o.Idx]
	case isa.OperandImm:
		return nil, uint32(o.Imm)
	}
	return nil, 0
}

func refLv(lanes []uint32, bcast uint32, lane int) uint32 {
	if lanes != nil {
		return lanes[lane]
	}
	return bcast
}

func refVdst(vgpr []uint32, o isa.Operand) []uint32 {
	base := int(o.Idx) * kernel.WavefrontSize
	return vgpr[base : base+kernel.WavefrontSize]
}
