package emu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// The lane kernels in warp.go must be bit-identical to the per-lane oracle
// in oracle_test.go. FuzzEmuProgram cannot catch a kernel bug, because its
// functional and timing sides both execute through Step; these tests run
// one instruction on two identical warps, one through Step and one through
// the oracle, and diff the registers, memory, LDS and step report. Atomics
// keep their per-lane code but read operands through the same resolution,
// so they are diffed too.

var (
	laneALUOps = []isa.Op{
		isa.OpVMov, isa.OpVAdd, isa.OpVSub, isa.OpVMul, isa.OpVMad,
		isa.OpVLShl, isa.OpVLShr, isa.OpVAnd, isa.OpVOr, isa.OpVXor,
		isa.OpVMin, isa.OpVMax, isa.OpVDiv, isa.OpVMod,
		isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul, isa.OpVFFma, isa.OpVFMin,
		isa.OpVFMax, isa.OpVFRcp, isa.OpVFSqrt, isa.OpVFExp, isa.OpVFAbs,
		isa.OpVCvtI2F, isa.OpVCvtF2I,
	}
	laneCmpOps = []isa.Op{
		isa.OpVCmpLt, isa.OpVCmpLe, isa.OpVCmpEq, isa.OpVCmpNe,
		isa.OpVCmpGt, isa.OpVCmpGe, isa.OpVFCmpLt, isa.OpVFCmpGt,
	}
)

// Memory layout of the twins: random words over [memLo, memHi), which
// straddles the page boundary at pageEdge.
const (
	pageEdge = 0x20000
	memLo    = pageEdge - 0x1000
	memHi    = pageEdge + 0x1000
	ldsBytes = 1024
)

// laneExecs are the EXEC patterns every op runs under: all lanes, none, one
// lane, and a random mask.
func laneExecs(rng *rand.Rand) []uint64 {
	return []uint64{allLanes, 0, 1 << uint(rng.Intn(kernel.WavefrontSize)), rng.Uint64()}
}

// twinWarp is one side of a diff: a single-warp launch of a one-instruction
// program with its own memory and LDS.
type twinWarp struct {
	w    *Warp
	m    *mem.Flat
	lds  []byte
	info StepInfo
	pan  string // recovered panic text, "" if none
}

// regFill overrides the seeded value v of a register: VGPR reg at lane, or
// SGPR reg when lane is -1.
type regFill func(reg, lane int, v uint32) uint32

// newTwin fills registers, EXEC, VCC, memory and LDS from seed, identically
// for both twins; fill (when non-nil) overrides register values.
func newTwin(in isa.Inst, exec uint64, seed int64, fill regFill) *twinWarp {
	prog := isa.MustProgram("lanes", []isa.Inst{in, {Op: isa.OpSEndpgm}}, ldsBytes)
	t := &twinWarp{m: mem.NewFlat(), lds: make([]byte, ldsBytes)}
	l := &kernel.Launch{Name: "lanes", Program: prog, Memory: t.m, NumWorkgroups: 1, WarpsPerGroup: 1}
	t.w = NewWarp(l, 0, t.lds)
	rng := rand.New(rand.NewSource(seed))
	vgpr := t.w.vregs()
	for i := range vgpr {
		v := laneValue(rng)
		if fill != nil {
			v = fill(i/kernel.WavefrontSize, i%kernel.WavefrontSize, v)
		}
		vgpr[i] = v
	}
	sgpr := t.w.sregs()
	for i := 4; i < len(sgpr); i++ {
		sgpr[i] = laneValue(rng)
		if fill != nil {
			sgpr[i] = fill(i, -1, sgpr[i])
		}
	}
	if in.Op.Class() == isa.FUVectorMem {
		for a := uint64(memLo); a < memHi; a += 4 {
			t.m.Write32(a, rng.Uint32())
		}
	}
	rng.Read(t.lds)
	t.w.SetExec(exec)
	t.w.SetVCC(rng.Uint64())
	return t
}

// laneValue draws a register value that exercises integer edge cases and
// ordinary floats (random bit patterns alone are mostly huge or NaN).
func laneValue(rng *rand.Rand) uint32 {
	switch rng.Intn(4) {
	case 0:
		return rng.Uint32()
	case 1:
		return uint32(rng.Intn(64)) - 32
	default:
		return math.Float32bits(float32(rng.NormFloat64() * 8))
	}
}

// run executes the instruction through Step (oracle=false) or the oracle,
// recording a panic instead of propagating it.
func (t *twinWarp) run(oracle bool) {
	defer func() {
		if r := recover(); r != nil {
			t.pan = fmt.Sprint(r)
		}
	}()
	if !oracle {
		t.w.Step(&t.info)
		return
	}
	in := &t.w.Launch.Program.Insts[0]
	sgpr := t.w.sregs()
	switch in.Op {
	case isa.OpVLoad, isa.OpVStore:
		refVectorMem(t.w, in, &t.info, sgpr, in.Op == isa.OpVStore)
	case isa.OpVAtomicAdd, isa.OpVAtomicMax, isa.OpVAtomicMin, isa.OpVAtomicFAdd:
		refAtomicMem(t.w, in, &t.info, sgpr)
	case isa.OpLDSLoad, isa.OpLDSStore:
		t.info.Kind = StepLDS
		refLDSAccess(t.w, in, &t.info, sgpr, in.Op == isa.OpLDSStore)
	default:
		if isCmp(in.Op) {
			refVectorCmp(t.w, in, sgpr)
		} else {
			refVectorALU(t.w, in, sgpr)
		}
	}
}

func isCmp(op isa.Op) bool {
	for _, c := range laneCmpOps {
		if op == c {
			return true
		}
	}
	return false
}

// diffTwins runs in on two identical twins and returns every difference.
func diffTwins(in isa.Inst, exec uint64, seed int64, fill regFill) string {
	got, want := newTwin(in, exec, seed, fill), newTwin(in, exec, seed, fill)
	got.run(false)
	want.run(true)
	if got.pan != want.pan {
		return fmt.Sprintf("panic %q, oracle %q", got.pan, want.pan)
	}
	var gs, ws WarpState
	got.w.SnapshotInto(&gs)
	want.w.SnapshotInto(&ws)
	gs.PC, gs.InstCount, gs.BBCounts = ws.PC, ws.InstCount, ws.BBCounts // Step bookkeeping
	// The oracle decides whether a result is a NaN, not its payload: which
	// NaN the oracle propagates depends on the operand the compiler leaves
	// in the destination register, and differs between race and normal
	// builds. TestLaneKernelsNaNRule pins the kernels' payloads instead.
	for i := range gs.VGPR {
		if isNaN(gs.VGPR[i]) && isNaN(ws.VGPR[i]) {
			gs.VGPR[i] = ws.VGPR[i]
		}
	}
	d := gs.Diff(&ws)
	if got.info.Kind != want.info.Kind || got.info.IsStore != want.info.IsStore {
		d += fmt.Sprintf("step kind %d/%v, oracle %d/%v\n",
			got.info.Kind, got.info.IsStore, want.info.Kind, want.info.IsStore)
	}
	if g, w := fmt.Sprint(got.info.Addrs), fmt.Sprint(want.info.Addrs); g != w {
		d += fmt.Sprintf("step report %s, oracle %s\n", g, w)
	}
	gw, ww := got.m.ReadWords(memLo-4, (memHi-memLo)/4+2), want.m.ReadWords(memLo-4, (memHi-memLo)/4+2)
	for i := range gw {
		if gw[i] != ww[i] {
			d += fmt.Sprintf("mem[%#x] = %#x, oracle %#x\n", memLo-4+4*i, gw[i], ww[i])
			break
		}
	}
	for i := range got.lds {
		if got.lds[i] != want.lds[i] {
			d += fmt.Sprintf("lds[%d] = %#x, oracle %#x\n", i, got.lds[i], want.lds[i])
			break
		}
	}
	return d
}

// srcForms are the operand kinds every source position is tried with.
func srcForms(pos int, rng *rand.Rand) []isa.Operand {
	return []isa.Operand{isa.V(pos), isa.S(4 + pos), isa.Imm(int32(laneValue(rng)))}
}

func TestLaneKernelsMatchOracleALU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := append(append([]isa.Op{}, laneALUOps...), laneCmpOps...)
	cases := 0
	for _, op := range ops {
		for _, exec := range laneExecs(rng) {
			for _, s0 := range srcForms(0, rng) {
				for _, s1 := range srcForms(1, rng) {
					for _, s2 := range srcForms(2, rng) {
						// dst is a fresh register or aliases each source.
						for _, dst := range []int{3, 0, 1, 2} {
							in := isa.Inst{Op: op, Dst: isa.V(dst), Src0: s0, Src1: s1, Src2: s2}
							if isCmp(op) {
								in.Dst = isa.Operand{}
							}
							fill := divisorFill(op, exec)
							if in.Src1.Kind == isa.OperandImm && fill != nil && in.Src1.Imm == 0 {
								in.Src1.Imm = 3
							}
							cases++
							if d := diffTwins(in, exec, rng.Int63(), fill); d != "" {
								t.Fatalf("%v exec=%#x:\n%s", in, exec, d)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d single-instruction cases", cases)
}

// divisorFill keeps v_div/v_mod divisors (v1, s5) non-zero in active lanes
// and v1 zero in inactive ones, so an inactive lane that computed anyway
// would trap.
func divisorFill(op isa.Op, exec uint64) regFill {
	if op != isa.OpVDiv && op != isa.OpVMod {
		return nil
	}
	return func(reg, lane int, v uint32) uint32 {
		switch {
		case lane < 0 && reg == 5, lane >= 0 && reg == 1 && exec&(1<<uint(lane)) != 0:
			return v | 1
		case lane >= 0 && reg == 1:
			return 0
		}
		return v
	}
}

// TestLaneKernelsDivTrapsLikeOracle pins that an active zero divisor still
// traps the same way.
func TestLaneKernelsDivTrapsLikeOracle(t *testing.T) {
	zero := func(reg, lane int, v uint32) uint32 {
		if reg == 1 && lane >= 0 {
			return 0
		}
		return v
	}
	in := isa.Inst{Op: isa.OpVDiv, Dst: isa.V(2), Src0: isa.V(0), Src1: isa.V(1)}
	for _, exec := range []uint64{allLanes, 1 << 9} {
		got := newTwin(in, exec, 7, zero)
		got.run(false)
		if got.pan == "" {
			t.Fatalf("exec=%#x: zero divisor did not trap", exec)
		}
		if d := diffTwins(in, exec, 7, zero); d != "" {
			t.Fatalf("exec=%#x: %s", exec, d)
		}
	}
}

// addrMode names a per-lane address pattern.
type addrMode struct {
	name string
	addr func(lane int) uint32
}

// addrFill sets v0 to one address per lane and s4 to lane 0's address.
func addrFill(addr func(lane int) uint32) regFill {
	return func(reg, lane int, v uint32) uint32 {
		switch {
		case lane >= 0 && reg == 0:
			return addr(lane)
		case lane < 0 && reg == 4:
			return addr(0)
		}
		return v
	}
}

func TestLaneKernelsMatchOracleVectorMem(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(kernel.WavefrontSize)
	modes := []addrMode{
		{"contiguous", func(lane int) uint32 { return memLo + 0x100 + 4*uint32(lane) }},
		{"page-end", func(lane int) uint32 { return pageEdge - 256 + 4*uint32(lane) }},
		{"gathered", func(lane int) uint32 { return memLo + 8*uint32(perm[lane]) }},
		{"unaligned", func(lane int) uint32 { return memLo + 0x101 + 4*uint32(lane) }},
		{"straddling", func(lane int) uint32 { return pageEdge - 128 + 4*uint32(lane) }},
		{"descending", func(lane int) uint32 { return memLo + 0x400 - 4*uint32(lane) }},
	}
	for _, mode := range modes {
		name, addr := mode.name, mode.addr
		for _, op := range []isa.Op{isa.OpVLoad, isa.OpVStore} {
			for _, exec := range laneExecs(rng) {
				for _, off := range []int32{0, 12, -4} {
					// The address comes from v0, or is a broadcast; a load's
					// dst is fresh or aliases the address register.
					for _, a := range []isa.Operand{isa.V(0), isa.S(4), isa.Imm(memLo + 0x80)} {
						for _, second := range []isa.Operand{isa.V(1), isa.V(0), isa.S(5), isa.Imm(-7)} {
							in := isa.Inst{Op: op, Src0: a, Offset: off}
							if op == isa.OpVLoad {
								if second.Kind != isa.OperandVReg {
									continue
								}
								in.Dst = second
							} else {
								in.Src1 = second
							}
							if d := diffTwins(in, exec, rng.Int63(), addrFill(addr)); d != "" {
								t.Fatalf("%s %v exec=%#x:\n%s", name, in, exec, d)
							}
						}
					}
				}
			}
		}
	}
}

func TestLaneKernelsMatchOracleAtomics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	modes := []addrMode{
		{"distinct", func(lane int) uint32 { return memLo + 4*uint32(lane) }},
		{"conflict", func(lane int) uint32 { return memLo + 4*uint32(lane%3) }},
	}
	for _, mode := range modes {
		name, addr := mode.name, mode.addr
		for _, op := range []isa.Op{isa.OpVAtomicAdd, isa.OpVAtomicMax, isa.OpVAtomicMin, isa.OpVAtomicFAdd} {
			for _, exec := range laneExecs(rng) {
				for _, a := range []isa.Operand{isa.V(0), isa.S(4)} {
					for _, val := range []isa.Operand{isa.V(1), isa.S(5), isa.Imm(-7)} {
						for _, dst := range []isa.Operand{{}, isa.V(2), isa.V(0)} {
							in := isa.Inst{Op: op, Dst: dst, Src0: a, Src1: val, Offset: 8}
							if d := diffTwins(in, exec, rng.Int63(), addrFill(addr)); d != "" {
								t.Fatalf("%s %v exec=%#x:\n%s", name, in, exec, d)
							}
						}
					}
				}
			}
		}
	}
}

func TestLaneKernelsMatchOracleLDS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(kernel.WavefrontSize)
	modes := []addrMode{
		{"contiguous", func(lane int) uint32 { return 4 * uint32(lane) }},
		{"gathered", func(lane int) uint32 { return 12 * uint32(perm[lane]) }},
		{"unaligned", func(lane int) uint32 { return 3 + 5*uint32(lane) }},
		{"conflict", func(lane int) uint32 { return 64 + 2*uint32(lane%3) }},
		{"top", func(lane int) uint32 { return ldsBytes - 4 - 4*uint32(lane) }},
		// Lane 63's word overhangs the end of the LDS by two bytes.
		{"overhang", func(lane int) uint32 {
			if lane == 63 {
				return ldsBytes - 2
			}
			return 4 * uint32(lane)
		}},
		// Lanes 17 and 40 fall outside the LDS; the panic must name 17.
		{"out-of-range", func(lane int) uint32 {
			switch lane {
			case 17:
				return ldsBytes - 2
			case 40:
				return ldsBytes + 100
			}
			return 4 * uint32(lane)
		}},
	}
	for _, mode := range modes {
		name, addr := mode.name, mode.addr
		for _, op := range []isa.Op{isa.OpLDSLoad, isa.OpLDSStore} {
			for _, exec := range append(laneExecs(rng), 1<<17|1<<40, 1<<40) {
				for _, off := range []int32{0, 4, -4} {
					for _, a := range []isa.Operand{isa.V(0), isa.S(4), isa.Imm(200)} {
						for _, second := range []isa.Operand{isa.V(1), isa.V(0), isa.S(5), isa.Imm(-7)} {
							in := isa.Inst{Op: op, Src0: a, Offset: off}
							if op == isa.OpLDSLoad {
								if second.Kind != isa.OperandVReg {
									continue
								}
								in.Dst = second
							} else {
								in.Src1 = second
							}
							if d := diffTwins(in, exec, rng.Int63(), addrFill(addr)); d != "" {
								t.Fatalf("%s %v exec=%#x:\n%s", name, in, exec, d)
							}
						}
					}
				}
			}
		}
	}
	// The out-of-range case really panics, naming the first offending lane.
	in := isa.Inst{Op: isa.OpLDSLoad, Dst: isa.V(1), Src0: isa.V(0)}
	tw := newTwin(in, allLanes, 1, addrFill(modes[len(modes)-1].addr))
	tw.run(false)
	want := fmt.Sprintf("emu: lanes warp 0: LDS access %d out of %d bytes", ldsBytes-2, ldsBytes)
	if tw.pan != want {
		t.Fatalf("panic %q, want %q", tw.pan, want)
	}
}

// TestLaneKernelsFloatSpecials diffs the float kernels against the oracle
// on every combination of zeros, infinities, quiet and signaling NaNs and
// an ordinary value across v0..v2, under full and partial EXEC, for vector
// and broadcast second operands. Random operands rarely hit these.
func TestLaneKernelsFloatSpecials(t *testing.T) {
	specials := []uint32{0, 0x80000000, 0x7f800000, 0xff800000, 0xffffffe8, 0x7f800001, 0x3fc00000}
	n := len(specials)
	for round := 0; round < n*n*n; round += kernel.WavefrontSize {
		fill := func(reg, lane int, v uint32) uint32 {
			combo := (round + lane) % (n * n * n)
			switch {
			case lane >= 0 && reg <= 2:
				return specials[combo/[]int{1, n, n * n}[reg]%n]
			case lane < 0 && reg == 5:
				return specials[round/kernel.WavefrontSize%n]
			}
			return v
		}
		for _, op := range []isa.Op{isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul, isa.OpVFFma, isa.OpVFMin, isa.OpVFMax} {
			for _, s1 := range []isa.Operand{isa.V(1), isa.S(5)} {
				in := isa.Inst{Op: op, Dst: isa.V(3), Src0: isa.V(0), Src1: s1, Src2: isa.V(2)}
				for _, exec := range []uint64{allLanes, 0xf0f0f0f0f0f0f0f0} {
					if d := diffTwins(in, exec, 1, fill); d != "" {
						t.Fatalf("%v exec=%#x round %d:\n%s", in, exec, round, d)
					}
				}
			}
		}
	}
}

// specialBits holds float bit patterns the NaN-rule test combines; it is a
// variable so the hardware's default NaN is computed at run time.
var specialBits = struct{ zero, one, inf, ninf, qnan, snan uint32 }{
	0, 0x3fc00000, 0x7f800000, 0xff800000, 0xffffffe8, 0x7f800001,
}

// TestLaneKernelsNaNRule pins the NaN payloads of v_fadd, v_fsub, v_fmul
// and v_ffma on both the full- and partial-EXEC paths: a NaN operand
// propagates quieted, the first one when several are NaN (for v_ffma the
// product counts as the add's first operand); otherwise the result is the
// hardware's default NaN for the invalid operation.
func TestLaneKernelsNaNRule(t *testing.T) {
	b := specialBits
	hwNaN := bits32(f32(b.zero) * f32(b.inf))
	quietSNaN := b.snan | 1<<22
	cases := []struct {
		op      isa.Op
		x, y, z uint32
		want    uint32
	}{
		{isa.OpVFAdd, b.qnan, b.snan, 0, b.qnan},
		{isa.OpVFAdd, b.snan, b.qnan, 0, quietSNaN},
		{isa.OpVFAdd, b.one, b.snan, 0, quietSNaN},
		{isa.OpVFAdd, b.inf, b.ninf, 0, hwNaN},
		{isa.OpVFSub, b.inf, b.inf, 0, hwNaN},
		{isa.OpVFSub, b.qnan, b.snan, 0, b.qnan},
		{isa.OpVFMul, b.snan, b.qnan, 0, quietSNaN},
		{isa.OpVFMul, b.one, b.qnan, 0, b.qnan},
		{isa.OpVFMul, b.zero, b.inf, 0, hwNaN},
		{isa.OpVFFma, b.qnan, b.snan, b.snan, b.qnan},
		{isa.OpVFFma, b.one, b.snan, b.qnan, quietSNaN},
		{isa.OpVFFma, b.one, b.one, b.snan, quietSNaN},
		{isa.OpVFFma, b.zero, b.inf, b.qnan, hwNaN},
		{isa.OpVFFma, b.inf, b.one, b.ninf, hwNaN},
	}
	for _, c := range cases {
		fill := func(reg, lane int, v uint32) uint32 {
			if lane >= 0 && reg <= 2 {
				return [3]uint32{c.x, c.y, c.z}[reg]
			}
			return v
		}
		in := isa.Inst{Op: c.op, Dst: isa.V(3), Src0: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)}
		for _, exec := range []uint64{allLanes, 1 << 5} {
			tw := newTwin(in, exec, 1, fill)
			tw.run(false)
			if got := tw.w.VReg(3, 5); got != c.want {
				t.Errorf("%s(%#x, %#x, %#x) exec=%#x = %#x, want %#x", c.op, c.x, c.y, c.z, exec, got, c.want)
			}
		}
	}
}
