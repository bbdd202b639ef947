package emu

import (
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/testutil"
)

// TestGroupResetZeroAlloc pins the fast-forward pooling: once a Group has
// been sized for a launch, resetting and re-running workgroups through it is
// allocation-free — the property the sampled modes' functional loops rely on.
func TestGroupResetZeroAlloc(t *testing.T) {
	l, _, _, _ := vecAddLaunch(t, 4*64, 4)
	var grp Group
	grp.Reset(l, 0)
	if err := grp.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	wg := 0
	testutil.MustZeroAllocs(t, "emu.Group.Reset+RunFunctional", func() {
		grp.Reset(l, wg%l.NumWorkgroups)
		wg++
		if err := grp.RunFunctional(); err != nil {
			t.Fatal(err)
		}
	})
}

// laneKernelLaunch exercises every lane-kernel path: broadcast sources, the
// page-window load and store, full-EXEC LDS moves across a barrier, a
// compare, and the partial-EXEC ALU, LDS and per-lane memory paths.
func laneKernelLaunch(groups int) *kernel.Launch {
	b := isa.NewBuilder("lane-paths")
	b.SetLDS(kernel.WavefrontSize * 8)
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(8)) // s4 = warpID*256
	b.I(isa.OpVLShl, isa.V(1), isa.V(0), isa.Imm(2)) // v1 = lane*4
	b.I(isa.OpVAdd, isa.V(2), isa.V(1), isa.S(4))
	b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.S(8)) // v2 = &buf[warp*64+lane]
	b.Load(isa.OpVLoad, isa.V(3), isa.V(2), 0)
	b.Waitcnt(0)
	b.Store(isa.OpLDSStore, isa.V(1), isa.V(3), 0)
	b.Barrier()
	b.Load(isa.OpLDSLoad, isa.V(4), isa.V(1), 4)
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(0), isa.Imm(17))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.I(isa.OpVFFma, isa.V(4), isa.V(4), isa.V(3), isa.Imm(1))
	b.Store(isa.OpLDSStore, isa.V(1), isa.V(4), 256)
	b.Store(isa.OpVStore, isa.V(2), isa.V(4), 0)
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.Store(isa.OpVStore, isa.V(2), isa.V(4), 0)
	b.Waitcnt(0)
	b.End()
	m := mem.NewFlat()
	buf := m.Alloc(uint64(groups * 2 * 256))
	return &kernel.Launch{Name: "lane-paths", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: groups, WarpsPerGroup: 2, Args: []uint32{uint32(buf)}}
}

// TestLaneKernelsZeroAlloc pins that the lane-kernel paths allocate nothing
// through a recycled Group or a Replayer.
func TestLaneKernelsZeroAlloc(t *testing.T) {
	l := laneKernelLaunch(8)
	var grp Group
	grp.Reset(l, 0)
	if err := grp.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	wg := 0
	testutil.MustZeroAllocs(t, "emu.Group lane kernels", func() {
		grp.Reset(l, wg%l.NumWorkgroups)
		wg++
		if err := grp.RunFunctional(); err != nil {
			t.Fatal(err)
		}
	})
	rep := NewReplayer(l, 3)
	testutil.MustZeroAllocs(t, "emu.Replayer lane kernels", func() {
		if err := rep.RunRange(0, l.NumWorkgroups, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestResetMatchesNewWarp checks that a recycled warp is indistinguishable
// from a fresh one after Reset.
func TestResetMatchesNewWarp(t *testing.T) {
	l, _, _, _ := vecAddLaunch(t, 2*64, 2)
	recycled := NewWarp(l, 0, nil)
	var info StepInfo
	for !recycled.Done() {
		recycled.Step(&info)
	}
	recycled.Reset(l, 1, nil)
	fresh := NewWarp(l, 1, nil)
	if recycled.PC() != fresh.PC() || recycled.Done() != fresh.Done() ||
		recycled.Exec() != fresh.Exec() || recycled.InstCount() != fresh.InstCount() {
		t.Fatalf("Reset state differs from NewWarp: %+v vs %+v", recycled, fresh)
	}
	for i := range fresh.sregs() {
		if recycled.sregs()[i] != fresh.sregs()[i] {
			t.Fatalf("sgpr[%d]: reset %d, fresh %d", i, recycled.sregs()[i], fresh.sregs()[i])
		}
	}
	for i := range fresh.vregs() {
		if recycled.vregs()[i] != fresh.vregs()[i] {
			t.Fatalf("vgpr[%d]: reset %d, fresh %d", i, recycled.vregs()[i], fresh.vregs()[i])
		}
	}
	for !recycled.Done() && !fresh.Done() {
		recycled.Step(&info)
		var fi StepInfo
		fresh.Step(&fi)
		if recycled.PC() != fresh.PC() {
			t.Fatalf("execution diverged at inst %d", recycled.InstCount())
		}
	}
	if recycled.Done() != fresh.Done() || recycled.InstCount() != fresh.InstCount() {
		t.Fatal("recycled and fresh warps finished differently")
	}
}
