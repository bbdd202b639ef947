package core

import (
	"math/rand"
	"slices"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/workloads/dnn"
)

// memImage returns every allocated word of m.
func memImage(m *mem.Flat) []uint32 {
	return m.ReadWords(1<<16, int(m.Footprint()/4))
}

// TestAnalyzeOnlineRestoresSGDMemory runs the training step's first SGD
// launch (an in-place w -= lr*g) through the online analysis and checks the
// memory image is byte-identical afterwards.
func TestAnalyzeOnlineRestoresSGDMemory(t *testing.T) {
	app, err := dnn.BuildTrainingStep(2)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(app.Launches, func(l *kernel.Launch) bool { return l.Name == "sgd.w1" })
	if i < 0 {
		t.Fatal("training step has no sgd.w1 launch")
	}
	// The forward and backward kernels produce the gradient the update reads.
	for _, l := range app.Launches[:i] {
		if _, err := emu.RunKernelFunctional(l); err != nil {
			t.Fatal(err)
		}
	}
	sgd := app.Launches[i]
	if g := app.Mem.ReadWords(uint64(sgd.Args[1]), 64); !slices.ContainsFunc(g, func(w uint32) bool { return w != 0 }) {
		t.Fatal("gradient is all zero; the update would not change memory")
	}
	before := memImage(app.Mem)
	prof, err := AnalyzeOnline(sgd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prof.SampledWarps != sgd.TotalWarps() {
		t.Fatalf("sampled %d of %d warps", prof.SampledWarps, sgd.TotalWarps())
	}
	if after := memImage(app.Mem); !slices.Equal(before, after) {
		t.Fatal("AnalyzeOnline left the SGD launch's memory changed")
	}
}

// TestAnalyzeOnlineRestoresAtomics covers read-modify-writes: lanes of
// every workgroup atomically bump shared counters and store over their own
// words, and the analysis must undo both.
func TestAnalyzeOnlineRestoresAtomics(t *testing.T) {
	m := mem.NewFlat()
	buf := m.Alloc(4 * 1024)
	m.WriteWords(buf, []uint32{5, 6, 7, 8})
	b := isa.NewBuilder("bump")
	b.I(isa.OpVAnd, isa.V(1), isa.V(0), isa.Imm(3))
	b.I(isa.OpVLShl, isa.V(1), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(1), isa.V(1), isa.S(8))
	b.I(isa.OpVAtomicAdd, isa.V(2), isa.V(1), isa.Imm(1))
	b.I(isa.OpVLShl, isa.V(3), isa.V(0), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.S(8))
	b.Store(isa.OpVStore, isa.V(3), isa.V(2), 16)
	b.Waitcnt(0)
	b.End()
	l := &kernel.Launch{Name: "bump", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: 8, WarpsPerGroup: 2, Args: []uint32{uint32(buf)}}
	before := memImage(m)
	if _, err := AnalyzeOnline(l, 0.5); err != nil {
		t.Fatal(err)
	}
	if after := memImage(m); !slices.Equal(before, after) {
		t.Fatalf("AnalyzeOnline left memory changed: counters %v", m.ReadWords(buf, 4))
	}
}

// TestUndoMemoryRestoresAnyWriteSequence drives the run-coded undo log with
// random writes: runs of consecutive words, back-to-back writes to one word,
// and unaligned writes that overlap earlier ones and straddle a page. Restore must bring back
// the exact image.
func TestUndoMemoryRestoresAnyWriteSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := mem.NewFlat()
	base := m.Alloc(1 << 17) // spans two pages
	for i := uint64(0); i < 1<<15; i++ {
		m.Write32(base+4*i, rng.Uint32())
	}
	before := memImage(m)
	u := undoMemory{mem: m}
	for round := 0; round < 3; round++ {
		for i := 0; i < 2000; i++ {
			addr := base + uint64(rng.Intn(1<<17-4))
			n := 1 + rng.Intn(8)
			step := uint64(4 * rng.Intn(2)) // 0: repeats one word
			if rng.Intn(2) == 0 {
				addr &^= 3
			}
			for k := 0; k < n && addr+step*uint64(k)+4 <= base+1<<17; k++ {
				u.Write32(addr+step*uint64(k), rng.Uint32())
			}
		}
		u.restore()
		if after := memImage(m); !slices.Equal(before, after) {
			t.Fatalf("round %d: memory differs after restore", round)
		}
	}
}

// TestPhotonTrainStepPassesCheck is the end-to-end form of the SGD fix: the
// training step run under Photon must update each weight exactly once.
func TestPhotonTrainStepPassesCheck(t *testing.T) {
	app, err := dnn.BuildTrainingStep(2)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(smallGPU())
	p := MustNew(smallGPU(), DefaultParams(), AllLevels())
	for _, l := range app.Launches {
		if _, err := p.RunKernel(g, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
}
