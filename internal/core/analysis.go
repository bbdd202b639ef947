// Package core implements Photon, the paper's contribution: a three-tier
// sampled-simulation methodology (basic-block-, warp- and kernel-sampling)
// that requires no up-front profiling. Each kernel launch is first analyzed
// online by functionally simulating a small sample of warps (Section 4,
// Figures 7/10/12, step 1); the resulting profile drives kernel-sampling
// (GPU BBV matching) and arms the per-level stability detectors used during
// detailed simulation. When a level's criterion fires, Photon stops
// dispatching workgroups to the detailed model and predicts the remainder.
package core

import (
	"fmt"

	"photon/internal/core/bbv"
	"photon/internal/sim/emu"
	"photon/internal/sim/kernel"
)

// Profile is the result of the online pre-analysis: warp-type and
// basic-block distributions from a functional sample of warps.
type Profile struct {
	SampledWarps int
	SampledInsts uint64
	// Types maps warp-type ID to its aggregate profile.
	Types map[uint64]*bbv.TypeProfile
	// BlockInsts maps a block index (of the launch's program) to the
	// instructions its executions contributed in the sample.
	BlockInsts []uint64
	// GPU is the kernel's GPU BBV (Figure 5).
	GPU bbv.GPUBBV
	// MeanWarpInsts is the expected dynamic instruction count per warp.
	MeanWarpInsts float64
}

// AnalyzeOnline functionally simulates ~fraction of the launch's warps
// (sampled at workgroup granularity, spread evenly across the grid) and
// summarizes their behavior. The paper uses fraction = 1%. The sampled
// workgroups run again in the real simulation, so their stores are undone
// before AnalyzeOnline returns: the launch's memory is left as it was found,
// and an in-place update (an SGD step, an atomic accumulation) is applied
// once, not twice.
func AnalyzeOnline(l *kernel.Launch, fraction float64) (*Profile, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	numWG := l.NumWorkgroups
	sampleWGs := int(float64(numWG)*fraction + 0.5)
	if sampleWGs < 1 {
		sampleWGs = 1
	}
	if sampleWGs > numWG {
		sampleWGs = numWG
	}
	stride := numWG / sampleWGs

	p := &Profile{
		Types:      make(map[uint64]*bbv.TypeProfile),
		BlockInsts: make([]uint64, l.Program.NumBlocks()),
	}
	undo := undoMemory{mem: l.Memory}
	defer undo.restore()
	var grp emu.Group
	for i := 0; i < sampleWGs; i++ {
		grp.Reset(l, i*stride)
		grp.SetMemory(&undo)
		if err := grp.RunFunctional(); err != nil {
			return nil, fmt.Errorf("core: online analysis of %s: %w", l.Name, err)
		}
		for _, w := range grp.Warps {
			p.SampledWarps++
			p.SampledInsts += w.InstCount()
			id := bbv.TypeID(l.Program, w.BBCounts())
			tp, ok := p.Types[id]
			if !ok {
				tp = &bbv.TypeProfile{
					ID:     id,
					Insts:  w.InstCount(),
					Vector: bbv.FromCounts(l.Program, w.BBCounts()),
				}
				p.Types[id] = tp
			}
			tp.Count++
			for bi, c := range w.BBCounts() {
				p.BlockInsts[bi] += uint64(c) * uint64(l.Program.Blocks[bi].Len)
			}
		}
	}
	types := make([]bbv.TypeProfile, 0, len(p.Types))
	for _, tp := range p.Types {
		types = append(types, *tp)
	}
	p.GPU = bbv.BuildGPU(types)
	if p.SampledWarps > 0 {
		p.MeanWarpInsts = float64(p.SampledInsts) / float64(p.SampledWarps)
	}
	return p, nil
}

// undoMemory is the emu.Memory the online analysis runs against: it passes
// reads and writes through to the launch's memory, logging the old word of
// every write (atomics included), so restore can put the memory back. The
// log is run-length coded: consecutive writes to consecutive words (a
// wavefront's contiguous store) share one run header, so it costs about
// four bytes per word instead of a 16-byte entry.
type undoMemory struct {
	mem  emu.Memory
	runs []undoRun
	old  []uint32 // old words in write order; runs index into it
}

// undoRun is a series of writes to consecutive words starting at addr; its
// old words are old[start:] up to the next run's start.
type undoRun struct {
	addr  uint64
	start int
}

func (u *undoMemory) Read32(addr uint64) uint32 { return u.mem.Read32(addr) }

func (u *undoMemory) Write32(addr uint64, v uint32) {
	if n := len(u.runs); n == 0 || u.runs[n-1].addr+4*uint64(len(u.old)-u.runs[n-1].start) != addr {
		u.runs = append(u.runs, undoRun{addr, len(u.old)})
	}
	u.old = append(u.old, u.mem.Read32(addr))
	u.mem.Write32(addr, v)
}

// Window refuses every span, so each store reaches Write32 and is logged.
func (u *undoMemory) Window(uint64, int) ([]byte, bool) { return nil, false }

// restore rewrites the logged old words newest first, which also undoes
// repeated and overlapping writes to one address.
func (u *undoMemory) restore() {
	end := len(u.old)
	for i := len(u.runs) - 1; i >= 0; i-- {
		r := u.runs[i]
		for j := end - 1; j >= r.start; j-- {
			u.mem.Write32(r.addr+4*uint64(j-r.start), u.old[j])
		}
		end = r.start
	}
	u.runs, u.old = u.runs[:0], u.old[:0]
}

// BlockShare returns each block's fraction of sampled instructions.
func (p *Profile) BlockShare() []float64 {
	out := make([]float64, len(p.BlockInsts))
	if p.SampledInsts == 0 {
		return out
	}
	for i, v := range p.BlockInsts {
		out[i] = float64(v) / float64(p.SampledInsts)
	}
	return out
}

// WarpTypeShare returns the share of sampled warps in each type, keyed by
// type ID.
func (p *Profile) WarpTypeShare() map[uint64]float64 {
	out := make(map[uint64]float64, len(p.Types))
	if p.SampledWarps == 0 {
		return out
	}
	for id, tp := range p.Types {
		out[id] = float64(tp.Count) / float64(p.SampledWarps)
	}
	return out
}
