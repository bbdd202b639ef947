package emu

import (
	"fmt"

	"photon/internal/sim/kernel"
)

// Group owns the warps of one workgroup plus their shared local data share,
// and can run them functionally (no timing) while respecting barriers:
// every warp runs to the next barrier (a "segment"), then all resume. The
// warps live in the group's own WarpStore, bound to consecutive slots, so a
// functional run sweeps one contiguous slab region. Photon's online
// analysis samples workgroups through a recycled Group; the bulk
// fast-forward paths batch many workgroups per store with a Replayer.
type Group struct {
	Launch *kernel.Launch
	ID     int
	Warps  []*Warp
	LDS    []byte

	store WarpStore
	back  []Warp
}

// NewGroup instantiates workgroup groupID of the launch.
func NewGroup(l *kernel.Launch, groupID int) *Group {
	g := &Group{}
	g.Reset(l, groupID)
	return g
}

// Reset points the group at workgroup groupID, reusing the LDS backing and
// the store's register slabs when possible. The sampling loops run many
// workgroups of a kernel through one recycled Group, so steady-state
// functional execution does not allocate.
func (g *Group) Reset(l *kernel.Launch, groupID int) {
	g.Launch = l
	g.ID = groupID
	if n := l.Program.LDSBytes; n > 0 {
		if cap(g.LDS) < n {
			g.LDS = make([]byte, n)
		} else {
			g.LDS = g.LDS[:n]
			clear(g.LDS)
		}
	} else {
		g.LDS = nil
	}
	wpg := l.WarpsPerGroup
	g.store.Configure(l, wpg)
	if cap(g.back) < wpg {
		g.back = make([]Warp, wpg)
	}
	g.back = g.back[:wpg]
	for i := range g.back {
		g.back[i] = g.store.Bind(i, groupID*wpg+i, g.LDS)
	}
	// Rebuild the pointer view unconditionally: the backing slice may have
	// moved, and the capacity is reused so this does not allocate in steady
	// state.
	g.Warps = g.Warps[:0]
	for i := range g.back {
		g.Warps = append(g.Warps, &g.back[i])
	}
}

// SetMemory binds the memory the group's warps read and write until the
// next Reset, which rebinds the launch's own. Photon's online analysis binds
// an undo-logging memory here so its sampled workgroups leave no trace.
func (g *Group) SetMemory(m Memory) { g.store.SetMemView(m) }

// RunFunctional executes every warp of the group to completion with no
// timing model, alternating between warps at barrier boundaries so that LDS
// producer/consumer patterns (tile loads before a barrier, reads after) stay
// functionally correct.
func (g *Group) RunFunctional() error {
	return runWarpsFunctional(g.Launch, g.ID, g.back)
}

// runWarpsFunctional runs the sibling warps of workgroup groupID to
// completion with barrier alternation. warps is the contiguous slice of
// handles for the workgroup; Group and Replayer share this loop.
func runWarpsFunctional(l *kernel.Launch, groupID int, warps []Warp) error {
	var info StepInfo
	for {
		allDone := true
		anyAtBarrier := false
		for i := range warps {
			w := &warps[i]
			if w.Done() {
				continue
			}
			allDone = false
			// Run the warp's next segment: until barrier or completion.
			for !w.Done() && !w.AtBarrier() {
				w.Step(&info)
			}
			if w.AtBarrier() {
				anyAtBarrier = true
			}
		}
		if allDone {
			return nil
		}
		if anyAtBarrier {
			// All live warps must be at the barrier together.
			for i := range warps {
				w := &warps[i]
				if !w.Done() && !w.AtBarrier() {
					return fmt.Errorf("emu: %s group %d: warp %d missed a barrier",
						l.Name, groupID, w.GlobalID)
				}
			}
			for i := range warps {
				warps[i].ClearBarrier()
			}
		}
	}
}
