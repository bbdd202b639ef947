package main

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/sim/emu"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
)

// probeCounts sums what one or more probe passes counted.
type probeCounts struct {
	sampledInsts    uint64 // core.AnalyzeOnline
	functionalInsts uint64 // emu.RunKernelFunctional
	cycles, insts   uint64 // timing.Machine.Run
	events          uint64 // the machine's event engine
	mem             mem.Stats
}

// probe calls the public entry point of each layer directly on every launch
// of the workload, inside spans named after the call: core.AnalyzeOnline and
// emu.RunKernelFunctional in launch order on one fresh copy of the apps (as
// Photon calls them), timing.Machine.Run on a second copy so in-place
// kernels run once, and mem.Hierarchy.CollectStats after each detailed run.
// Each app's probe is one operation; it fails when the functional and
// detailed instruction counts disagree or the detailed cycles differ from
// the full-detailed runner's.
func (s *session) probe(parent int, c *probeCounts) error {
	analysed, err := s.buildApps(parent)
	if err != nil {
		return err
	}
	detailed, err := s.buildApps(parent)
	if err != nil {
		return err
	}
	hier := mem.NewHierarchy(s.w.cfg.Memory)
	frac := core.DefaultParams().SampleFraction
	for i, a := range s.w.apps {
		op := "probe " + a.name
		s.attempted++
		ap := s.tr.begin(op, "probe", parent)
		if err := s.probeApp(ap, c, hier, frac, a.name, analysed[i].Launches, detailed[i].Launches); err != nil {
			s.failures = append(s.failures, fmt.Sprintf("%s: %v", op, err))
		}
		s.tr.end(ap, nil)
	}
	return nil
}

func (s *session) probeApp(ap int, c *probeCounts, hier *mem.Hierarchy, frac float64, app string, analysed, detailed []*kernel.Launch) error {
	full := s.ref["full "+app]
	for j, l := range analysed {
		sp := s.tr.begin("core.AnalyzeOnline "+l.Name, "core", ap)
		prof, err := core.AnalyzeOnline(l, frac)
		s.tr.end(sp, nil)
		if err != nil {
			return err
		}
		c.sampledInsts += prof.SampledInsts

		sp = s.tr.begin("emu.RunKernelFunctional "+l.Name, "emu", ap)
		n, err := emu.RunKernelFunctional(l)
		s.tr.end(sp, map[string]any{"insts": n})
		if err != nil {
			return err
		}
		c.functionalInsts += n

		hier.Reset()
		m := timing.NewMachine(s.w.cfg.Compute, hier, nil)
		sp = s.tr.begin("timing.Machine.Run "+l.Name, "timing", ap)
		res, err := m.Run(detailed[j])
		s.tr.end(sp, map[string]any{"sim_cycles": res.EndTime, "insts": res.InstCount})
		if err != nil {
			return err
		}
		c.cycles += uint64(res.EndTime)
		c.insts += res.InstCount
		if e, ok := m.Engine().(interface{ Processed() uint64 }); ok {
			c.events += e.Processed()
		}

		sp = s.tr.begin("mem.Hierarchy.CollectStats "+l.Name, "mem", ap)
		st := hier.CollectStats()
		s.tr.end(sp, nil)
		c.mem.L1VHits += st.L1VHits
		c.mem.L1VMisses += st.L1VMisses
		c.mem.L2Hits += st.L2Hits
		c.mem.L2Misses += st.L2Misses
		c.mem.DRAMAccesses += st.DRAMAccesses
		c.mem.DRAMRowHits += st.DRAMRowHits

		if n != res.InstCount {
			return fmt.Errorf("%s: functional ran %d instructions, detailed %d", l.Name, n, res.InstCount)
		}
		if j < len(full.cycles) && uint64(res.EndTime) != full.cycles[j] {
			return fmt.Errorf("%s: detailed probe simulated %d cycles, the full runner %d", l.Name, res.EndTime, full.cycles[j])
		}
	}
	return nil
}
