// Package bench is the repo's performance-baseline harness: a set of
// programmatic microbenchmarks over the simulator's hot paths (event engine,
// cache lookup and streaming, BBV update, functional emulation) plus one
// end-to-end detailed simulation, emitting a machine-readable report.
// cmd/photon-bench runs it under -perf and commits the result as
// BENCH_<PR>.json so regressions show up as diffs; the CI smoke job
// re-validates the report shape on every push.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"photon/internal/core/bbv"
	"photon/internal/harness"
	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// Result is one microbenchmark's outcome.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerSec is populated by the event-engine benchmarks (fired
	// events per wall second), InstsPerSec by the emulation benchmarks.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	InstsPerSec  float64 `json:"insts_per_sec,omitempty"`
}

// EndToEnd is the full detailed-mode simulation measurement.
type EndToEnd struct {
	App          string  `json:"app"`
	SimCycles    int64   `json:"sim_cycles"`
	Insts        uint64  `json:"insts"`
	WallSeconds  float64 `json:"wall_seconds"`
	CyclesPerSec float64 `json:"sim_cycles_per_sec"`
	InstsPerSec  float64 `json:"insts_per_sec"`
}

// Footprint is the memory-footprint-per-warp report: the byte budget of the
// structure-of-arrays WarpStore for the end-to-end app's first kernel on
// the R9 Nano geometry, against an estimate of the pre-SoA per-object warp
// layout. CI asserts bytes_per_warp stays positive and below the AoS
// estimate, so layout regressions show up as failed assertions.
type Footprint struct {
	App string `json:"app"`
	// WarpSlots is the resident slot count the timing machine sizes its
	// store to at launch (device capacity capped by the grid).
	WarpSlots int `json:"warp_slots"`
	// BytesPerWarp is the SoA slab bytes per warp slot.
	BytesPerWarp int `json:"bytes_per_warp"`
	// ResidentBytes is WarpSlots × BytesPerWarp: peak architectural warp
	// state resident in the detailed machine.
	ResidentBytes int `json:"resident_bytes"`
	// AoSBytesPerWarp estimates the PR 3-era array-of-structs layout: the
	// same architectural bytes plus the per-object overhead the SoA store
	// eliminated (see aosExtraBytesPerWarp).
	AoSBytesPerWarp int     `json:"aos_bytes_per_warp"`
	SavingsPct      float64 `json:"savings_pct"`
	// ReplayBatchGroups is how many workgroups the batched fast-forward
	// path binds per pass under its default byte budget.
	ReplayBatchGroups int `json:"replay_batch_groups"`
}

// aosExtraBytesPerWarp is the per-warp overhead of the pre-SoA layout that
// the shared-slab store eliminated: a 64-lane address scratch buffer
// ([64]uint64, now one per store), three slice headers for the sgpr/vgpr/
// BBCounts backings (3×24), and ~16 bytes of unpacked bool/pad scalar
// fields now folded into one flags byte lane.
const aosExtraBytesPerWarp = 512 + 3*24 + 16

// LaneRun is one end-to-end detailed measurement under the quantum-laned
// engine at a fixed lane request.
type LaneRun struct {
	Lanes       int     `json:"lanes"`
	SimCycles   int64   `json:"sim_cycles"`
	WallSeconds float64 `json:"wall_seconds"`
	// SpeedupX is wall time relative to the 1-lane laned run. Meaningful
	// scaling needs NumCPU >= the lane count; on a smaller host the extra
	// lanes time-share cores and the honest number hovers near (or below,
	// from barrier overhead) 1.0.
	SpeedupX float64 `json:"speedup_x"`
}

// LaneScaling reports intra-run parallelism: the same detailed app at
// increasing lane counts. Simulated cycles are lane-count-invariant by
// construction, so the report doubles as an end-to-end determinism check —
// Run fails if any lane count disagrees.
type LaneScaling struct {
	App    string    `json:"app"`
	NumCPU int       `json:"num_cpu"`
	Runs   []LaneRun `json:"runs"`
}

// Report is the full perf baseline written to BENCH_<PR>.json.
type Report struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Micro []Result `json:"micro"`
	// EngineSpeedupX is the wheel+4-ary-heap engine's events/sec over the
	// container/heap reference on the same workload.
	EngineSpeedupX float64     `json:"event_engine_speedup_x"`
	EndToEnd       EndToEnd    `json:"end_to_end"`
	Footprint      Footprint   `json:"footprint"`
	LaneScaling    LaneScaling `json:"lane_scaling"`

	TotalWallSeconds float64 `json:"total_wall_seconds"`
}

// benchEventsPerOp is how many events one iteration of the event-engine
// workload fires: 64 near events + 8 far completions + 64 re-entrant
// re-schedules.
const benchEventsPerOp = 64 + 8 + 64

// eventEngineBench drives the scheduling mix the timing model produces:
// mostly short delays (issue occupancy, exec latencies), a tail of far
// completions, and re-entrant scheduling from inside handlers.
func eventEngineBench(after func(event.Time, event.Handler), run func() event.Time) func(*testing.B) {
	return func(b *testing.B) {
		budget := 0
		var h event.Handler
		h = func(event.Time) {
			if budget > 0 {
				budget--
				after(4, h)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			budget = 64
			for j := 0; j < 64; j++ {
				after(event.Time(j%8+1), h)
				if j%8 == 0 {
					after(event.Time(300+j), h)
				}
			}
			run()
		}
	}
}

func smallHierarchy() *mem.Hierarchy {
	return mem.NewHierarchy(mem.HierarchyConfig{
		NumCUs:            4,
		CUsPerScalarBlock: 2,
		L1V:               mem.CacheConfig{Name: "l1v", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 28, ThroughputCycles: 1},
		L1I:               mem.CacheConfig{Name: "l1i", SizeBytes: 32 * 1024, Ways: 4, HitLatency: 20, ThroughputCycles: 1},
		L1K:               mem.CacheConfig{Name: "l1k", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 24, ThroughputCycles: 1},
		L2:                mem.CacheConfig{Name: "l2", SizeBytes: 256 * 1024, Ways: 16, HitLatency: 80, ThroughputCycles: 2},
		L2Banks:           8,
		DRAM: mem.DRAMConfig{Name: "dram", Banks: 16, RowBits: 11,
			RowHitLatency: 120, RowMissLatency: 250, BurstCycles: 8},
	})
}

// cacheLookupBench exercises the coalescer plus L1/L2 lookup path with a
// warp-shaped access stream cycling over a working set that fits in L2.
func cacheLookupBench(b *testing.B) {
	h := smallHierarchy()
	var addrs [kernel.WavefrontSize]uint64
	now := event.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i%512) * 256
		for l := range addrs {
			addrs[l] = base + uint64(l*4)
		}
		h.VectorAccess(now, i%4, addrs[:], i%3 == 0)
		now += 4
	}
}

// cacheStreamBench is the streaming counterpart of cacheLookupBench: an
// MI100-shaped hierarchy (120 CUs, 32 L2 banks) takes 64-lane contiguous
// accesses to lines that are never reused, spread over the CUs. After a
// warm-up that fills every L2 bank, each access misses L1 and L2 and
// evicts in both, so the benchmark walks the full tag arrays.
func cacheStreamBench(b *testing.B) {
	cfg := gpu.MI100().Memory
	h := mem.NewHierarchy(cfg)
	var addrs [kernel.WavefrontSize]uint64
	var base uint64
	now := event.Time(0)
	access := func(i int) {
		for l := range addrs {
			addrs[l] = base + uint64(l*4)
		}
		base += kernel.WavefrontSize * 4
		h.VectorAccess(now, i%cfg.NumCUs, addrs[:], false)
		now += 4
	}
	warm := cfg.L2Banks * cfg.L2.SizeBytes / (kernel.WavefrontSize * 4)
	for i := 0; i < warm; i++ {
		access(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(i)
	}
}

// loopProgram is a small multi-block kernel (init, loop body, exit) used by
// the BBV and emulation benchmarks.
func loopProgram() *isa.Program {
	b := isa.NewBuilder("bench-loop")
	b.I(isa.OpSMov, isa.S(4), isa.Imm(0))
	b.Label("top")
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	b.I(isa.OpVMul, isa.V(2), isa.V(1), isa.V(1))
	b.I(isa.OpSAdd, isa.S(4), isa.S(4), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(4), isa.Imm(32))
	b.Br(isa.OpCBranchSCC1, "top")
	b.End()
	return b.MustBuild()
}

// sink* keep benchmark results alive so the compiler cannot eliminate the
// measured work.
var (
	sinkVector bbv.Vector
	sinkID     uint64
)

// bbvUpdateBench measures one warp's feature-vector construction: type
// hashing plus the projected-BBV accumulation.
func bbvUpdateBench(b *testing.B) {
	prog := loopProgram()
	counts := make([]uint32, prog.NumBlocks())
	for i := range counts {
		counts[i] = uint32(13*i + 1)
	}
	sinkVector = bbv.FromCounts(prog, counts) // warm the slot cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkID = bbv.TypeID(prog, counts)
		sinkVector = bbv.FromCounts(prog, counts)
	}
}

// emuStepBench measures raw functional emulation through a recycled Group,
// the fast-forward path sampled modes live on. Each op runs one workgroup.
func emuStepBench(insts *uint64) func(*testing.B) {
	return func(b *testing.B) {
		l := &kernel.Launch{
			Name: "bench-loop", Program: loopProgram(), Memory: mem.NewFlat(),
			NumWorkgroups: 1, WarpsPerGroup: 4,
		}
		if err := l.Validate(); err != nil {
			b.Fatal(err)
		}
		var grp emu.Group
		grp.Reset(l, 0)
		if err := grp.RunFunctional(); err != nil {
			b.Fatal(err)
		}
		// testing.Benchmark calls this function once per b.N round, so set
		// the count rather than accumulate it across rounds.
		*insts = 0
		for _, w := range grp.Warps {
			*insts += w.InstCount()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			grp.Reset(l, 0)
			if err := grp.RunFunctional(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// emuReplayBench measures the batched fast-forward path: a Replayer sweeps
// 64 workgroups per op through shared slabs, the loop sampled modes spend
// their time in. Steady-state replay must stay allocation-free.
func emuReplayBench(insts *uint64) func(*testing.B) {
	return func(b *testing.B) {
		l := &kernel.Launch{
			Name: "bench-loop", Program: loopProgram(), Memory: mem.NewFlat(),
			NumWorkgroups: 64, WarpsPerGroup: 4,
		}
		if err := l.Validate(); err != nil {
			b.Fatal(err)
		}
		rep := emu.NewReplayer(l, emu.ReplayBatchGroups(l, emu.DefaultReplayBudgetBytes))
		var total uint64
		err := rep.RunRange(0, l.NumWorkgroups, func(_ int, warps []emu.Warp) {
			for i := range warps {
				total += warps[i].InstCount()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		*insts = total
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rep.RunRange(0, l.NumWorkgroups, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// obsFlightBench measures the flight recorder's hot path: one structured
// event into the bounded ring per op. The ring is always on in photon-serve,
// so steady-state recording must stay allocation-free (the alloc tests in
// internal/obs pin it at zero; this tracks its latency).
func obsFlightBench(b *testing.B) {
	f := obs.NewFlightRecorder(1024)
	ev := obs.FlightEvent{Kind: "tier", Tier: "bb-sampling", Msg: "bench-kernel", Value: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.TS = int64(i) + 1 // pre-stamped: measure the ring, not time.Now
		f.RecordEvent(ev)
	}
}

func toResult(name string, r testing.BenchmarkResult) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// Run executes the perf suite, streaming a human-readable summary to w.
func Run(w io.Writer) (Report, error) {
	start := time.Now()
	rep := Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	perSec := func(events float64, nsPerOp float64) float64 {
		if nsPerOp <= 0 {
			return 0
		}
		return events * 1e9 / nsPerOp
	}

	eng := event.New()
	r := testing.Benchmark(eventEngineBench(eng.After, eng.Run))
	res := toResult("event_engine", r)
	res.EventsPerSec = perSec(benchEventsPerOp, res.NsPerOp)
	rep.Micro = append(rep.Micro, res)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op %14.0f events/s\n",
		res.Name, res.NsPerOp, res.AllocsPerOp, res.EventsPerSec)

	ref := event.NewRef()
	r = testing.Benchmark(eventEngineBench(ref.After, ref.Run))
	refRes := toResult("event_engine_ref", r)
	refRes.EventsPerSec = perSec(benchEventsPerOp, refRes.NsPerOp)
	rep.Micro = append(rep.Micro, refRes)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op %14.0f events/s\n",
		refRes.Name, refRes.NsPerOp, refRes.AllocsPerOp, refRes.EventsPerSec)
	if refRes.EventsPerSec > 0 {
		rep.EngineSpeedupX = res.EventsPerSec / refRes.EventsPerSec
	}
	fmt.Fprintf(w, "%-22s %12.2fx\n", "event_engine_speedup", rep.EngineSpeedupX)

	r = testing.Benchmark(cacheLookupBench)
	res = toResult("cache_lookup", r)
	rep.Micro = append(rep.Micro, res)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op\n", res.Name, res.NsPerOp, res.AllocsPerOp)

	r = testing.Benchmark(cacheStreamBench)
	res = toResult("cache_stream", r)
	rep.Micro = append(rep.Micro, res)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op\n", res.Name, res.NsPerOp, res.AllocsPerOp)

	r = testing.Benchmark(bbvUpdateBench)
	res = toResult("bbv_update", r)
	rep.Micro = append(rep.Micro, res)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op\n", res.Name, res.NsPerOp, res.AllocsPerOp)

	var instsPerOp uint64
	r = testing.Benchmark(emuStepBench(&instsPerOp))
	res = toResult("emu_group_functional", r)
	res.InstsPerSec = perSec(float64(instsPerOp), res.NsPerOp)
	rep.Micro = append(rep.Micro, res)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op %14.0f insts/s\n",
		res.Name, res.NsPerOp, res.AllocsPerOp, res.InstsPerSec)

	var replayInstsPerOp uint64
	r = testing.Benchmark(emuReplayBench(&replayInstsPerOp))
	res = toResult("emu_batch_replay", r)
	res.InstsPerSec = perSec(float64(replayInstsPerOp), res.NsPerOp)
	rep.Micro = append(rep.Micro, res)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op %14.0f insts/s\n",
		res.Name, res.NsPerOp, res.AllocsPerOp, res.InstsPerSec)

	r = testing.Benchmark(obsFlightBench)
	res = toResult("obs_flight_record", r)
	res.EventsPerSec = perSec(1, res.NsPerOp)
	rep.Micro = append(rep.Micro, res)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op %14.0f events/s\n",
		res.Name, res.NsPerOp, res.AllocsPerOp, res.EventsPerSec)

	r = testing.Benchmark(xfmrBuildBench)
	res = toResult("xfmr_block_build", r)
	rep.Micro = append(rep.Micro, res)
	fmt.Fprintf(w, "%-22s %12.1f ns/op %9d allocs/op\n", res.Name, res.NsPerOp, res.AllocsPerOp)

	e2e, err := runEndToEnd()
	if err != nil {
		return rep, err
	}
	rep.EndToEnd = e2e
	fmt.Fprintf(w, "%-22s %12.2f s wall %12d sim-cycles %12.0f cycles/s\n",
		"end_to_end:"+e2e.App, e2e.WallSeconds, e2e.SimCycles, e2e.CyclesPerSec)

	fp, err := footprintReport()
	if err != nil {
		return rep, err
	}
	rep.Footprint = fp
	fmt.Fprintf(w, "%-22s %12d B/warp %9d slots %11.1f%% vs AoS\n",
		"warp_footprint:"+fp.App, fp.BytesPerWarp, fp.WarpSlots, fp.SavingsPct)

	ls, err := laneScalingReport()
	if err != nil {
		return rep, err
	}
	rep.LaneScaling = ls
	for _, lr := range ls.Runs {
		fmt.Fprintf(w, "%-22s %12.2f s wall %12d sim-cycles %11.2fx vs 1 lane\n",
			fmt.Sprintf("lanes=%d:%s", lr.Lanes, ls.App), lr.WallSeconds, lr.SimCycles, lr.SpeedupX)
	}

	rep.TotalWallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// laneScalingReport runs the end-to-end app on the laned detailed engine at
// 1 and 8 lanes and reports wall time for each. The recorded numbers are
// honest for the host that produced them: NumCPU is in the report, and on a
// single-core machine the 8-lane wall time legitimately shows no speedup.
func laneScalingReport() (LaneScaling, error) {
	spec, err := workloads.FindSpec("ReLU")
	if err != nil {
		return LaneScaling{}, err
	}
	ls := LaneScaling{
		App:    fmt.Sprintf("%s/%d", spec.Abbr, spec.Sizes[0]),
		NumCPU: runtime.NumCPU(),
	}
	for _, lanes := range []int{1, 8} {
		app, err := spec.Build(spec.Sizes[0])
		if err != nil {
			return ls, err
		}
		start := time.Now()
		res, err := harness.RunAppInstrumented(context.Background(), gpu.R9Nano(), app,
			gpu.FullRunner{}, harness.AppObs{Lanes: lanes})
		if err != nil {
			return ls, err
		}
		lr := LaneRun{
			Lanes:       lanes,
			SimCycles:   int64(res.KernelTime),
			WallSeconds: time.Since(start).Seconds(),
		}
		if base := ls.Runs; len(base) > 0 {
			if lr.SimCycles != base[0].SimCycles {
				return ls, fmt.Errorf("lane scaling: %d lanes simulated %d cycles, 1 lane %d — lane-count invariance broken",
					lanes, lr.SimCycles, base[0].SimCycles)
			}
			if lr.WallSeconds > 0 {
				lr.SpeedupX = base[0].WallSeconds / lr.WallSeconds
			}
		} else {
			lr.SpeedupX = 1
		}
		ls.Runs = append(ls.Runs, lr)
	}
	return ls, nil
}

// xfmrBuildBench measures the transformer kernel-generator path end to end:
// one iteration lowers a small encoder block — attention, softmax,
// LayerNorm and GEMM programs plus their host-reference data — through the
// shape-keyed program cache. This is the app-construction cost every
// transformer sweep cell pays before the first simulated cycle.
func xfmrBuildBench(b *testing.B) {
	cfg := dnn.TransformerConfig{Heads: 2, DModel: 32, SeqLen: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dnn.BuildTransformerBlock(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// runEndToEnd simulates one small app fully detailed on the R9 Nano model
// and reports simulated cycles per wall second — the headline throughput of
// the detailed path.
func runEndToEnd() (EndToEnd, error) {
	spec, err := workloads.FindSpec("ReLU")
	if err != nil {
		return EndToEnd{}, err
	}
	app, err := spec.Build(spec.Sizes[0])
	if err != nil {
		return EndToEnd{}, err
	}
	start := time.Now()
	res, err := harness.RunApp(gpu.R9Nano(), app, gpu.FullRunner{})
	if err != nil {
		return EndToEnd{}, err
	}
	wall := time.Since(start).Seconds()
	e := EndToEnd{
		App:         fmt.Sprintf("%s/%d", spec.Abbr, spec.Sizes[0]),
		SimCycles:   int64(res.KernelTime),
		Insts:       res.Insts,
		WallSeconds: wall,
	}
	if wall > 0 {
		e.CyclesPerSec = float64(e.SimCycles) / wall
		e.InstsPerSec = float64(e.Insts) / wall
	}
	return e, nil
}

// footprintReport sizes the SoA warp store for the end-to-end app's first
// kernel on the R9 Nano geometry and compares its per-warp byte budget to
// the pre-SoA per-object layout estimate.
func footprintReport() (Footprint, error) {
	spec, err := workloads.FindSpec("ReLU")
	if err != nil {
		return Footprint{}, err
	}
	app, err := spec.Build(spec.Sizes[0])
	if err != nil {
		return Footprint{}, err
	}
	l := app.Launches[0]
	slots, perWarp := gpu.New(gpu.R9Nano()).WarpStoreBudget(l)
	fp := Footprint{
		App:               fmt.Sprintf("%s/%d", spec.Abbr, spec.Sizes[0]),
		WarpSlots:         slots,
		BytesPerWarp:      perWarp,
		ResidentBytes:     slots * perWarp,
		AoSBytesPerWarp:   perWarp + aosExtraBytesPerWarp,
		ReplayBatchGroups: emu.ReplayBatchGroups(l, emu.DefaultReplayBudgetBytes),
	}
	fp.SavingsPct = 100 * float64(fp.AoSBytesPerWarp-fp.BytesPerWarp) / float64(fp.AoSBytesPerWarp)
	return fp, nil
}

// WriteFile writes the report as indented JSON.
func (rep Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
