// Command perfbench is the repository's benchmark. For one workload it
// simulates every app fully detailed (gpu.FullRunner) and under Photon
// (core.New with all levels), timing each Runner.RunKernel call and gating
// every run on the app's functional check and on exactly repeated simulated
// cycles and instruction counts.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 a separate
// traced run keeps spans in memory, calls each layer's public entry point on
// the same launches, attributes CPU-profile samples to layers and prints the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"full_wall_s": {"value": 2.41, "unit": "s"}, ...}}
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload fir-bb -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// metric is one reported figure. moves names, for a per-layer metric, the
// end-to-end metric and workload it should move.
type metric struct {
	name, unit, moves string
}

// endToEnd lists the -trace 0 metrics, in report order.
var endToEnd = []metric{
	{"full_wall_s", "s", ""},
	{"photon_wall_s", "s", ""},
	{"photon_accuracy_pct", "%", ""},
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
}

// tiers are Photon's result modes, as gpu.KernelResult.Mode names them.
var tiers = []string{"full", "bb-sampling", "warp-sampling", "kernel-sampling"}

// perLayer lists the -trace 1 metrics, in report order.
var perLayer = func() []metric {
	ms := []metric{
		{"workloads.build_s", "s", "setup_s, most on relu-warp-mi100 and xfmr-kernel"},
		{"core.analyze_s", "s", "photon_wall_s on xfmr-kernel"},
		{"core.sampled_insts", "count", "photon_wall_s on xfmr-kernel"},
		{"core.photon_kernel_s", "s", "photon_wall_s on every workload"},
	}
	for _, t := range tiers {
		ms = append(ms, metric{"core.tier_kernels." + t, "count", "photon_wall_s on the " + t + " workload"})
	}
	for _, t := range tiers {
		ms = append(ms, metric{"core.tier_wall_share." + t, "ratio", "photon_wall_s on the " + t + " workload"})
	}
	ms = append(ms,
		metric{"core.detailed_inst_share", "ratio", "photon_wall_s against photon_accuracy_pct on fir-bb and relu-warp-mi100"},
		metric{"core.speedup_x", "x", "reported only"},
		metric{"core.photon_err_pct", "%", "photon_accuracy_pct on every workload"},
		metric{"emu.functional_s", "s", "photon_wall_s on fir-bb and xfmr-kernel; none on mm-full and relu-warp-mi100"},
		metric{"emu.functional_insts", "count", "photon_wall_s on fir-bb and xfmr-kernel"},
		metric{"emu.functional_insts_per_s", "1/s", "photon_wall_s on fir-bb and xfmr-kernel"},
		metric{"timing.detailed_s", "s", "full_wall_s on every workload; photon_wall_s on mm-full and relu-warp-mi100"},
		metric{"timing.sim_cycles", "cycles", "full_wall_s on every workload"},
		metric{"timing.insts", "count", "full_wall_s on every workload"},
		metric{"timing.sim_insts_per_s", "1/s", "full_wall_s on every workload; photon_wall_s on mm-full and relu-warp-mi100"},
		metric{"event.events_fired", "count", "full_wall_s, most on mm-full and fir-bb"},
		metric{"event.ns_per_event", "ns", "full_wall_s, most on mm-full and fir-bb"},
		metric{"mem.l1v_hit_rate", "ratio", "simulated cycles"},
		metric{"mem.l2_hit_rate", "ratio", "simulated cycles"},
		metric{"mem.dram_accesses", "count", "simulated cycles; full_wall_s on relu-warp-mi100"},
		metric{"mem.dram_row_hit_rate", "ratio", "simulated cycles"},
	)
	for _, l := range layers {
		ms = append(ms, metric{"layer_share." + l, "ratio", "the workload's wall time, by the layer that dominates it"})
	}
	return append(ms,
		metric{"trace.overhead_ratio", "ratio", "reported only: traced over untraced RunKernel time"},
		metric{"host.calib_s", "s", "reported only: host speed, for normalising across hosts"},
	)
}()

// minPairs is the fewest counted full/Photon pairs a timed run measures,
// however short its budget.
const minPairs = 3

// setupReps is how many extra times a timed run builds the workload's apps
// only to sample set-up time; every pair builds them twice more.
const setupReps = 5

// noiseBound is the calibration drift beyond which a run is flagged noisy;
// it equals the wall-time metrics' bound in BENCHMARK.json.
const noiseBound = 0.25

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fir-bb, mm-full, relu-warp-mi100 or xfmr-kernel")
	seed := fs.Int64("seed", 1, "seed of the host-calibration loop's input; the workload builders fix their own data")
	seconds := fs.Float64("seconds", 10, "measuring budget in seconds")
	trace := fs.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	out := fs.String("out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	calBefore := calibrate(*seed)
	s := newSession(w)
	budget := time.Duration(*seconds * float64(time.Second))
	var samples map[string][]float64
	table := endToEnd
	if *trace == 1 {
		table = perLayer
		samples, err = tracedRun(s, budget, filepath.Join(*out, "perfbench-"+w.name+".trace.json"))
	} else {
		samples, err = timedRun(s, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	calAfter := calibrate(*seed)
	if *trace == 1 {
		samples["host.calib_s"] = []float64{calBefore.Seconds(), calAfter.Seconds()}
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d trace=%d %s GOMAXPROCS=%d\n",
		w.name, *seed, *trace, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "%-34s %14s %14s %14s %3s  %-6s %s\n", "metric", "median", "q1", "q3", "n", "unit", "moves")
	res := result{Correct: s.correct(), Attempted: s.attempted, Failed: s.failed(), Metrics: map[string]value{}}
	for _, m := range table {
		xs, ok := samples[m.name]
		if !ok || len(xs) == 0 {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", m.name)
			return 1
		}
		q1, med, q3 := quartiles(xs)
		if math.IsNaN(med) || math.IsInf(med, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", m.name)
			return 1
		}
		fmt.Fprintf(stdout, "%-34s %14.6g %14.6g %14.6g %3d  %-6s %s\n", m.name, med, q1, q3, len(xs), m.unit, m.moves)
		res.Metrics[m.name] = value{med, m.unit}
	}
	drift := math.Abs(calAfter.Seconds()-calBefore.Seconds()) / calBefore.Seconds()
	noisy := ""
	if drift > noiseBound {
		noisy = " NOISY: the host's speed changed during the run"
		fmt.Fprintf(stderr, "perfbench: calibration drifted %.1f%% (bound %.0f%%)\n", 100*drift, 100*noiseBound)
	}
	fmt.Fprintf(stdout, "calibration before=%.6fs after=%.6fs drift=%.2f%%%s\n", calBefore.Seconds(), calAfter.Seconds(), 100*drift, noisy)
	fmt.Fprintf(stdout, "operations attempted=%d failed=%d unchecked(warp-sampling)=%d\n", s.attempted, s.failed(), s.unchecked)
	seen := map[string]int{}
	var distinct []string
	for _, f := range s.failures {
		if seen[f] == 0 {
			distinct = append(distinct, f)
		}
		seen[f]++
	}
	for _, f := range distinct {
		tag := "FAILED"
		if f == knownFailure {
			tag = "FAILED (known defect)"
		}
		fmt.Fprintf(stdout, "%s %dx: %s\n", tag, seen[f], f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// timedRun measures full/Photon pairs for the budget after one uncounted
// warm-up pair, and returns the end-to-end samples.
func timedRun(s *session, budget time.Duration) (map[string][]float64, error) {
	if _, err := s.runPair(-1); err != nil {
		return nil, err
	}
	s.setup = s.setup[:0]
	for i := 0; i < setupReps; i++ {
		if _, err := s.buildApps(-1); err != nil {
			return nil, err
		}
	}
	var full, photon []float64
	start := time.Now()
	for {
		t := time.Now()
		p, err := s.runPair(-1)
		if err != nil {
			return nil, err
		}
		full = append(full, wall(p.full).Seconds())
		photon = append(photon, wall(p.photon).Seconds())
		if len(full) >= minPairs && time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	setup := make([]float64, len(s.setup))
	for i, d := range s.setup {
		setup[i] = d.Seconds()
	}
	return map[string][]float64{
		"full_wall_s":         full,
		"photon_wall_s":       photon,
		"photon_accuracy_pct": {100 - s.errPct()},
		"setup_s":             setup,
		"peak_rss_mb":         {peakRSSMB()},
	}, nil
}

// tracedRun alternates an untraced pair with a traced pair plus a probe
// pass until the budget is spent, and returns the per-layer figures, each
// per traced iteration. CPU samples are taken only in the traced part.
func tracedRun(s *session, budget time.Duration, tracePath string) (map[string][]float64, error) {
	if _, err := s.runPair(-1); err != nil {
		return nil, err
	}
	tr := newTracer()
	var (
		untraced, traced, fullWall, photonWall float64
		photonRuns                             []appRun
		counts                                 probeCounts
		leaves                                 = map[string]int64{}
		builds                                 int
		iters                                  int
	)
	start := time.Now()
	for {
		t := time.Now()
		p, err := s.runPair(-1)
		if err != nil {
			return nil, err
		}
		fullWall += wall(p.full).Seconds()
		photonWall += wall(p.photon).Seconds()
		untraced += (wall(p.full) + wall(p.photon)).Seconds()

		// CPU samples cover the traced pair only, so layer shares describe
		// the workload, not the probes.
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		s.tr = tr
		n := len(s.setup)
		root := tr.begin("workload "+s.w.name, "workload", -1)
		p, err = s.runPair(root)
		pprof.StopCPUProfile()
		if err == nil {
			err = s.probe(root, &counts)
		}
		tr.end(root, nil)
		s.tr = nil
		if err != nil {
			return nil, err
		}
		builds += len(s.setup) - n
		traced += (wall(p.full) + wall(p.photon)).Seconds()
		photonRuns = append(photonRuns, p.photon...)
		byLayer, err := leafLayers(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for l, c := range byLayer {
			leaves[l] += c
		}
		iters++
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	var kernelWall float64
	tierWall := map[string]float64{}
	tierKernels := map[string]int{}
	var insts, detailed uint64
	for _, r := range photonRuns {
		for i, mode := range r.modes {
			tierWall[mode] += r.kernelWall[i].Seconds()
			tierKernels[mode]++
			kernelWall += r.kernelWall[i].Seconds()
			insts += r.insts[i]
		}
		detailed += r.detailed
	}
	var samples int64
	for _, c := range leaves {
		samples += c
	}

	self := tr.selfTime()
	per := func(x float64) []float64 { return []float64{x / float64(iters)} }
	m := counts.mem
	out := map[string][]float64{
		"workloads.build_s":          {self["workloads"].Seconds() / float64(builds)},
		"core.analyze_s":             per(self["core"].Seconds()),
		"core.sampled_insts":         per(float64(counts.sampledInsts)),
		"core.photon_kernel_s":       per(kernelWall),
		"core.detailed_inst_share":   {ratio(detailed, insts)},
		"core.speedup_x":             {fullWall / photonWall},
		"core.photon_err_pct":        {s.errPct()},
		"emu.functional_s":           per(self["emu"].Seconds()),
		"emu.functional_insts":       per(float64(counts.functionalInsts)),
		"emu.functional_insts_per_s": {float64(counts.functionalInsts) / self["emu"].Seconds()},
		"timing.detailed_s":          per(self["timing"].Seconds()),
		"timing.sim_cycles":          per(float64(counts.cycles)),
		"timing.insts":               per(float64(counts.insts)),
		"timing.sim_insts_per_s":     {float64(counts.insts) / self["timing"].Seconds()},
		"event.events_fired":         per(float64(counts.events)),
		"event.ns_per_event":         {float64(self["timing"].Nanoseconds()) / float64(counts.events)},
		"mem.l1v_hit_rate":           {ratio(m.L1VHits, m.L1VHits+m.L1VMisses)},
		"mem.l2_hit_rate":            {ratio(m.L2Hits, m.L2Hits+m.L2Misses)},
		"mem.dram_accesses":          per(float64(m.DRAMAccesses)),
		"mem.dram_row_hit_rate":      {ratio(m.DRAMRowHits, m.DRAMAccesses)},
		"trace.overhead_ratio":       {traced / untraced},
	}
	for _, t := range tiers {
		out["core.tier_kernels."+t] = per(float64(tierKernels[t]))
		out["core.tier_wall_share."+t] = []float64{tierWall[t] / kernelWall}
	}
	for _, l := range layers {
		out["layer_share."+l] = []float64{float64(leaves[l]) / float64(samples)}
	}
	return out, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed pure-Go integer loop that calls no repository
// code, as the median of five repetitions. Dividing host times by it
// normalises results taken on different hosts.
func calibrate(seed int64) time.Duration {
	ds := make([]float64, 5)
	for r := range ds {
		x := uint64(seed) | 1
		start := time.Now()
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ds[r] = float64(time.Since(start))
		calibSink += x
	}
	_, med, _ := quartiles(ds)
	return time.Duration(med)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed as Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), with the median taken directly.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
