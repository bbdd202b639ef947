// Command photon-bench regenerates the paper's tables and evaluation
// figures (13-17). Every figure sweeps benchmarks × sizes × runners and
// prints rows with kernel-time error vs full-detailed mode and host
// wall-time speedup.
//
// Each experiment is executed as a job graph on a bounded worker pool
// (-parallel, default one worker per CPU); full-detailed baselines are
// memoized in a cache shared across all experiments of the invocation, so
// each (config, bench, size) cell is simulated exactly once per run. Rows
// are printed in plan order regardless of completion order, so output is
// stable for any worker count (-fixed-wall additionally pins wall times,
// making output byte-identical).
//
//	photon-bench -exp fig13
//	photon-bench -exp all -quick -parallel 8
//
// The experiment set comes from the registry shared with photon-serve
// (internal/harness.Experiments), so the CLI and the service always agree
// on names and behavior.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"photon/internal/bench"
	"photon/internal/buildinfo"
	"photon/internal/harness"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/verify"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with testable plumbing: every failure path — including
// the deferred profile/artifact writes that used to only log — flows into
// the returned exit code. 0 = success, 1 = runtime failure, 2 = usage.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("photon-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(harness.ExperimentNames(), "|")+"|all")
		quick      = fs.Bool("quick", false, "smallest problem size per benchmark only")
		prNodes    = fs.Int("pr-nodes", 64*1024, "PageRank node count for fig16")
		jsonPath   = fs.String("json", "", "also write every comparison as JSON lines to this file")
		parallel   = fs.Int("parallel", 0, "worker count for experiment jobs (<= 0: one per CPU)")
		lanes      = fs.Int("lanes", 0, "per-run detailed-simulation lanes (0: serial engine, -1: auto, shares CPUs with -parallel workers)")
		fixedWall  = fs.Bool("fixed-wall", false, "pin wall times in output so runs diff byte-identically")
		check      = fs.Bool("check", false, "audit simulator invariants inline on every sampled run")
		metricsOut = fs.String("metrics-out", "", "write a telemetry snapshot (metrics.json) to this file")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event file (load in chrome://tracing or Perfetto)")
		accOut     = fs.String("accuracy-out", "", "write the per-kernel sampling-accuracy ledger (JSON lines) to this file")
		logLevel   = fs.String("log-level", "", "enable structured stderr logging at this level (debug, info, warn, error)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		perf       = fs.Bool("perf", false, "run the hot-path performance baseline instead of experiments")
		perfOut    = fs.String("perf-out", "", "where -perf writes its JSON report (required with -perf)")
		version    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Print("photon-bench"))
		return 0
	}

	if *perf {
		if *perfOut == "" {
			fmt.Fprintln(stderr, "photon-bench: -perf needs -perf-out <file>")
			return 2
		}
		rep, err := bench.Run(stdout)
		if err != nil {
			fmt.Fprintf(stderr, "photon-bench: perf: %v\n", err)
			return 1
		}
		if err := rep.WriteFile(*perfOut); err != nil {
			fmt.Fprintf(stderr, "photon-bench: perf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "(perf baseline -> %s in %.1fs)\n", *perfOut, rep.TotalWallSeconds)
		return 0
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "photon-bench: %v\n", err)
		return 1
	}
	code := runExperiments(benchFlags{
		exp:        *exp,
		quick:      *quick,
		prNodes:    *prNodes,
		jsonPath:   *jsonPath,
		parallel:   *parallel,
		lanes:      *lanes,
		fixedWall:  *fixedWall,
		check:      *check,
		metricsOut: *metricsOut,
		traceOut:   *traceOut,
		accOut:     *accOut,
		logLevel:   *logLevel,
	}, stdout, stderr)
	// A profile that fails to materialize is a failed run, not a footnote:
	// the caller asked for the artifact.
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "photon-bench: profiles: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

type benchFlags struct {
	exp        string
	quick      bool
	prNodes    int
	jsonPath   string
	parallel   int
	lanes      int
	fixedWall  bool
	check      bool
	metricsOut string
	traceOut   string
	accOut     string
	logLevel   string
}

func runExperiments(f benchFlags, stdout, stderr io.Writer) int {
	o := harness.DefaultOptions()
	o.Quick = f.quick
	o.PRNodes = f.prNodes
	o.Parallel = f.parallel
	o.Lanes = f.lanes
	o.FixedWall = f.fixedWall
	o.Baselines = harness.NewBaselineCache()

	var jsonFile *os.File
	if f.jsonPath != "" {
		var err error
		jsonFile, err = os.Create(f.jsonPath)
		if err != nil {
			fmt.Fprintf(stderr, "photon-bench: %v\n", err)
			return 1
		}
		o.JSON = harness.NewJSONSink(jsonFile)
	}
	if f.metricsOut != "" {
		o.Metrics = obs.NewRegistry()
	}
	if f.traceOut != "" {
		o.Trace = obs.NewTraceBuffer()
	}
	if f.logLevel != "" {
		// Structured logs go to stderr, never stdout: row output must stay
		// byte-identical with logging on.
		o.Log = obs.NewTextLogger(stderr, obs.ParseLevel(f.logLevel))
		o.Flight = obs.NewFlightRecorder(1024)
	}
	// The accuracy ledger always rides along: the sink keeps the run-end
	// roll-up even when no -accuracy-out file is requested.
	var accFile *os.File
	if f.accOut != "" {
		var err error
		accFile, err = os.Create(f.accOut)
		if err != nil {
			fmt.Fprintf(stderr, "photon-bench: %v\n", err)
			return 1
		}
		o.Accuracy = harness.NewAccuracySink(accFile)
	} else {
		o.Accuracy = harness.NewAccuracySink(nil)
	}
	// -check wraps every sampled runner in an invariant auditor. One auditor
	// per runner (jobs run concurrently); the run fails at the end if any of
	// them recorded a violation.
	var auditMu sync.Mutex
	var audits []*verify.Auditor
	if f.check {
		o.WrapRunner = func(r gpu.Runner) gpu.Runner {
			a := verify.NewAuditor(r)
			auditMu.Lock()
			audits = append(audits, a)
			auditMu.Unlock()
			return a
		}
	}

	wants := map[string]bool{}
	for _, name := range strings.Split(f.exp, ",") {
		name = strings.TrimSpace(name)
		if name != "all" {
			if _, ok := harness.FindExperiment(name); !ok {
				fmt.Fprintf(stderr, "photon-bench: unknown experiment %q\n", name)
				return 2
			}
		}
		wants[name] = true
	}

	for _, e := range harness.Experiments() {
		if !wants["all"] && !wants[e.Name] {
			continue
		}
		start := time.Now()
		if err := e.Run(stdout, o); err != nil {
			fmt.Fprintf(stderr, "photon-bench: %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintln(stdout)
		// Progress metadata goes to stderr so stdout stays diffable across
		// runs and worker counts (wall time is nondeterministic).
		fmt.Fprintf(stderr, "(%s regenerated in %s)\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if f.check {
		kernels, failed := 0, 0
		for _, a := range audits {
			kernels += a.Kernels()
			if err := a.Err(); err != nil {
				failed++
				fmt.Fprintf(stderr, "photon-bench: %v\n", err)
			}
		}
		if failed > 0 {
			fmt.Fprintf(stderr, "photon-bench: invariant audit failed on %d of %d sampled runs\n", failed, len(audits))
			return 1
		}
		fmt.Fprintf(stderr, "(check: %d sampled runs, %d kernels, invariants ok)\n", len(audits), kernels)
	}
	if n := o.Baselines.Simulated(); n > 0 {
		fmt.Fprintf(stderr, "(baseline cache: %d full runs simulated, %d reused)\n",
			n, o.Baselines.Hits())
	}
	// Run-end accuracy roll-up: where the sampler spent its kernels and how
	// far predictions drifted from the detailed baseline.
	if o.Accuracy.Kernels() > 0 {
		fmt.Fprintf(stderr, "(%s)\n", o.Accuracy.Summary())
		o.Accuracy.PublishGauges(o.Metrics)
	}
	if accFile != nil {
		if err := accFile.Close(); err != nil {
			fmt.Fprintf(stderr, "photon-bench: closing %s: %v\n", f.accOut, err)
			return 1
		}
		fmt.Fprintf(stderr, "(accuracy ledger: %d kernels -> %s)\n", o.Accuracy.Kernels(), f.accOut)
	}
	if o.Log != nil && o.Log.Suppressed() > 0 {
		fmt.Fprintf(stderr, "photon-bench: %d log records suppressed by rate limit\n", o.Log.Suppressed())
	}
	if jsonFile != nil {
		if err := jsonFile.Close(); err != nil {
			fmt.Fprintf(stderr, "photon-bench: closing %s: %v\n", f.jsonPath, err)
			return 1
		}
	}
	if o.Metrics != nil {
		harness.FinalizeMetrics(o.Metrics)
		if err := o.Metrics.WriteFile(f.metricsOut); err != nil {
			fmt.Fprintf(stderr, "photon-bench: writing metrics: %v\n", err)
			return 1
		}
		// Run-level summary: how much work the engine did and where
		// instructions went, so a sweep's telemetry is legible without
		// opening the artifact.
		snap := o.Metrics.Snapshot()
		fmt.Fprintf(stderr,
			"(telemetry: %d jobs ok, %d failed; %d insts detailed, %d predicted; metrics -> %s)\n",
			snap.SumCounters("engine_jobs_total", obs.L("status", "ok")),
			snap.SumCounters("engine_jobs_total", obs.L("status", "error")),
			snap.SumCounters("photon_insts_detailed_total"),
			snap.SumCounters("photon_insts_predicted_total"),
			f.metricsOut)
	}
	if o.Trace != nil {
		if n := o.Trace.Dropped(); n > 0 {
			fmt.Fprintf(stderr, "photon-bench: warning: %d trace events dropped (buffer full)\n", n)
		}
		if err := o.Trace.WriteFile(f.traceOut); err != nil {
			fmt.Fprintf(stderr, "photon-bench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "(telemetry: %d trace events -> %s)\n", o.Trace.Len(), f.traceOut)
	}
	return 0
}
