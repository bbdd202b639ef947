package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"photon/internal/harness"
	"photon/internal/sim/emu"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the program's
// metric tables and workloads in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// gives, which is how spreads of this benchmark are judged.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"photon/internal/sim/emu.(*Warp).Step":       "emu",
		"photon/internal/core/bbv.BuildGPU":          "core",
		"photon/internal/sim/event.(*Engine).Run":    "event",
		"photon/internal/workloads/dnn.BuildGEMM":    "workloads",
		"internal/runtime/maps.(*Map).getWithKeyMap": "runtime",
		"runtime.mallocgc":                           "runtime",
		"sort.Slice":                                 "other",
		"photon/internal/sim/gpu.(*GPU).RunDetailed": "other",
		"": "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layerOf(packageOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}

// TestLeafLayers profiles functional emulation and checks that the decoded
// profile attributes samples to the emulator.
func TestLeafLayers(t *testing.T) {
	p, err := harness.FindBench("FIR", 3072)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := emu.RunKernelFunctional(app.Launches[0]); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	byLayer, err := leafLayers(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range byLayer {
		total += c
	}
	if total == 0 || byLayer["emu"]*2 < total {
		t.Fatalf("samples by layer = %v, want emu to hold most of them", byLayer)
	}
}
