package main

import (
	"fmt"

	"photon/internal/harness"
	"photon/internal/sim/gpu"
	"photon/internal/workloads"
)

// workload is one benchmark input: the apps it runs, in order, on one GPU
// configuration. Each workload is chosen so that one of Photon's four tiers
// does most of Photon's work on it (see README.md); tier names that tier.
type workload struct {
	name string
	cfg  gpu.Config
	tier string
	apps []appSpec
}

// appSpec names one app of a workload and builds it through the
// repository's public builder registry.
type appSpec struct {
	name  string
	build func() (*workloads.App, error)
}

func findWorkload(name string) (workload, error) {
	switch name {
	case "fir-bb":
		return newWorkload(name, gpu.R9Nano(), "bb-sampling", bench{"FIR", 32768})
	case "mm-full":
		return newWorkload(name, gpu.R9Nano(), "full", bench{"MM", 1024})
	case "relu-warp-mi100":
		return newWorkload(name, gpu.MI100(), "warp-sampling", bench{"ReLU", 131072})
	case "xfmr-kernel":
		return newWorkload(name, gpu.R9Nano(), "kernel-sampling", bench{"transformer", 8}, bench{"trainstep", 2})
	}
	return workload{}, fmt.Errorf("unknown workload %q (want fir-bb, mm-full, relu-warp-mi100 or xfmr-kernel)", name)
}

// bench is a harness.FindBench name and problem size.
type bench struct {
	name string
	size int
}

func newWorkload(name string, cfg gpu.Config, tier string, benches ...bench) (workload, error) {
	w := workload{name: name, cfg: cfg, tier: tier}
	for _, b := range benches {
		p, err := harness.FindBench(b.name, b.size)
		if err != nil {
			return workload{}, err
		}
		w.apps = append(w.apps, appSpec{name: fmt.Sprintf("%s/%d", p.Bench, b.size), build: p.Build})
	}
	return w, nil
}
