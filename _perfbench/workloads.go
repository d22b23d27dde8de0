package main

import (
	"fmt"

	ivy "repro"
	"repro/internal/apps"
)

// run is one application execution inside a pass: a configuration and
// the app that builds its cluster from it.
type run struct {
	name string
	cfg  ivy.Config
	exec func(ivy.Config) (apps.Result, error)
}

// workload is one benchmark input. A pass runs every run of runs(seed)
// once, in order. ref(seed), when set, is a run of the same input on
// another configuration whose answer the pass's runs must match;
// false-sharing has none, its six runs check each other.
type workload struct {
	name string
	tcp  bool // host-paced transport: virtual numbers are not exact
	runs func(seed int64) []run
	ref  func(seed int64) run
}

// appSeed shifts an app's default data seed by the workload seed, so
// seed 1 reproduces the repository's recorded inputs exactly.
func appSeed(def uint64, seed int64) uint64 { return def + uint64(seed-1) }

func pde3d(par apps.PDE3DParams) func(ivy.Config) (apps.Result, error) {
	return func(cfg ivy.Config) (apps.Result, error) { return apps.RunPDE3D(cfg, par) }
}

func jacobi(par apps.JacobiParams) func(ivy.Config) (apps.Result, error) {
	return func(cfg ivy.Config) (apps.Result, error) { return apps.RunJacobi(cfg, par) }
}

func matmul(par apps.MatmulParams) func(ivy.Config) (apps.Result, error) {
	return func(cfg ivy.Config) (apps.Result, error) { return apps.RunMatmul(cfg, par) }
}

// scManagers are the five SC coherence managers, in report order.
var scManagers = []struct {
	name string
	alg  ivy.Algorithm
}{
	{"dynamic", ivy.DynamicDistributed},
	{"centralized", ivy.ImprovedCentralized},
	{"fixed", ivy.FixedDistributed},
	{"broadcast", ivy.BroadcastManager},
	{"basic", ivy.BasicCentralized},
}

var workloads = []workload{
	{
		// Figure 4's input on one processor: the working set exceeds
		// the frame pool, so host time is the access path and the disk
		// model, and no message is sent.
		name: "pde3d-local",
		runs: func(seed int64) []run {
			par := apps.MemoryPressurePDE3D()
			par.Seed = appSeed(par.Seed, seed)
			return []run{{"pde3d-1p", ivy.Config{Processors: 1, MemoryPages: apps.MemoryPressureFrames, Seed: seed}, pde3d(par)}}
		},
		ref: func(seed int64) run {
			par := apps.MemoryPressurePDE3D()
			par.Seed = appSeed(par.Seed, seed)
			return run{"pde3d-8p", ivy.Config{Processors: 8, MemoryPages: apps.MemoryPressureFrames, Seed: seed}, pde3d(par)}
		},
	},
	{
		// Figure 5's headline point: read replication on top of real
		// compute, SC with the dynamic distributed manager.
		name: "pde3d-8p",
		runs: func(seed int64) []run {
			par := apps.DefaultPDE3D()
			par.Seed = appSeed(par.Seed, seed)
			return []run{{"pde3d-8p", ivy.Config{Processors: 8, Seed: seed}, pde3d(par)}}
		},
		ref: func(seed int64) run {
			par := apps.DefaultPDE3D()
			par.Seed = appSeed(par.Seed, seed)
			return run{"pde3d-1p", ivy.Config{Processors: 1, Seed: seed}, pde3d(par)}
		},
	},
	{
		// Write ping-pong on falsely shared pages, once under each SC
		// manager and once under release consistency.
		name: "false-sharing",
		runs: func(seed int64) []run {
			par := apps.JacobiParams{N: 256, Iters: 12, Seed: appSeed(7, seed)}
			var rs []run
			for _, m := range scManagers {
				cfg := ivy.Config{Processors: 8, PageSize: 4096, Seed: seed, Coherence: ivy.CoherenceSC, Algorithm: m.alg}
				rs = append(rs, run{"sc-" + m.name, cfg, jacobi(par)})
			}
			cfg := ivy.Config{Processors: 8, PageSize: 4096, Seed: seed, Coherence: ivy.CoherenceRC}
			return append(rs, run{"rc", cfg, jacobi(par)})
		},
	},
	{
		// The only workload on real sockets: matrix multiply on two
		// nodes meshed over TCP on 127.0.0.1.
		name: "tcp-loopback",
		tcp:  true,
		runs: func(seed int64) []run {
			par := apps.DefaultMatmul()
			par.Seed = appSeed(par.Seed, seed)
			return []run{{"matmul-tcp", ivy.Config{Processors: 2, Transport: ivy.TransportTCPLoopback, Seed: seed}, matmul(par)}}
		},
		ref: func(seed int64) run {
			par := apps.DefaultMatmul()
			par.Seed = appSeed(par.Seed, seed)
			return run{"matmul-sim", ivy.Config{Processors: 2, Seed: seed}, matmul(par)}
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
