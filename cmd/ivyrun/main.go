// Command ivyrun executes one benchmark program on a configurable
// cluster and prints the elapsed virtual time with a statistics summary —
// the quick way to poke at a single configuration. -loss arms the chaos
// fault plane with independent packet loss only (ChaosOpts.LossProbability);
// at the default 0 no fault plane is installed.
//
// Usage:
//
//	ivyrun -app jacobi|pde3d|tsp|matmul|dotprod|sort [flags]
//
// Examples:
//
//	ivyrun -app jacobi -procs 8
//	ivyrun -app pde3d -procs 2 -mempages 1024        # the Figure 4 setup
//	ivyrun -app dotprod -procs 8 -algorithm broadcast
//	ivyrun -app matmul -procs 4 -pagesize 256 -loss 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/cli"
)

func main() {
	app := flag.String("app", "jacobi", "benchmark: jacobi, pde3d, tsp, matmul, dotprod, sort")
	procs := flag.Int("procs", 4, "processors (1..64)")
	pageSize := flag.Int("pagesize", 1024, "page size in bytes (power of two)")
	memPages := flag.Int("mempages", 0, "physical frames per node (0 = unconstrained)")
	algorithm := flag.String("algorithm", "dynamic", "manager: dynamic, centralized, fixed, broadcast, basic")
	coherence := cli.CoherenceFlag()
	loss := flag.Float64("loss", 0, "packet loss probability, injected by the chaos plane (exercises retransmission)")
	seed := flag.Int64("seed", 1, "simulation seed")
	sysmode := flag.Bool("sysmode", false, "use the projected system-mode cost model (paper's conclusion)")
	size := flag.Int("n", 0, "problem size override (0 = app default)")
	iters := flag.Int("iters", 0, "iteration override for iterative apps (0 = default)")
	drace := cli.DRaceFlag()
	profile := cli.ProfileFlag()
	var tf cli.TraceFlags
	tf.Register()
	flag.Parse()

	alg, err := cli.ParseManager(*algorithm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivyrun: %v\n", err)
		os.Exit(2)
	}
	coh, err := cli.ParseCoherence(*coherence)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivyrun: %v\n", err)
		os.Exit(2)
	}
	cfg := ivy.Config{
		Processors:  *procs,
		PageSize:    *pageSize,
		MemoryPages: *memPages,
		Algorithm:   alg,
		Coherence:   coh,
		Seed:        *seed,
		DRace:       *drace,
		Profile:     *profile,
	}
	if *loss > 0 {
		// An armed injector draws per delivery attempt even with every
		// probability zero, so a fault-free run installs none.
		cfg.Chaos = &ivy.ChaosOpts{LossProbability: *loss}
	}
	if *sysmode {
		costs := ivy.SystemMode1988()
		cfg.Costs = &costs
	}
	tc, closeTrace, err := tf.Config()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivyrun: %v\n", err)
		os.Exit(1)
	}
	cfg.Trace = tc

	var res apps.Result
	switch *app {
	case "jacobi":
		par := apps.DefaultJacobi()
		if *size > 0 {
			par.N = *size
		}
		if *iters > 0 {
			par.Iters = *iters
		}
		res, err = apps.RunJacobi(cfg, par)
	case "pde3d":
		par := apps.DefaultPDE3D()
		if *size > 0 {
			par.N = *size
		}
		if *iters > 0 {
			par.Iters = *iters
		}
		res, err = apps.RunPDE3D(cfg, par)
	case "tsp":
		par := apps.DefaultTSP()
		if *size > 0 {
			par.Cities = *size
		}
		res, err = apps.RunTSP(cfg, par)
	case "matmul":
		par := apps.DefaultMatmul()
		if *size > 0 {
			par.N = *size
		}
		res, err = apps.RunMatmul(cfg, par)
	case "dotprod":
		par := apps.DefaultDotProd()
		if *size > 0 {
			par.N = *size
		}
		res, err = apps.RunDotProd(cfg, par)
	case "sort":
		par := apps.DefaultSort()
		if *size > 0 {
			par.Records = *size
		}
		res, err = apps.RunSortMerge(cfg, par)
	default:
		fmt.Fprintf(os.Stderr, "ivyrun: unknown app %q\n", *app)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivyrun: %v\n", err)
		os.Exit(1)
	}
	if err := closeTrace(); err != nil {
		fmt.Fprintf(os.Stderr, "ivyrun: %v\n", err)
		os.Exit(1)
	}

	tot := res.Stats.Total()
	fmt.Printf("app            %s\n", *app)
	fmt.Printf("processors     %d\n", res.Processors)
	fmt.Printf("algorithm      %v\n", alg)
	fmt.Printf("virtual time   %v\n", res.Elapsed.Round(time.Microsecond))
	fmt.Printf("check value    %g\n", res.Check)
	fmt.Println()
	fmt.Printf("read faults    %d\n", tot.SVM.ReadFaults)
	fmt.Printf("write faults   %d\n", tot.SVM.WriteFaults)
	fmt.Printf("upgrades       %d\n", tot.SVM.LocalUpgrades)
	fmt.Printf("invalidations  %d\n", tot.SVM.InvalSent)
	fmt.Printf("disk transfers %d\n", tot.DiskTransfers())
	fmt.Printf("packets        %d (%d bytes)\n", res.Stats.Packets, res.Stats.NetBytes)
	fmt.Printf("forwards       %d\n", res.Stats.Forwards)
	fmt.Printf("retransmits    %d\n", res.Stats.Retransmissions)
	fmt.Printf("fault stall    %v\n", tot.SVM.FaultStall.Round(time.Millisecond))
	if *drace {
		fmt.Printf("race checks    %d\n", tot.SVM.RaceChecks)
		fmt.Printf("race reports   %d\n", tot.SVM.RaceReports)
	}
	fmt.Println()
	lat := res.Latency
	lat.Render(os.Stdout)
	fmt.Println()
	fmt.Printf("per-node faults:")
	for i, n := range res.Stats.Nodes {
		fmt.Printf(" n%d=%d", i, n.Faults())
	}
	fmt.Println()
	if *profile && res.Metrics != nil {
		fmt.Printf("\nprofiled pages %d touched (run cmd/ivyprof for the ranked contention report)\n",
			len(res.Metrics.Pages))
	}
}
