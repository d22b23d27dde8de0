// Command perfbench is the IVY benchmark: it runs one workload in closed
// loop (one pass at a time, each pass a fixed set of application runs)
// for a given number of seconds, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 14, "failed": 0, "metrics": {"run_s": {"value": 0.71, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh; README.md describes
// the workloads, the metrics and the layers they belong to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// minPasses is the fewest untraced passes a run measures, however long
// one pass takes.
const minPasses = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pde3d-local, pde3d-8p, false-sharing or tcp-loopback")
	seed := flag.Int64("seed", 1, "workload seed (Config.Seed and the app data seeds)")
	seconds := flag.Float64("seconds", 10, "seconds of untraced passes to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters, a traced pass, a CPU profile and probes")
	child := flag.String("child", "", "internal: run one pass (pass) or one traced pass (traced) and print its record")
	profile := flag.Bool("profile", false, "internal: profile the child's pass")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		rec, err := childPass(w, *seed, *child == "traced", *profile)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench measures workload w at seed with untraced passes for d, then,
// for per-layer metrics, adds a traced pass and the probes. Every pass
// runs in a child process of its own: a finished cluster is not
// reclaimed by the Go runtime (the goroutines of its parked fibers
// outlive Run), so one process per pass keeps memory bounded and every
// pass starts from the same state.
func bench(w workload, seed int64, d time.Duration, perLayer bool) (result, error) {
	chk, err := newChecker(w, seed)
	if err != nil {
		return result{}, err
	}
	var passes []passRecord
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < d {
		rec, err := spawn(w, seed, "pass", perLayer)
		if err != nil {
			return result{}, err
		}
		chk.check(rec.Runs, false)
		passes = append(passes, rec)
	}
	res := result{Metrics: map[string]metric{}}
	if !perLayer {
		// Host times on the calibrated scale (see calibrate.go).
		scaled := func(f func(passRecord) float64) float64 {
			return median(field(passes, func(p passRecord) float64 { return f(p) * calReference.Seconds() / p.CalS }))
		}
		counts := countsOf(passes)
		res.Metrics["run_s"] = metric{scaled(func(p passRecord) float64 { return p.RunS }), "s"}
		res.Metrics["setup_s"] = metric{scaled(func(p passRecord) float64 { return p.SetupS }), "s"}
		res.Metrics["alloc_mb"] = metric{median(field(passes, func(p passRecord) float64 { return p.AllocMB })), "MB"}
		res.Metrics["vsec"] = metric{counts["vsec"], "vsec"}
		res.Metrics["fault_ms"] = metric{counts["fault_ms"], "vms"}
		raw := func(f func(passRecord) float64) float64 { return median(field(passes, f)) }
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes; unscaled medians: wall %.6g s, set-up %.6g s, calibration %.6g ms\n",
			w.name, len(passes), raw(func(p passRecord) float64 { return p.RunS }),
			raw(func(p passRecord) float64 { return p.SetupS }), raw(func(p passRecord) float64 { return p.CalS * 1e3 }))
	} else {
		var traced *passRecord
		if !w.tcp { // the span tracer is a simulator plane
			rec, err := spawn(w, seed, "traced", false)
			if err != nil {
				return result{}, err
			}
			chk.check(rec.Runs, true)
			traced = &rec
		}
		if err := layerMetrics(res.Metrics, passes, traced); err != nil {
			return result{}, err
		}
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is not finite", n)
		}
	}
	return res, nil
}

func field(ps []passRecord, f func(passRecord) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// spawn runs one pass of w in a child process of this binary and
// returns its record; mode is "pass" or "traced".
func spawn(w workload, seed int64, mode string, profile bool) (passRecord, error) {
	var rec passRecord
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	args := []string{"--child", mode, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10)}
	if profile {
		args = append(args, "--profile")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s child: %w", mode, err)
	}
	if err := json.Unmarshal(out, &rec); err != nil {
		return rec, fmt.Errorf("%s child: %w", mode, err)
	}
	return rec, nil
}
