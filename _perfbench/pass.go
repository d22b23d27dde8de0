package main

// The child side of a pass: run the workload's runs once, measure host
// time and allocation, and report everything the parent aggregates.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/wire"
)

// passRecord is what a child process reports about its pass.
type passRecord struct {
	CalS      float64            `json:"cal_s"` // calibrate's time, before the pass
	RunS      float64            `json:"run_s"`
	SetupS    float64            `json:"setup_s"`
	AllocMB   float64            `json:"alloc_mb"`
	Mallocs   float64            `json:"mallocs"`
	GCCycles  float64            `json:"gc_cycles"`
	GCPauseMS float64            `json:"gc_pause_ms"`
	Runs      []runRecord        `json:"runs"`
	Counts    map[string]float64 `json:"counts"`          // passCounts
	Packets   []uint64           `json:"packets"`         // per wire kind
	Bytes     []uint64           `json:"bytes"`           // per wire kind
	CPU       map[string]int64   `json:"cpu,omitempty"`   // profile samples by module
	Spans     map[string]float64 `json:"spans,omitempty"` // traced pass only
}

// runRecord is one run's answer, its fingerprint and its error.
type runRecord struct {
	Check  float64 `json:"check"`
	Digest uint64  `json:"digest"`
	FP     uint64  `json:"fp"`
	Err    string  `json:"err,omitempty"`
}

// childPass runs one pass of w: untraced (optionally under the CPU
// profiler) or traced.
func childPass(w workload, seed int64, traced, profile bool) (passRecord, error) {
	runs := w.runs(seed)
	var rec passRecord
	var results []apps.Result
	var errs []error
	if traced {
		tp, err := runTracedPass(runs)
		if err != nil {
			return rec, err
		}
		rec.RunS, results, errs = tp.runS, tp.results, tp.errs
		rec.Spans = spanMetrics(tp)
	} else {
		rec.CalS = calibrate().Seconds()
		runtime.GC() // free the calibration's heap: every set-up starts alike
		setup, err := timeSetup(runs)
		if err != nil {
			return rec, err
		}
		rec.SetupS = setup
		var prof bytes.Buffer
		if profile {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return rec, fmt.Errorf("cpu profile: %w", err)
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, r := range runs {
			res, err := r.exec(r.cfg)
			results = append(results, res)
			errs = append(errs, err)
		}
		rec.RunS = time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		if profile {
			pprof.StopCPUProfile()
			leaves, weights, err := profileLeaves(prof.Bytes())
			if err != nil {
				return rec, err
			}
			rec.CPU = moduleSamples(leaves, weights)
		}
		rec.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		rec.Mallocs = float64(m1.Mallocs - m0.Mallocs)
		rec.GCCycles = float64(m1.NumGC - m0.NumGC)
		rec.GCPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	}
	rec.Counts = passCounts(runs, results)
	rec.Packets = make([]uint64, wire.NumKinds)
	rec.Bytes = make([]uint64, wire.NumKinds)
	for i, res := range results {
		r := runRecord{Check: res.Check, Digest: res.Digest, FP: fingerprint(res)}
		if errs[i] != nil {
			r.Err = errs[i].Error()
		}
		rec.Runs = append(rec.Runs, r)
		for k, kc := range res.Stats.Kinds {
			rec.Packets[k] += kc.Packets
			rec.Bytes[k] += kc.Bytes
		}
	}
	return rec, nil
}

// setupRepeats is how many times a pass builds its clusters to time
// set-up; the pass reports the median.
const setupRepeats = 3

// timeSetup returns the median seconds ivy.New takes to build the
// pass's clusters (on tcp-loopback including the listen/dial mesh). A
// tcp cluster is then run with an empty program, which closes its
// sockets.
func timeSetup(runs []run) (float64, error) {
	var xs []float64
	for i := 0; i < setupRepeats; i++ {
		var total time.Duration
		for _, r := range runs {
			t0 := time.Now()
			c := ivy.New(r.cfg)
			total += time.Since(t0)
			if r.cfg.Transport == ivy.TransportTCPLoopback {
				if err := c.Run(func(*ivy.Proc) {}); err != nil {
					return 0, fmt.Errorf("closing set-up cluster: %w", err)
				}
			}
		}
		xs = append(xs, total.Seconds())
	}
	return median(xs), nil
}
