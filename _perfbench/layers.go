package main

// Per-layer metrics: counters summed over a pass's runs, self time of
// the traced pass's spans, CPU profile shares, and the probes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	ivy "repro"
	"repro/internal/apps"
	"repro/internal/stats"
	"repro/internal/wire"
)

// counterMetrics lists the per-pass counter metrics with their units;
// passCounts computes them. All repeat exactly on the simulated ring.
var counterMetrics = []struct{ name, unit string }{
	{"core.read_faults", "count"}, {"core.write_faults", "count"}, {"core.upgrades", "count"},
	{"core.invals", "count"}, {"core.owner_queries", "count"},
	{"core.retries", "count"}, {"core.stall_vsec", "vsec"}, {"core.retry_ratio", "ratio"},
	{"memfs.evictions", "count"}, {"disk.transfers", "count"},
	{"wire.bytes_per_pkt", "B"},
	{"remop.forwards", "count"}, {"remop.broadcasts", "count"},
	{"remop.retransmissions", "count"}, {"remop.retx_ratio", "ratio"},
	{"ring.packets", "count"}, {"ring.net_mb", "MB"}, {"ring.util", "ratio"}, {"ring.drops", "count"},
	{"rc.twins", "count"}, {"rc.diff_commits", "count"}, {"rc.diff_words", "count"},
	{"rc.fetches", "count"}, {"rc.notices", "count"}, {"rc.rebinds", "count"},
	{"rc.redirects", "count"}, {"rc.bytes_vs_best_sc", "ratio"},
	{"tcpnet.retransmissions", "count"},
	{"proc.ctx_switches", "count"}, {"proc.wakeups", "count"},
}

// passCounts sums a pass's virtual-clock results and counters over its
// runs: the two virtual end-to-end metrics and every counterMetrics.
func passCounts(runs []run, results []apps.Result) map[string]float64 {
	c := map[string]float64{}
	var elapsed, busy time.Duration
	var faultSum time.Duration
	var faultN, packets, bytes uint64
	bestSC, rcBytes := ^uint64(0), uint64(0)
	for i, res := range results {
		st := res.Stats
		elapsed += res.Elapsed
		busy += st.WireBusy
		packets += st.Packets
		bytes += st.NetBytes
		l := res.Latency
		for _, h := range []*stats.Hist{&l.ReadFault, &l.WriteFault, &l.Upgrade, &l.DiskFault} {
			faultSum += h.Mean() * time.Duration(h.Count())
			faultN += h.Count()
		}
		n := st.Total()
		c["core.read_faults"] += float64(n.SVM.ReadFaults)
		c["core.write_faults"] += float64(n.SVM.WriteFaults)
		c["core.upgrades"] += float64(n.SVM.LocalUpgrades)
		c["core.invals"] += float64(n.SVM.InvalSent)
		c["core.owner_queries"] += float64(n.SVM.OwnerQueries)
		c["core.retries"] += float64(n.SVM.FaultRetries)
		c["core.stall_vsec"] += n.SVM.FaultStall.Seconds()
		c["memfs.evictions"] += float64(n.Evictions)
		c["disk.transfers"] += float64(n.DiskTransfers())
		c["proc.ctx_switches"] += float64(n.Proc.CtxSwitches)
		c["proc.wakeups"] += float64(n.Proc.Wakeups)
		for _, k := range st.Kinds {
			c["ring.drops"] += float64(k.Drops)
		}
		c["remop.forwards"] += float64(st.Forwards)
		c["remop.broadcasts"] += float64(st.Broadcasts)
		c["remop.retransmissions"] += float64(st.Retransmissions)
		if runs[i].cfg.Transport == ivy.TransportTCPLoopback {
			c["tcpnet.retransmissions"] += float64(st.Retransmissions)
		}
		for _, r := range res.RC {
			c["rc.twins"] += float64(r.TwinsMade)
			c["rc.diff_commits"] += float64(r.DiffCommits)
			c["rc.diff_words"] += float64(r.DiffWords)
			c["rc.fetches"] += float64(r.Fetches)
			c["rc.notices"] += float64(r.NoticesPosted)
			c["rc.rebinds"] += float64(r.Rebinds)
			c["rc.redirects"] += float64(r.Redirects)
		}
		if runs[i].cfg.Coherence == ivy.CoherenceRC {
			rcBytes += st.NetBytes
		} else if st.NetBytes < bestSC {
			bestSC = st.NetBytes
		}
	}
	c["vsec"] = elapsed.Seconds()
	c["fault_ms"] = ratio(float64(faultSum)/1e6, float64(faultN))
	c["core.retry_ratio"] = ratio(c["core.retries"], c["core.read_faults"]+c["core.write_faults"])
	c["remop.retx_ratio"] = ratio(c["remop.retransmissions"], float64(packets))
	c["ring.packets"] = float64(packets)
	c["ring.net_mb"] = float64(bytes) / 1e6
	c["ring.util"] = ratio(busy.Seconds(), elapsed.Seconds())
	c["wire.bytes_per_pkt"] = ratio(float64(bytes), float64(packets))
	if rcBytes > 0 && bestSC != ^uint64(0) {
		c["rc.bytes_vs_best_sc"] = float64(rcBytes) / float64(bestSC)
	}
	return c
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countsOf returns the median over passes of each passCounts value. On
// the simulated ring every pass reads the same, which the checker
// enforces; over TCP they vary with host timing.
func countsOf(passes []passRecord) map[string]float64 {
	out := map[string]float64{}
	for name := range passes[0].Counts {
		out[name] = median(field(passes, func(p passRecord) float64 { return p.Counts[name] }))
	}
	return out
}

// tracedPass is one pass run with the span tracer armed.
type tracedPass struct {
	runS    float64
	results []apps.Result
	errs    []error
	spans   []span // complete spans of all runs, lanes kept apart per run
	self    []float64
}

// runTracedPass runs every run once with Config.Trace writing Perfetto
// JSON, then reads the spans back from it.
func runTracedPass(runs []run) (*tracedPass, error) {
	tp := &tracedPass{}
	for i, r := range runs {
		var buf bytes.Buffer
		cfg := r.cfg
		cfg.Trace = &ivy.TraceConfig{W: &buf}
		t0 := time.Now()
		res, err := r.exec(cfg)
		tp.runS += time.Since(t0).Seconds()
		tp.results = append(tp.results, res)
		tp.errs = append(tp.errs, err)
		if err != nil {
			continue
		}
		spans, err := readSpans(&buf, i)
		if err != nil {
			return nil, fmt.Errorf("%s: reading trace: %w", r.name, err)
		}
		tp.spans = append(tp.spans, spans...)
	}
	tp.self = selfTimes(tp.spans)
	return tp, nil
}

// readSpans decodes the complete ("X") events of a Perfetto export;
// instants have no duration and are skipped. Lanes are keyed by node
// and fault root (pid, tid); runIdx keeps the lanes of runs apart.
func readSpans(r io.Reader, runIdx int) ([]span, error) {
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, err
	}
	var out []span
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			out = append(out, span{name: ev.Name, node: runIdx<<16 | ev.Pid, lane: ev.Tid, start: ev.Ts, dur: ev.Dur})
		}
	}
	return out, nil
}

// spanMetrics derives the traced pass's per-phase numbers, in virtual
// milliseconds: fault latency percentiles and per-layer self time.
func spanMetrics(tp *tracedPass) map[string]float64 {
	out := map[string]float64{}
	dur := map[string][]float64{}
	self := map[string]float64{}
	for i, s := range tp.spans {
		dur[s.name] = append(dur[s.name], s.dur/1e3)
		self[s.name] += tp.self[i] / 1e3
	}
	out["core.read_fault_ms.p50"] = percentile(dur["read-fault"], 50)
	out["core.read_fault_ms.p99"] = percentile(dur["read-fault"], 99)
	out["core.write_fault_ms.p50"] = percentile(dur["write-fault"], 50)
	out["core.write_fault_ms.p99"] = percentile(dur["write-fault"], 99)
	out["core.locate_vms"] = self["locate"]
	for _, ph := range []string{"read-fault", "write-fault", "upgrade", "invalidate", "inval-recv", "locate"} {
		out["core.self_vms"] += self[ph]
	}
	out["disk.vms"] = self["disk-read"] + self["disk-write"]
	out["remop.serve_vms"] = self["serve"]
	out["ring.wire_vms"] = self["wire"]
	return out
}

// spanMetricUnits names spanMetrics' outputs; a workload without a
// traced pass (tcp-loopback) reports them as 0.
var spanMetricUnits = []struct{ name, unit string }{
	{"core.read_fault_ms.p50", "vms"}, {"core.read_fault_ms.p99", "vms"},
	{"core.write_fault_ms.p50", "vms"}, {"core.write_fault_ms.p99", "vms"},
	{"core.locate_vms", "vms"}, {"core.self_vms", "vms"}, {"disk.vms", "vms"}, {"remop.serve_vms", "vms"},
	{"ring.wire_vms", "vms"},
}

// layerMetrics fills out with every per-layer metric: counters and raw
// host figures from the untraced passes (whose CPU profiles add up to
// one), span figures from the traced pass (nil on tcp-loopback, where
// they read 0), and the probes.
func layerMetrics(out map[string]metric, passes []passRecord, traced *passRecord) error {
	counts := countsOf(passes)
	for _, m := range counterMetrics {
		out[m.name] = metric{counts[m.name], m.unit}
	}
	host := func(f func(passRecord) float64) float64 { return median(field(passes, f)) }
	wallS := host(func(p passRecord) float64 { return p.RunS })
	out["bench.passes"] = metric{float64(len(passes)), "count"}
	out["bench.wall_s"] = metric{wallS, "s"}
	out["bench.setup_wall_s"] = metric{host(func(p passRecord) float64 { return p.SetupS }), "s"}
	out["bench.cal_ms"] = metric{host(func(p passRecord) float64 { return p.CalS * 1e3 }), "ms"}
	out["gc.allocs"] = metric{host(func(p passRecord) float64 { return p.Mallocs }), "count"}
	out["gc.cycles"] = metric{host(func(p passRecord) float64 { return p.GCCycles }), "count"}
	out["gc.pause_ms"] = metric{host(func(p passRecord) float64 { return p.GCPauseMS }), "ms"}

	spans, overhead := map[string]float64{}, 0.0
	if traced != nil {
		spans, overhead = traced.Spans, traced.RunS/wallS
	}
	for _, m := range spanMetricUnits {
		out[m.name] = metric{spans[m.name], m.unit}
	}
	out["trace.overhead"] = metric{overhead, "ratio"}

	samples := map[string]int64{}
	var total int64
	for _, p := range passes {
		for mod, n := range p.CPU {
			samples[mod] += n
			total += n
		}
	}
	for mod, pct := range moduleShares(samples) {
		out[mod+".cpu_pct"] = metric{pct, "%"}
	}
	out["cpu.samples"] = metric{float64(total), "count"}
	return probeMetrics(out, passes[0].Packets, passes[0].Bytes)
}

// probeMetrics runs the layer probes, feeding the wire and tcpnet
// probes the workload's packets and payload bytes per message kind.
func probeMetrics(out map[string]metric, packets, bytes []uint64) error {
	seeds, err := seedEnvelopes()
	if err != nil {
		return err
	}
	type probe struct {
		name, unit string
		run        func() (float64, error)
	}
	probes := []probe{
		{"sim.spawn_ns", "ns", probeSpawn},
		{"sim.event_ns", "ns", probeEvent},
		{"core.hit_ns", "ns", func() (float64, error) { return probeAccess(false) }},
		{"core.checked_ns", "ns", func() (float64, error) { return probeAccess(true) }},
		{"core.rfault_us", "us", probeRemoteFault},
		{"memfs.get_ns", "ns", func() (float64, error) { return probePoolGet(), nil }},
		{"mmu.lock_ns", "ns", probePageLock},
		{"wire.codec_ns", "ns", func() (float64, error) { return probeCodec(seeds, packets) }},
		{"ring.send_ns", "ns", func() (float64, error) {
			return probeRingSend(seeds[int(wire.KindReadFaultReq)][0])
		}},
		{"tcpnet.frame_ns", "ns", func() (float64, error) {
			return probeFrame(payloadSizes(seeds, packets, bytes), packets)
		}},
		{"tcpnet.rtt_us", "us", func() (float64, error) {
			return probeTCPRoundTrip(seeds[int(wire.KindPing)][0])
		}},
	}
	for _, p := range probes {
		v, err := p.run()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = metric{v, p.unit}
	}
	return nil
}
