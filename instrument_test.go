package ivy_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	ivy "repro"
	"repro/internal/apps"
)

// planes selects the instruments one run of profWorkload arms.
type planes struct{ profile, trace, pages, msgs, drace bool }

// planeRun is what one run of profWorkload reports: its virtual results
// and the output of each instrument armed on it.
type planeRun struct {
	elapsed  time.Duration
	stats    ivy.ClusterStats
	lat      ivy.Latency
	digest   uint64
	profile  *ivy.MetricsSnapshot
	perfetto []byte
	pages    []ivy.PageEvent
	msgs     []ivy.MessageEvent
	races    []ivy.RaceReport
}

func runPlanes(t *testing.T, pl planes) planeRun {
	t.Helper()
	var r planeRun
	var perfetto bytes.Buffer
	cfg := ivy.Config{Seed: 5, SharedPages: 512, Profile: pl.profile, DRace: pl.drace}
	if pl.trace {
		cfg.Trace = &ivy.TraceConfig{W: &perfetto}
	}
	c, err := armedProfWorkload(cfg, func(c *ivy.Cluster) {
		if pl.pages {
			c.SetAllPagesTrace(func(ev ivy.PageEvent) { r.pages = append(r.pages, ev) })
		}
		if pl.msgs {
			c.SetMessageTrace(func(ev ivy.MessageEvent) { r.msgs = append(r.msgs, ev) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.elapsed, r.stats, r.lat = c.Elapsed(), c.Snapshot(), c.Latencies()
	r.digest = c.DigestRegion(c.Base(), 512*uint64(c.PageSize()))
	r.profile, r.perfetto, r.races = c.MetricsSnapshot(), perfetto.Bytes(), c.RaceReports()
	return r
}

// sameVirtual fails t unless a and b agree on every virtual result.
func sameVirtual(t *testing.T, what string, a, b planeRun) {
	t.Helper()
	if a.elapsed != b.elapsed || a.digest != b.digest ||
		!reflect.DeepEqual(a.stats, b.stats) || !reflect.DeepEqual(a.lat, b.lat) {
		t.Errorf("%s changed the run: elapsed %v vs %v, digest %#x vs %#x, stats or latencies equal: %v/%v",
			what, a.elapsed, b.elapsed, a.digest, b.digest,
			reflect.DeepEqual(a.stats, b.stats), reflect.DeepEqual(a.lat, b.lat))
	}
}

// TestInstrumentComposition arms the instruments together. The
// profiler, span tracer, page tracer and message tap must leave the
// run's virtual results exactly as unarmed, and each must report what
// it reports armed alone. Adding the race detector on top must match a
// detector-only run: the vector clocks it piggybacks on NotifyReq and
// MigrateReq are its one effect on virtual time.
func TestInstrumentComposition(t *testing.T) {
	off := runPlanes(t, planes{})
	all := runPlanes(t, planes{profile: true, trace: true, pages: true, msgs: true})
	sameVirtual(t, "arming every tracer and the profiler", off, all)
	if all.profile == nil || len(all.perfetto) == 0 || len(all.pages) == 0 || len(all.msgs) == 0 {
		t.Fatalf("an armed instrument reported nothing: profile %v, %d trace bytes, %d page events, %d messages",
			all.profile != nil, len(all.perfetto), len(all.pages), len(all.msgs))
	}
	if alone := runPlanes(t, planes{profile: true}); !reflect.DeepEqual(alone.profile, all.profile) {
		t.Error("the profile differs from the profiler armed alone")
	}
	if alone := runPlanes(t, planes{trace: true}); !bytes.Equal(alone.perfetto, all.perfetto) {
		t.Error("the Perfetto export differs from the span tracer armed alone")
	}
	if alone := runPlanes(t, planes{pages: true}); !reflect.DeepEqual(alone.pages, all.pages) {
		t.Errorf("the page events differ from the page tracer armed alone (%d vs %d events)", len(alone.pages), len(all.pages))
	}
	if alone := runPlanes(t, planes{msgs: true}); !reflect.DeepEqual(alone.msgs, all.msgs) {
		t.Errorf("the message events differ from the tap armed alone (%d vs %d events)", len(alone.msgs), len(all.msgs))
	}

	race := runPlanes(t, planes{drace: true})
	if len(race.races) != 0 {
		t.Fatalf("workload is not drace-clean: %v", race.races)
	}
	every := runPlanes(t, planes{profile: true, trace: true, pages: true, msgs: true, drace: true})
	sameVirtual(t, "arming every instrument over the race detector", race, every)
	if !reflect.DeepEqual(race.races, every.races) {
		t.Errorf("race reports differ from the detector armed alone: %v vs %v", race.races, every.races)
	}
}

// TestInstrumentSeesRCFaults pins that faults on release-consistent
// data pages reach the instrumentation plane: a profiled RC run touches
// pages and its trace holds fault spans, while the run's virtual
// results equal the uninstrumented run's.
func TestInstrumentSeesRCFaults(t *testing.T) {
	par := apps.JacobiParams{N: 256, Iters: 4, Seed: 7}
	cfg := ivy.Config{Processors: 4, Seed: 1, Coherence: ivy.CoherenceRC}
	off, err := apps.RunJacobi(cfg, par)
	if err != nil {
		t.Fatal(err)
	}
	var perfetto bytes.Buffer
	cfg.Profile = true
	cfg.Trace = &ivy.TraceConfig{W: &perfetto}
	on, err := apps.RunJacobi(cfg, par)
	if err != nil {
		t.Fatal(err)
	}
	if on.Metrics == nil || len(on.Metrics.Pages) == 0 {
		t.Fatal("profiled RC run touched no pages")
	}
	if !bytes.Contains(perfetto.Bytes(), []byte(`"read-fault"`)) || !bytes.Contains(perfetto.Bytes(), []byte(`"write-fault"`)) {
		t.Fatal("traced RC run recorded no fault spans")
	}
	on.Metrics = nil
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("instrumenting changed the RC run:\noff %+v\non  %+v", off, on)
	}
}
