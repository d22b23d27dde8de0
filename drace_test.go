package ivy

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// plantedRace is the racedemo bug in miniature: a writer fills data
// words and raises a plain flag word; a reader spins on the flag and
// consumes the data. Page coherence makes the reader see the values,
// but no program-level synchronization (eventcount, lock, spawn/join)
// orders the accesses — exactly what the detector must report.
func plantedRace(seed int64) []RaceReport {
	return runPlantedRace(Config{Processors: 2, Seed: seed, DRace: true}).RaceReports()
}

// runPlantedRace runs the planted race on a cluster built from cfg.
func runPlantedRace(cfg Config) *Cluster {
	c := New(cfg)
	err := c.Run(func(p *Proc) {
		const words = 8
		buf := p.MustMalloc(8 * (words + 1))
		flag := buf + 8*words
		p.WriteU64(flag, 0)

		done := p.NewEventcount(2)
		p.CreateOn(1, func(q *Proc) {
			for q.ReadU64(flag) == 0 {
				q.Sleep(time.Millisecond)
			}
			for i := uint64(0); i < words; i++ {
				q.ReadU64(buf + 8*i)
			}
			done.Advance(q)
		}, WithName("reader"))

		for i := uint64(0); i < words; i++ {
			p.WriteU64(buf+8*i, i+1)
		}
		p.WriteU64(flag, 1) // plain write: the planted race
		done.Wait(p, 1)
	})
	if err != nil {
		panic(err)
	}
	return c
}

// TestDRacePlantedRaceDeterministic requires the detector to catch the
// planted race, and to produce the identical report list — same words,
// same threads, same virtual timestamps, same order — on every run of
// the same (seed, config). Three runs guard against any map-order or
// allocation-order leak into reporting; running them concurrently on
// separate host cores additionally pins that detector state is
// per-cluster (a process-global detector table would cross-talk here).
func TestDRacePlantedRaceDeterministic(t *testing.T) {
	const seed = 7
	runs := parallel.Map(parallel.Workers(0), 3, func(int) []RaceReport {
		return plantedRace(seed)
	})
	first := runs[0]
	if len(first) == 0 {
		t.Fatal("planted race not detected")
	}
	for run, got := range runs[1:] {
		if len(got) != len(first) {
			t.Fatalf("run %d: %d reports, first run had %d", run+2, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d report %d differs:\n  first: %v\n  this:  %v", run+2, i, got[i], first[i])
			}
		}
	}
}

// TestDRaceReportsTraced pins the detector's feed into the span
// tracer: armed together, every report also lands in the trace as a
// race instant on the accessing node at the access's virtual time, and
// the reports equal the untraced run's.
func TestDRaceReportsTraced(t *testing.T) {
	want := plantedRace(7)
	c := runPlantedRace(Config{Processors: 2, Seed: 7, DRace: true, Trace: &TraceConfig{}})
	if got := c.RaceReports(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tracing changed the race reports:\n  got:  %v\n  want: %v", got, want)
	}
	var spans []trace.Span
	for _, sp := range c.TraceCollector().Spans() {
		if sp.Phase == trace.PhaseRace {
			spans = append(spans, sp)
		}
	}
	if len(spans) != len(want) {
		t.Fatalf("%d race spans for %d reports", len(spans), len(want))
	}
	for i, r := range want {
		sp := spans[i]
		if sp.Node != r.Node || sp.Start != r.Time || sp.End != r.Time || sp.Page != int32(r.Page) || sp.Detail != r.String() {
			t.Errorf("race span %d = %+v, want an instant for %v", i, sp, r)
		}
	}
}

// TestDRaceOffReportsNothing pins the off-by-default contract: the same
// racy program with DRace unset performs zero race checks and returns
// no reports.
func TestDRaceOffReportsNothing(t *testing.T) {
	c := New(Config{Processors: 2, Seed: 7})
	err := c.Run(func(p *Proc) {
		a := p.MustMalloc(16)
		done := p.NewEventcount(2)
		p.CreateOn(1, func(q *Proc) {
			q.WriteU64(a, 1)
			done.Advance(q)
		})
		p.WriteU64(a+8, 2)
		done.Wait(p, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RaceReports(); got != nil {
		t.Fatalf("detector off but RaceReports() = %v", got)
	}
	if n := c.Snapshot().Total().SVM.RaceChecks; n != 0 {
		t.Fatalf("detector off but %d accesses were race-checked", n)
	}
}
