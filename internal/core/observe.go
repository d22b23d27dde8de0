package core

import (
	"fmt"
	"time"

	"repro/internal/drace"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The instrumentation plane. Every coherence event (a fault and the
// phases of its service, an owner-side service, an invalidation, a
// copyset insertion, an ownership hand-off, an eviction), every checked
// access and every synchronization edge is reported to the node's one
// Observer, which fans it out to the armed subscribers: the page
// tracer, the span tracer (internal/trace), the race detector
// (internal/drace) and the coherence profiler (internal/metrics). The
// SVM holds it in obs, nil unless something is armed, and its methods
// are no-ops on a nil receiver, so with the plane off each hook site
// costs one branch. No subscriber touches virtual time or the wire.

// PageEvent is one coherence-state transition of one page on one node,
// as delivered to a page tracer: which protocol site fired and the
// entry's state after it.
type PageEvent struct {
	Time      time.Duration
	Node      ring.NodeID
	Site      string // diskFault, readFault>, readFault<, serveRead, ...
	Page      mmu.PageID
	IsOwner   bool
	Access    mmu.Access
	ProbOwner ring.NodeID
	Dirty     bool
	Resident  bool
	Locked    bool
}

func (e PageEvent) String() string {
	return fmt.Sprintf("[%v] node%d %-14s page%d owner=%v acc=%v prob=%d dirty=%v res=%v locked=%v",
		e.Time, e.Node, e.Site, e.Page, e.IsOwner, e.Access, e.ProbOwner,
		e.Dirty, e.Resident, e.Locked)
}

// PageTracer receives page events; it runs in engine context and must
// not block.
type PageTracer func(PageEvent)

// Instruments names the subscribers of a node's instrumentation plane;
// nil ones are off. Pages receives the transitions of page Page, or of
// every page when AllPages is set; the node's disk and endpoint share
// Spans; Race and Profile are shared by the cluster.
type Instruments struct {
	Pages    PageTracer
	Page     mmu.PageID
	AllPages bool
	Spans    *trace.Collector
	Race     *drace.Detector
	Profile  *metrics.Collector
}

// Checked reports whether an access subscriber is armed. Those hook the
// checked access tails only — the //ivy:hotpath TLB fast paths stay
// call-free — so every access must take the checked path: the facade
// disables the software TLBs, and the checked tails do not refill them.
// The page and span tracers observe protocol events only.
func (in Instruments) Checked() bool { return in.Race != nil || in.Profile != nil }

// Observer is one node's instrumentation plane; nil is the disarmed one.
type Observer struct {
	Instruments
	s *SVM
}

// Instrument arms in on this node, replacing what was armed before.
func (s *SVM) Instrument(in Instruments) {
	s.dsk.SetTracer(in.Spans, int(s.node))
	s.ep.SetTracer(in.Spans)
	s.obs = nil
	if in.Pages != nil || in.Spans != nil || in.Checked() {
		s.obs = &Observer{Instruments: in, s: s}
	}
}

// Observer returns the node's instrumentation plane, nil when nothing
// is armed. Its methods are safe to call either way.
func (s *SVM) Observer() *Observer { return s.obs }

// fillsTLB reports whether a checked access may refill the software
// TLB; see Instruments.Checked.
func (o *Observer) fillsTLB() bool { return o == nil || !o.Checked() }

// event is a bracketed event of one page: a fault, one phase of its
// service, or an owner-side service.
type event uint8

const (
	evRead event = iota
	evWrite
	evUpgrade
	evDisk
	evLocate
	evInval
	evServeRead
	evServeWrite
)

// events gives each bracketed event its span phase and detail, the
// page-tracer sites it reports at begin and end ("" for none), and the
// profiler counter its begin bumps (nil for none).
var events = [...]struct {
	phase      trace.Phase
	detail     string
	begin, end string
	count      func(*metrics.Collector, int)
}{
	evRead:       {trace.PhaseReadFault, "", "readFault>", "readFault<", (*metrics.Collector).ReadFault},
	evWrite:      {trace.PhaseWriteFault, "", "writeFault>", "writeFault<", (*metrics.Collector).WriteFault},
	evUpgrade:    {trace.PhaseUpgrade, "", "", "upgradeFault", (*metrics.Collector).Upgrade},
	evDisk:       {trace.PhaseDiskFault, "", "", "diskFault", nil},
	evLocate:     {trace.PhaseLocate, "", "", "", nil},
	evInval:      {trace.PhaseInval, "", "", "", nil},
	evServeRead:  {trace.PhaseServe, "read", "", "serveRead", nil},
	evServeWrite: {trace.PhaseServe, "write", "", "serveWrite", nil},
}

// mark is an open bracketed event, as end needs it.
type mark struct {
	ev   event
	page mmu.PageID
	span trace.SpanID // 0 when no span was opened
	prev uint64       // the fiber's trace context before span
}

// begin opens event ev of page p on fiber f. A fault opens a root span
// and binds it to f, so the layers below (remop, ring, disk) attribute
// their work to it; any other event opens a child span under f's
// current context, when f has one.
func (o *Observer) begin(f *sim.Fiber, ev event, p mmu.PageID) mark {
	m := mark{ev: ev, page: p}
	if o == nil {
		return m
	}
	d := &events[ev]
	if o.Profile != nil && d.count != nil {
		d.count(o.Profile, int(p))
	}
	o.page(d.begin, p)
	if o.Spans != nil && (d.phase.IsFault() || f.Trace() != 0) {
		m.prev = f.Trace()
		parent := trace.SpanID(m.prev)
		if d.phase.IsFault() {
			parent = 0
		}
		m.span = o.Spans.Begin(int(o.s.node), d.phase, parent, int32(p), d.detail)
		f.SetTrace(uint64(m.span))
	}
	return m
}

// end closes the event m that begin opened on f.
func (o *Observer) end(f *sim.Fiber, m mark) {
	if o == nil {
		return
	}
	if m.span != 0 {
		o.Spans.End(m.span)
		f.SetTrace(m.prev)
	}
	o.page(events[m.ev].end, m.page)
}

// invalSent records n invalidations fanned out for page p.
func (o *Observer) invalSent(p mmu.PageID, n int) {
	if o != nil && o.Profile != nil {
		o.Profile.InvalSent(int(p), n)
	}
}

// invalRecv records an invalidation of page p handled on fiber f (nil
// outside a handler). Called as the handler returns, so the page
// tracer sees the copy's state after it.
func (o *Observer) invalRecv(f *sim.Fiber, p mmu.PageID) {
	if o == nil {
		return
	}
	if o.Spans != nil && f != nil && f.Trace() != 0 {
		o.Spans.Instant(int(o.s.node), trace.PhaseInvalRecv, trace.SpanID(f.Trace()), int32(p), "")
	}
	if o.Profile != nil {
		o.Profile.InvalRecv(int(p))
	}
	o.page("handleInval", p)
}

// copysetAdd records a reader joining page p's copyset.
func (o *Observer) copysetAdd(p mmu.PageID) {
	if o != nil && o.Profile != nil {
		o.Profile.CopysetAdd(int(p))
	}
}

// transfer records this node relinquishing ownership of page p: the
// profiler samples and clears the page's dirty-word map and accounts
// the ping-pong interval. Called exactly at the hand-off (serveWrite).
func (o *Observer) transfer(p mmu.PageID) {
	if o != nil && o.Profile != nil {
		o.Profile.Transfer(int(p))
	}
}

// page reports page p's state at protocol site to the page tracer, if
// one is armed and watching p.
func (o *Observer) page(site string, p mmu.PageID) {
	if o == nil || o.Pages == nil || site == "" || (!o.AllPages && p != o.Page) {
		return
	}
	s := o.s
	e := s.table.Entry(p)
	o.Pages(PageEvent{
		Time:      s.eng.Now().Duration(),
		Node:      s.node,
		Site:      site,
		Page:      p,
		IsOwner:   e.IsOwner,
		Access:    e.Access,
		ProbOwner: e.ProbOwner,
		Dirty:     e.Dirty,
		Resident:  s.pool.Resident(p),
		Locked:    s.table.Locked(p),
	})
}

// access reports a checked access of [addr, addr+n): the one observer
// call of every checked tail. It inlines to one branch when the plane
// is off.
func (o *Observer) access(ctx Ctx, addr, n uint64, write bool) {
	if o != nil {
		o.checkAccess(ctx, addr, n, write)
	}
}

// checkAccess fans an access out to the access subscribers. The race
// detector checks it against the happens-before history of the
// executing process (contexts outside race tracking are skipped) and
// each new report also becomes an instant span; the profiler marks
// written words dirty in the owner's write interval.
func (o *Observer) checkAccess(ctx Ctx, addr, n uint64, write bool) {
	if o.Race != nil {
		if t := ctx.Race(); t != nil {
			var found int
			if write {
				found = o.Race.WriteAccess(t, int(o.s.node), addr, n)
			} else {
				found = o.Race.ReadAccess(t, int(o.s.node), addr, n)
			}
			o.s.st.SVM.RaceChecks++
			o.s.st.SVM.RaceReports += uint64(found)
			if o.Spans != nil && found > 0 {
				reps := o.Race.Reports()
				for _, r := range reps[len(reps)-found:] {
					o.Spans.Instant(r.Node, trace.PhaseRace, 0, int32(r.Page), r.String())
				}
			}
		}
	}
	if write && o.Profile != nil {
		o.Profile.Write(addr, n)
	}
}

// syncWrite reports a test-and-set primitive's store to the lock byte
// at addr: a dirty word for the profiler, and an acquire (set) or
// release (clear) edge for the race detector.
func (o *Observer) syncWrite(ctx Ctx, addr uint64, acquire bool) {
	if o == nil {
		return
	}
	if o.Profile != nil {
		o.Profile.Write(addr, 1)
	}
	if acquire {
		o.Acquire(ctx, addr)
	} else {
		o.Release(ctx, addr)
	}
}

// Acquire records a lock-acquire edge on the sync object at addr: a
// successful TestAndSet, an eventcount Wait/Read observing the value.
// The containing word becomes exempt from data checking.
func (o *Observer) Acquire(ctx Ctx, addr uint64) {
	if o != nil && o.Race != nil {
		o.Race.Acquire(ctx.Race(), addr)
	}
}

// Release records a release edge on the sync object at addr: a lock
// Clear, an eventcount Advance.
func (o *Observer) Release(ctx Ctx, addr uint64) {
	if o != nil && o.Race != nil {
		o.Race.Release(ctx.Race(), addr)
	}
}

// VC snapshots the calling process's vector clock for piggybacking on
// a wire message (eventcount notify). Nil with the detector off or for
// contexts outside race tracking.
func (o *Observer) VC(ctx Ctx) []uint64 {
	if o == nil || o.Race == nil || ctx.Race() == nil {
		return nil
	}
	return ctx.Race().Snapshot()
}

// MarkSync exempts [addr, addr+n) from data-race checking:
// synchronization state (lock bytes, eventcount records) or words the
// program declares benign shared atomics (see Proc.MarkAtomic).
func (o *Observer) MarkSync(addr, n uint64) {
	if o != nil && o.Race != nil {
		o.Race.MarkSync(addr, n)
	}
}
