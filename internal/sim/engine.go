// Package sim implements a deterministic discrete-event simulation engine
// with process-oriented coroutines ("fibers").
//
// The engine owns a virtual clock and a priority queue of events. Exactly
// one unit of work — an event callback or a fiber — executes at any moment,
// so simulation code never needs locks and every run with the same seed is
// bit-for-bit reproducible. Fibers are backed by goroutines but are
// scheduled cooperatively: a single scheduling token travels between
// goroutines, and whichever goroutine holds it runs the dispatch loop
// until control must transfer elsewhere (see Engine.dispatch).
//
// The IVY reproduction uses one fiber per lightweight process and per
// in-flight remote-operation handler, and events for timers and message
// deliveries.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns t expressed in seconds of virtual time.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// event is a scheduled callback. Events with equal time fire in schedule
// order (seq breaks ties), which keeps runs deterministic. The common
// case — resuming a fiber at a time — is represented by the fiber field
// instead of a closure, so the simulation's hottest path (Sleep, Unpark,
// message delivery wakeups) allocates nothing: event structs themselves
// recycle through the engine's free list. An event with both fn and
// fiber nil is cancelled (Every's cancel neutralizes its pending tick in
// place); the dispatcher drops it without counting it or advancing the
// clock.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	fiber *Fiber
}

// Engine is a discrete-event simulator. Create one with New, add initial
// work with Schedule or Go, then call Run. An Engine must not be shared
// between OS threads except through the token handshake it manages
// itself; distinct Engines are fully independent and may run on
// different host cores (internal/parallel exploits this).
type Engine struct {
	now     Time
	seq     uint64
	heap    eventHeap
	nowQ    nowQueue
	rng     *rand.Rand
	stopped bool

	// limit is the active RunUntil horizon; events past it stay queued.
	limit Time

	// running is true while a RunUntil drives the engine — the guard
	// against re-entering the dispatcher from simulation code.
	running bool

	// Fiber bookkeeping. current is the fiber executing right now (nil
	// when an event callback is running). live counts the fibers whose
	// bodies have not returned, linked from liveHead; Parked walks that
	// list for the ones waiting in yield.
	current  *Fiber
	live     int
	liveHead *Fiber

	// idle holds the workers whose fibers finished, LIFO, for the next
	// fiber start to reuse. Like free, it is engine-local and touched
	// only by the token holder; RunUntil ends every idle worker before
	// it returns, so no worker outlives a run.
	idle []worker

	// engineResume wakes the goroutine that called RunUntil when the
	// run ends while a fiber holds the scheduling token (run drained,
	// Stop, horizon, or a forwarded panic).
	engineResume chan struct{}

	// eventCount counts executed events; fiberSwitches counts fiber
	// resumptions. Exposed for engine-level tests and tracing.
	eventCount    uint64
	fiberSwitches uint64

	// panicMsg carries a fiber or event-callback panic back to the
	// RunUntil caller, which re-raises it there.
	panicMsg string

	// free recycles event structs. A deterministic LIFO free list (not a
	// sync.Pool, whose reuse order depends on the runtime) keeps event
	// scheduling allocation-free in steady state without perturbing
	// reproducibility — recycled structs are fully overwritten on reuse.
	free []*event

	// ext, when non-nil, is the external work source of a real-transport
	// run (see External). Nil — the deterministic default — costs one
	// predicted branch per dispatch step.
	ext External
}

// New returns an engine whose random source is seeded with seed.
// The same seed always produces the same simulation.
//
// This is the simulation's single source of randomness: every random
// draw in the simulated world (network jitter, app workloads, manager
// tie-breaks) must come from Rand, never from the package-level
// math/rand functions or a source constructed elsewhere, so that one
// explicit seed replays the whole run bit-for-bit. The determinism
// analyzer (internal/ivyvet) enforces this mechanically — it permits
// rand constructors only here, in internal/sim.
//
//ivy:hostworld allocates the engine-resume channel of the token handshake
func New(seed int64) *Engine {
	return &Engine{
		rng:          rand.New(rand.NewSource(seed)),
		engineResume: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (events or fibers).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.eventCount }

// Switches returns the number of fiber resumptions so far.
func (e *Engine) Switches() uint64 { return e.fiberSwitches }

// Schedule runs fn at time now+d. Scheduling with d <= 0 runs fn as soon
// as the engine returns to its dispatch loop, still in timestamp order.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	e.scheduleFunc(e.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	e.scheduleFunc(at, fn)
}

// scheduleFunc enqueues a callback event and returns it, so Every can
// keep a handle on its pending tick for cancellation. Events at the
// current instant — Unpark, message hand-offs, Schedule with d <= 0 —
// are the bulk of a coherence workload's traffic; they go to the
// same-timestamp FIFO and bypass the heap entirely, so the heap is
// touched only once per timestamp cohort for the work spawned within
// it. FIFO order equals seq order for equal timestamps, so dispatch
// order is unchanged. The routing branch is hand-expanded here and in
// scheduleFiberAt to keep the scheduling path at one call frame.
func (e *Engine) scheduleFunc(at Time, fn func()) *event {
	ev := e.getEvent(at)
	ev.fn = fn
	if ev.at == e.now {
		e.nowQ.push(ev)
	} else {
		e.heap.push(ev)
	}
	return ev
}

// scheduleFiberAt schedules fiber f to be resumed at time at — the
// closure-free fast path behind Sleep, Unpark, and Go.
func (e *Engine) scheduleFiberAt(at Time, f *Fiber) {
	ev := e.getEvent(at)
	ev.fiber = f
	if ev.at == e.now {
		e.nowQ.push(ev)
	} else {
		e.heap.push(ev)
	}
}

// getEvent takes an event struct off the free list (or allocates one),
// stamped with the clamped time and the next sequence number.
func (e *Engine) getEvent(at Time) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		ev.at, ev.seq = at, e.seq
		return ev
	}
	return &event{at: at, seq: e.seq}
}

// putEvent recycles a dispatched event. Reference fields are cleared so
// the free list never retains closures or fibers.
func (e *Engine) putEvent(ev *event) {
	ev.fn = nil
	ev.fiber = nil
	e.free = append(e.free, ev)
}

// pending reports how many scheduled events remain.
func (e *Engine) pending() int { return e.heap.len() + e.nowQ.len() }

// Stop makes Run return after the current event or fiber step completes.
func (e *Engine) Stop() { e.stopped = true }

// Every runs fn now+d, now+2d, ... until the returned cancel function is
// called or the engine stops. fn runs in event context (no fiber).
// Cancelling neutralizes the pending tick in place: the dispatcher drops
// it without executing it, counting it, or advancing the clock, so a
// cancelled timer leaves no trace in Events() or in the run's end time.
func (e *Engine) Every(d time.Duration, fn func()) (cancel func()) {
	if d <= 0 {
		panic("sim: Every with non-positive interval")
	}
	var st struct {
		stopped bool
		ev      *event
		seq     uint64
	}
	var tick func()
	tick = func() {
		if st.stopped || e.stopped {
			return
		}
		fn()
		// Re-check: fn may have cancelled its own timer (or stopped the
		// engine), in which case no next tick must be scheduled.
		if st.stopped || e.stopped {
			return
		}
		st.ev = e.scheduleFunc(e.now.Add(d), tick)
		st.seq = st.ev.seq
	}
	st.ev = e.scheduleFunc(e.now.Add(d), tick)
	st.seq = st.ev.seq
	return func() {
		st.stopped = true
		// The seq check proves the struct is still our pending tick and
		// not a recycled reincarnation; the fn check skips a tick that
		// already dispatched (its struct sits cleared on the free list).
		if st.ev != nil && st.ev.seq == st.seq && st.ev.fn != nil {
			st.ev.fn = nil
			st.ev = nil
		}
	}
}

// Run executes events in timestamp order until the event queue is empty
// and no fiber is runnable, or Stop is called. It returns an error if
// live fibers remain parked with nothing left to wake them (a deadlock in
// the simulated system).
func (e *Engine) Run() error {
	return e.RunUntil(Time(1<<63 - 1))
}

// RunUntil is Run with a time horizon: events scheduled after limit are
// left in the queue and the clock stops at the last executed event.
//
//ivy:hostworld ends the idle worker goroutines of the run
func (e *Engine) RunUntil(limit Time) error {
	if e.running || e.current != nil {
		panic("sim: Run called from inside the simulation")
	}
	e.running = true
	e.limit = limit
	e.dispatch(nil, false)
	// If the run ended while a fiber held the token, current still names
	// it; clear so a later RunUntil passes the re-entrancy guard.
	e.current = nil
	e.running = false
	for i, w := range e.idle {
		close(w)
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
	if e.panicMsg != "" {
		panic(e.panicMsg)
	}
	if !e.stopped && e.live > 0 && e.pending() == 0 {
		return fmt.Errorf("sim: deadlock at %v: %d fiber(s) parked: %s",
			e.now, e.live, strings.Join(e.Parked(), "; "))
	}
	return nil
}

// dispatch is the engine's scheduler loop, run by whichever goroutine
// currently holds the scheduling token: the RunUntil caller (self ==
// nil) or the worker of a fiber that just yielded (self != nil) or
// finished (dying). It executes events in (at, seq) order until one of:
//
//   - the next event resumes a fiber running on self: return true, and
//     the caller continues its fiber body with zero channel operations —
//     a sleeping fiber whose wakeup is the next event never leaves its
//     goroutine. For a dying caller, whose worker is back on the idle
//     list, this is the next fiber to start being bound to that same
//     worker: the worker runs it without a goroutine switch;
//   - the next event resumes another fiber: hand the token over with a
//     single channel send (one scheduler round trip, not the two of a
//     yield-to-central-loop design) and park until resumed in turn;
//   - the run ends (queue drained, Stop, horizon): return the token to
//     the RunUntil caller.
//
// A fiber's first dispatch binds it to a worker, the most recently idle
// one or else a new one. Determinism is untouched: exactly one goroutine
// holds the token at any moment, and the event order is the same total
// (at, seq) order as ever — which goroutine runs a fiber, and how many
// switches an event costs, never decides what runs next.
//
// The result matters only to a dying caller: false means the token went
// elsewhere, and the worker waits idle.
//
//ivy:hostworld token-handoff channel handshake between fiber goroutines
func (e *Engine) dispatch(self worker, dying bool) bool {
	for !e.stopped {
		// With an external source installed (real-transport runs only),
		// pull injected work in before choosing the next event.
		if e.ext != nil {
			e.ext.Drain(e.injectExternal)
		}
		// Extract the globally next event in (at, seq) order from the
		// two queues. The FIFO's head, when present, is always at the
		// current timestamp, so the heap wins only with an equal-time
		// event scheduled earlier (smaller seq) or — impossible during
		// a run, but harmless — a strictly earlier time. The peeks
		// inline; the heap is popped only when it actually wins.
		ev := e.nowQ.peek()
		if ev == nil {
			ev = e.heap.pop()
		} else if top := e.heap.top(); top != nil &&
			(top.at < ev.at || (top.at == ev.at && top.seq < ev.seq)) {
			ev = e.heap.pop()
		} else {
			e.nowQ.pop()
		}
		if ev == nil {
			// Externally-driven runs park here instead of draining: live
			// fibers may be waiting on frames a remote process has yet to
			// send. Wait returns on injection, pacing, or source close;
			// the horizon still bounds the run.
			if e.ext != nil && e.live > 0 && e.ext.Now() < e.limit {
				e.ext.Wait(e.limit)
				continue
			}
			break
		}
		fn, fb := ev.fn, ev.fiber
		if fn == nil && fb == nil {
			// Cancelled (a neutralized Every tick): vanish without
			// counting, without advancing the clock.
			e.putEvent(ev)
			continue
		}
		if ev.at > e.limit {
			// Keep it for a future RunUntil with a later horizon.
			e.heap.push(ev)
			break
		}
		if e.ext != nil && ev.at > e.ext.Now() {
			// Host pacing: the event is in this run's horizon but ahead
			// of the host clock. Put it back and wait — injections
			// arriving meanwhile run first, at earlier virtual times.
			e.heap.push(ev)
			e.ext.Wait(ev.at)
			continue
		}
		e.now = ev.at
		e.eventCount++
		// Recycle the struct before dispatching: the callback may
		// schedule (and thus reuse) events itself.
		e.putEvent(ev)
		if fb == nil {
			e.current = nil
			if self == nil {
				fn() // a panic here propagates raw from RunUntil
			} else if !e.callEvent(fn) {
				// The callback panicked on a fiber's goroutine: forward
				// the message to the RunUntil caller. A dying caller's
				// worker is on the idle list, which RunUntil empties,
				// ending it; a live fiber's goroutine is abandoned (its
				// body must not unwind — that would run user defers for
				// a failure that is not its own).
				e.engineResume <- struct{}{}
				if dying {
					return false
				}
				<-self // never resumed; the run is aborting
				return false
			}
			continue
		}
		if fb.done {
			continue // stale wakeup for a terminated fiber
		}
		e.fiberSwitches++
		fb.parked = false
		e.current = fb
		if fb.w == nil {
			fb.w = e.worker() // first dispatch: start the body
		}
		if fb.w == self {
			return true // own wakeup: continue on this goroutine
		}
		fb.w <- struct{}{}
		if dying {
			return false // finished fiber: hand off, the worker waits idle
		}
		if self == nil {
			// The RunUntil caller parks until the run ends elsewhere.
			<-e.engineResume
			return false
		}
		<-self
		return true
	}
	// Run over: queue drained, horizon reached, or Stop. Return the
	// token to the RunUntil caller if a fiber holds it.
	if self == nil {
		return false
	}
	e.engineResume <- struct{}{}
	if dying {
		return false
	}
	// Park until a future RunUntil resumes this fiber again.
	<-self
	return true
}

// callEvent runs an event callback on a fiber's goroutine, converting a
// panic into panicMsg for the RunUntil caller to re-raise. Reports
// whether the callback completed normally.
func (e *Engine) callEvent(fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.panicMsg = fmt.Sprintf("sim: event callback panicked: %v", r)
		}
	}()
	fn()
	return true
}

// Current returns the fiber executing right now, or nil when the engine is
// running a plain event callback.
func (e *Engine) Current() *Fiber { return e.current }

// Parked returns a sorted description of every live parked fiber — a
// diagnostic for stuck simulations whose event queues never drain (e.g.
// because periodic timers keep firing). Names and reasons are rendered
// here, not when the fibers parked.
func (e *Engine) Parked() []string {
	var out []string
	for f := e.liveHead; f != nil; f = f.next {
		if f.parked {
			out = append(out, f.Name()+" ("+f.why.String()+")")
		}
	}
	sort.Strings(out)
	return out
}
