package sim

import (
	"fmt"
	runtimedebug "runtime/debug"
	"time"
)

// Fiber is a process-oriented coroutine scheduled by an Engine. A fiber's
// body runs on a worker goroutine, but the engine guarantees that at most
// one fiber (or event callback) executes at a time; control transfers by
// handing a single scheduling token between goroutines (Engine.dispatch).
// All Fiber methods except Unpark must be called from within the fiber's
// own body.
//
// A Fiber is one per Go call and is never reused, so a stale wakeup for a
// finished fiber (done) is recognized and dropped even after its worker
// has moved on to another fiber.
type Fiber struct {
	eng  *Engine
	name Label
	body func(f *Fiber)
	// w is the worker running the body, bound on the fiber's first
	// dispatch; nil until then.
	w    worker
	done bool

	// parked is set while the fiber waits in yield; why says for what,
	// rendered only by Parked and deadlock reports.
	parked bool
	why    Label

	// prev and next link the engine's live fibers (Engine.liveHead).
	prev, next *Fiber

	// trace is an opaque tracing context (a span ID) that travels with
	// the fiber, the simulation's analogue of a goroutine-local value.
	// Zero means untraced.
	trace uint64

	// onExit callbacks run (in engine context) after the body returns.
	onExit []func()
}

// worker is a goroutine that runs fiber bodies one after another; the
// channel is how the scheduling token reaches it. A worker whose fiber
// finished waits on the engine's idle list for the next fiber to start,
// so a served request does not pay for a fresh goroutine and its stack
// growth. Closing the channel ends the worker.
type worker chan struct{}

// Go creates a fiber named name and schedules its body to start at the
// current virtual time. The body receives the fiber itself so that it can
// sleep, park, and spawn further work.
func (e *Engine) Go(name string, body func(f *Fiber)) *Fiber {
	return e.GoNamed(Text(name), body)
}

// GoNamed is Go with a name rendered only when a report asks for it.
func (e *Engine) GoNamed(name Label, body func(f *Fiber)) *Fiber {
	f := &Fiber{eng: e, name: name, body: body}
	e.live++
	f.next = e.liveHead
	if f.next != nil {
		f.next.prev = f
	}
	e.liveHead = f
	e.scheduleFiberAt(e.now, f)
	return f
}

// unlink takes a finished fiber off the live list and count.
func (e *Engine) unlink(f *Fiber) {
	e.live--
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		e.liveHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	}
	f.prev, f.next = nil, nil
}

// worker returns an idle worker, or starts one when none is idle. The
// idle list is LIFO, so a finishing fiber's own worker — pushed just
// before its dying dispatch — is the one its successor gets.
//
//ivy:hostworld launches the goroutine backing a worker
func (e *Engine) worker() worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return w
	}
	w := make(worker)
	// This is the one sanctioned goroutine launch in the simulated
	// world: the goroutine backing fibers. It runs only under the
	// engine's token handshake (exactly one unit of work executes at
	// any moment), so it adds no scheduling freedom.
	//ivyvet:ignore fiber worker goroutine; serialized by the engine handshake
	go e.work(w)
	return w
}

// work is a worker's loop. A token reaching an idle worker comes with
// the fiber dispatch just bound to it (e.current), whose body it runs;
// when the body returns, the worker goes back on the idle list and
// dispatches on, running the next fiber itself when the next event
// starts one.
//
//ivy:hostworld the worker goroutine's side of the token handshake
func (e *Engine) work(w worker) {
	for range w {
		for {
			f := e.current
			if !e.runBody(f) {
				return // the body panicked: RunUntil re-raises it, the worker ends
			}
			if !e.finish(f, true) {
				break // token handed on: wait idle for the next start
			}
		}
	}
}

// runBody runs f's body, converting a panic into panicMsg for the
// RunUntil caller. It reports whether the body returned normally.
//
//ivy:hostworld returns the token to the RunUntil caller on a fiber panic
func (e *Engine) runBody(f *Fiber) (ok bool) {
	defer func() {
		if ok {
			return
		}
		if r := recover(); r != nil {
			// Carry the failure to the RunUntil caller, which re-panics
			// with the fiber's identity; the worker dies holding nothing.
			f.done = true
			e.unlink(f)
			// Keep the fiber's own stack: the engine re-panics from
			// RunUntil, whose stack says nothing about where in the
			// simulated program the fault happened.
			e.panicMsg = fmt.Sprintf("sim: fiber %q panicked: %v\n%s", f.Name(), r, string(runtimedebug.Stack()))
			e.engineResume <- struct{}{}
			return
		}
		// runtime.Goexit in the body (t.FailNow, say): finish the fiber
		// as if it returned, but keep the worker off the idle list — its
		// goroutine ends when this deferred call returns.
		e.finish(f, false)
	}()
	f.body(f)
	return true
}

// finish retires a fiber whose body has returned, on its worker, which
// still holds the scheduling token: exit callbacks run, the worker goes
// back on the idle list (when reuse is set) and the dispatcher runs one
// last time in dying mode. Pushing the worker before that dispatch, not
// after it has handed the token on, is what keeps the idle list
// token-guarded. Reports whether the worker was bound to the next fiber
// and must run it.
func (e *Engine) finish(f *Fiber, reuse bool) bool {
	f.done = true
	f.body = nil
	e.unlink(f)
	for i := len(f.onExit) - 1; i >= 0; i-- {
		f.onExit[i]()
	}
	if reuse {
		e.idle = append(e.idle, f.w)
	}
	return e.dispatch(f.w, true)
}

// Name returns the fiber's diagnostic name.
func (f *Fiber) Name() string { return f.name.String() }

// Trace returns the fiber's tracing context (0 = untraced).
func (f *Fiber) Trace() uint64 { return f.trace }

// SetTrace installs a tracing context on the fiber. Callers save and
// restore the previous value around nested traced regions.
func (f *Fiber) SetTrace(t uint64) { f.trace = t }

// Engine returns the engine scheduling this fiber.
func (f *Fiber) Engine() *Engine { return f.eng }

// Done reports whether the fiber body has returned.
func (f *Fiber) Done() bool { return f.done }

// OnExit registers fn to run in engine context when the fiber terminates.
// Callbacks run in reverse registration order, like defer.
func (f *Fiber) OnExit(fn func()) { f.onExit = append(f.onExit, fn) }

// Now returns the current virtual time.
func (f *Fiber) Now() Time { return f.eng.now }

// yield gives control back to the engine by running the dispatcher on
// this goroutine. If the next event resumes this same fiber, yield
// returns without a single channel operation or goroutine switch; only a
// transfer to a different fiber (or the end of the run) parks this one.
// The fiber must have arranged to be resumed later (via a scheduled event
// or an Unpark) or it will park forever and eventually surface in a
// deadlock report.
func (f *Fiber) yield(why Label) {
	f.why = why
	f.parked = true
	f.eng.dispatch(f.w, false)
}

// Sleep advances the fiber by d of virtual time. Other events and fibers
// run in the meantime. Sleeping a non-positive duration yields the
// processor without advancing the clock.
func (f *Fiber) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.eng.scheduleFiberAt(f.eng.now.Add(d), f)
	// The wakeup is already scheduled, so the park can never be
	// permanent and the precise duration never reaches a deadlock report.
	f.yield(Text("sleeping"))
}

// Park blocks the fiber until some other simulation code calls Unpark.
// why is shown in deadlock reports.
func (f *Fiber) Park(why string) {
	f.yield(Text(why))
}

// ParkFor is Park with a reason rendered only when a report asks for it.
func (f *Fiber) ParkFor(why Label) {
	f.yield(why)
}

// Unpark schedules f to resume at the current virtual time. It must be
// called from simulation context (another fiber or an event callback),
// never from the parked fiber itself. Unparking a fiber that is not
// parked is a bug in the caller and panics via the engine.
func (f *Fiber) Unpark() {
	f.eng.scheduleFiberAt(f.eng.now, f)
}

// UnparkAt schedules f to resume at absolute time at.
func (f *Fiber) UnparkAt(at Time) {
	f.eng.scheduleFiberAt(at, f)
}
