package sim

import (
	"testing"
	"time"
)

// TestSleepDoesNotAllocate pins the fiber sleep round trip — schedule,
// yield to the engine, dispatch, resume — at zero allocations once the
// event free list is warm. Sleep is the inner loop of every simulated
// workload; a per-sleep allocation (a closure, a fresh event) would
// dominate hot-path profiles.
func TestSleepDoesNotAllocate(t *testing.T) {
	e := New(1)
	got := -1.0
	e.Go("sleeper", func(f *Fiber) {
		f.Sleep(time.Microsecond) // warm the event free list
		got = testing.AllocsPerRun(200, func() {
			f.Sleep(time.Microsecond)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("fiber sleep allocates %v objects/op", got)
	}
}

// TestParkDoesNotAllocate pins a Park/Unpark round trip with a formatted
// reason — the remote-call and page-lock shapes — at zero allocations:
// the reason is stored unformatted and rendered only by a report.
func TestParkDoesNotAllocate(t *testing.T) {
	e := New(1)
	got := -1.0
	done := false
	parker := e.Go("parker", func(f *Fiber) {
		round := func() {
			f.ParkFor(Labelf("call %v -> node %d", testKind(3), 2))
			f.ParkFor(Labelf("page %d lock on node %d", nil, 17, 2))
		}
		round() // warm the event free list
		got = testing.AllocsPerRun(200, round)
		done = true
	})
	e.Go("waker", func(f *Fiber) {
		for !done {
			f.Sleep(time.Microsecond)
			parker.Unpark()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("park/unpark with a formatted reason allocates %v objects/op", got)
	}
}

// TestSpawnAllocatesOnlyTheFiber pins a steady-state Go → run → exit at
// one allocation, the Fiber itself: the body runs on an idle worker, so
// no goroutine, channel or name string is made.
func TestSpawnAllocatesOnlyTheFiber(t *testing.T) {
	e := New(1)
	got := -1.0
	e.Go("parent", func(f *Fiber) {
		spawn := func() {
			e.Go("child", func(*Fiber) {})
			f.Sleep(time.Microsecond) // the child runs and exits meanwhile
		}
		spawn() // warm: one idle worker, a warm event free list
		got = testing.AllocsPerRun(200, spawn)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got > 1 {
		t.Fatalf("fiber spawn allocates %v objects/op, want at most 1 (the Fiber)", got)
	}
}
