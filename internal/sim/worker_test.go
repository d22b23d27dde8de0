package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// settledGoroutines returns runtime.NumGoroutine() once it has held
// still across many scheduler yields: workers released by earlier tests'
// runs exit asynchronously and must not count towards a baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 1000; still++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// waitGoroutines yields until runtime.NumGoroutine() equals want (workers
// ended by RunUntil exit asynchronously), failing if it never does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 1000000 && runtime.NumGoroutine() != want; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got != want {
		t.Fatalf("NumGoroutine = %d, want %d", got, want)
	}
}

// TestStaleUnparkSkipsReusedWorker: a wakeup scheduled for a fiber that
// has since finished must be dropped even though that fiber's worker now
// runs another fiber; the Fiber, not the goroutine, carries identity.
func TestStaleUnparkSkipsReusedWorker(t *testing.T) {
	e := New(1)
	var c *Fiber
	var resumedAt Time
	a := e.Go("a", func(f *Fiber) { f.Park("a") })
	e.Go("waker", func(f *Fiber) {
		f.Sleep(time.Millisecond)
		a.Unpark() // a finishes; its worker goes idle
		c = e.Go("c", func(f *Fiber) {
			f.Park("c") // on a's worker
			resumedAt = f.Now()
		})
		a.UnparkAt(Time(2 * time.Millisecond)) // stale by then
		f.Sleep(4 * time.Millisecond)
		c.Unpark()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.w != a.w {
		t.Fatal("c did not reuse a's worker; the test no longer covers reuse")
	}
	if want := Time(5 * time.Millisecond); resumedAt != want {
		t.Fatalf("c resumed at %v, want %v (a stale wakeup for a resumed it)", resumedAt, want)
	}
}

//go:noinline
func explodeInPooledFiber() { panic("boom") }

// TestPooledFiberPanicKeepsIdentity: a fiber running on a reused worker
// that panics is reported under its own name with its own stack, and its
// worker ends.
func TestPooledFiberPanicKeepsIdentity(t *testing.T) {
	base := settledGoroutines()
	e := New(1)
	first := e.Go("first", func(*Fiber) {})
	bomb := e.Go("bomb", func(*Fiber) { explodeInPooledFiber() })
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, `fiber "bomb" panicked: boom`) {
				t.Fatalf("panic = %q, want the bomb fiber's name", msg)
			}
			if !strings.Contains(msg, "explodeInPooledFiber") {
				t.Fatalf("panic lost the fiber's own stack:\n%s", msg)
			}
		}()
		_ = e.Run()
		t.Fatal("Run did not panic")
	}()
	if bomb.w != first.w {
		t.Fatal("bomb did not reuse first's worker; the test no longer covers reuse")
	}
	waitGoroutines(t, base)
}

// TestEventPanicInDyingDispatch: a callback that panics while a finished
// fiber's worker runs the dispatcher aborts the run, and the worker —
// already back on the idle list — ends rather than waiting forever.
func TestEventPanicInDyingDispatch(t *testing.T) {
	base := settledGoroutines()
	e := New(1)
	e.Go("short", func(f *Fiber) { f.Sleep(time.Millisecond) })
	e.Schedule(2*time.Millisecond, func() { panic("boom") })
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "event callback panicked: boom") {
				t.Fatalf("panic = %q, want the event-callback message", msg)
			}
		}()
		_ = e.Run()
		t.Fatal("Run did not panic")
	}()
	waitGoroutines(t, base)
}

// TestOnExitReverseOrderOnReusedWorker: exit callbacks of fibers that
// share one worker run in reverse registration order, per fiber.
func TestOnExitReverseOrderOnReusedWorker(t *testing.T) {
	e := New(1)
	var got []string
	var fibers []*Fiber
	for _, name := range []string{"x", "y", "z"} {
		name := name
		fibers = append(fibers, e.Go(name, func(f *Fiber) {
			f.OnExit(func() { got = append(got, name+"1") })
			f.OnExit(func() { got = append(got, name+"2") })
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fibers[1].w != fibers[0].w || fibers[2].w != fibers[0].w {
		t.Fatal("fibers did not share one worker; the test no longer covers reuse")
	}
	if s, want := strings.Join(got, " "), "x2 x1 y2 y1 z2 z1"; s != want {
		t.Fatalf("OnExit order = %q, want %q", s, want)
	}
}

// TestGoexitFinishesFiber: a body ended by runtime.Goexit (t.FailNow
// inside a fiber) finishes like one that returned — exit callbacks run
// and the run goes on — although its worker cannot be reused.
func TestGoexitFinishesFiber(t *testing.T) {
	e := New(1)
	exited, after := false, false
	quitter := e.Go("quitter", func(f *Fiber) {
		f.OnExit(func() { exited = true })
		runtime.Goexit()
	})
	e.Go("after", func(f *Fiber) {
		f.Sleep(time.Millisecond)
		after = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !quitter.Done() || !exited || !after {
		t.Fatalf("done=%v exited=%v after=%v, want all true", quitter.Done(), exited, after)
	}
}

// TestRunLeavesOnlyParkedGoroutines: after Run returns, the only
// goroutines the engine leaves are those of fibers still parked; idle
// workers end with the run.
func TestRunLeavesOnlyParkedGoroutines(t *testing.T) {
	base := settledGoroutines()
	e := New(1)
	const stuck = 3
	for i := 0; i < stuck; i++ {
		e.Go(fmt.Sprintf("stuck%d", i), func(f *Fiber) {
			for j := 0; j < 20; j++ {
				e.Go("short", func(g *Fiber) { g.Sleep(time.Microsecond) })
				f.Sleep(time.Millisecond)
			}
			f.Park("forever")
		})
	}
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	if n := len(e.Parked()); n != stuck {
		t.Fatalf("Parked() lists %d fibers, want %d", n, stuck)
	}
	waitGoroutines(t, base+stuck)
}

// TestEnginesOnSeparateGoroutines steps two engines side by side, as
// internal/parallel does; under -race this proves worker reuse shares no
// state between engines. Both must also produce the same trace.
//
//ivy:hostworld drives two engines from two host goroutines
func TestEnginesOnSeparateGoroutines(t *testing.T) {
	run := func() string {
		e := New(3)
		var sb strings.Builder
		q := NewQueue[int]("q")
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("consumer%d", i), func(f *Fiber) {
				for j := 0; j < 50; j++ {
					v := q.Get(f)
					fmt.Fprintf(&sb, "%d:%d@%v ", i, v, f.Now())
				}
			})
		}
		e.Go("producer", func(f *Fiber) {
			for j := 0; j < 200; j++ {
				e.Go("put", func(g *Fiber) {
					g.Sleep(time.Duration(e.Rand().Intn(5)) * time.Microsecond)
					q.Put(j)
				})
				f.Sleep(time.Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Error(err)
		}
		return sb.String()
	}
	var wg sync.WaitGroup
	out := make([]string, 2)
	for i := range out {
		wg.Add(1)
		//ivyvet:ignore one host goroutine per engine, as internal/parallel runs them
		go func(i int) {
			defer wg.Done()
			out[i] = run()
		}(i)
	}
	wg.Wait()
	if out[0] == "" || out[0] != out[1] {
		t.Fatalf("engines diverged:\n%s\n%s", out[0], out[1])
	}
}

// TestLabelRendersLikeSprintf pins each label shape the simulator parks
// or names fibers with to the fmt.Sprintf text it replaces.
func TestLabelRendersLikeSprintf(t *testing.T) {
	k := testKind(7)
	for _, c := range []struct {
		got  Label
		want string
	}{
		{Text("sleeping"), "sleeping"},
		{Text("100% busy"), "100% busy"},
		{Textf("waiting for %s", "cpu3"), fmt.Sprintf("waiting for %s", "cpu3")},
		{Labelf("call %v -> node %d", k, 5), fmt.Sprintf("call %v -> node %d", k, 5)},
		{Labelf("broadcast-all %v", k), fmt.Sprintf("broadcast-all %v", k)},
		{Labelf("node%d/%v#%d", k, 2, 4096), fmt.Sprintf("node%d/%v#%d", 2, k, 4096)},
		{Labelf("page %d lock on node %d", nil, 17, 2), fmt.Sprintf("page %d lock on node %d", 17, 2)},
		{Labelf("ec wait %#x for %d", nil, 0x4000, -3), fmt.Sprintf("ec wait %#x for %d", uint64(0x4000), int64(-3))},
	} {
		if s := c.got.String(); s != c.want {
			t.Errorf("label = %q, want %q", s, c.want)
		}
	}
}

// testKind stands in for wire.Kind: a small integer with a String method.
type testKind uint8

func (k testKind) String() string { return fmt.Sprintf("Kind%d", uint8(k)) }
