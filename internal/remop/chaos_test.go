package remop

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestGiveUpPropagatesErrCallFailed pins the satellite contract: a call
// that exhausts maxRetries under total loss surfaces an error matching
// ErrCallFailed (not a bare sentinel of its own), and the give-up is
// counted.
func TestGiveUpPropagatesErrCallFailed(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	r.nw.SetInjector(lossy{r.eng, 1.0})
	var err error
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, err = r.eps[0].Call(f, 1, &wire.Ping{})
	})
	r.run(t, 12*time.Hour)
	if !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed", err)
	}
	if errors.Is(err, ErrNodeDown) {
		t.Fatalf("plain give-up reported as node-down: %v", err)
	}
	if s := r.eps[0].Stats(); s.GiveUps != 1 {
		t.Fatalf("GiveUps = %d, want 1", s.GiveUps)
	}
}

// TestCallFailFastSurfacesErrNodeDown: with a down hint in place, a
// fail-fast call degrades gracefully — ErrNodeDown, which also matches
// ErrCallFailed for callers with pre-chaos error handling.
func TestCallFailFastSurfacesErrNodeDown(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	r.nw.SetNodeDown(1, true)
	r.eps[0].MarkNodeDown(1, true)
	var err error
	doneAt := sim.Time(0)
	r.eng.Go("caller", func(f *sim.Fiber) {
		_, err = r.eps[0].CallFailFast(f, 1, &wire.Ping{})
		doneAt = f.Now()
	})
	r.run(t, time.Hour)
	if !errors.Is(err, ErrNodeDown) || !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrNodeDown wrapping ErrCallFailed", err)
	}
	if doneAt == 0 || doneAt > sim.Time(5*time.Second) {
		t.Fatalf("fail-fast took %v, want well under the give-up schedule", doneAt)
	}
	if s := r.eps[0].Stats(); s.NodeDownFails != 1 {
		t.Fatalf("NodeDownFails = %d, want 1", s.NodeDownFails)
	}
}

// TestPlainCallRidesOutCrash: a plain call to a crashed node must NOT
// fail fast — a served-but-unconfirmed request can hold protocol state
// (a locked manager directory entry) that only this request id can
// release, so the call retransmits with backoff until the node rejoins
// and then completes.
func TestPlainCallRidesOutCrash(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[1].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{Payload: []byte("back")}
	})
	r.nw.SetNodeDown(1, true)
	r.eps[0].MarkNodeDown(1, true)
	r.eng.Schedule(sim.Time(3*time.Second).Duration(), func() {
		r.nw.SetNodeDown(1, false)
		r.eps[0].MarkNodeDown(1, false)
	})
	var got string
	var err error
	r.eng.Go("caller", func(f *sim.Fiber) {
		var reply wire.Msg
		reply, err = r.eps[0].Call(f, 1, &wire.Ping{})
		if err == nil {
			got = string(reply.(*wire.Ping).Payload)
		}
	})
	r.run(t, time.Hour)
	if err != nil {
		t.Fatalf("call across a 3s outage failed: %v", err)
	}
	if got != "back" {
		t.Fatalf("reply = %q", got)
	}
	if s := r.eps[0].Stats(); s.NodeDownFails != 0 {
		t.Fatalf("plain call failed fast: NodeDownFails = %d", s.NodeDownFails)
	}
}

// TestCrashNoticeSetsHintAndRejoinClears: the broadcast notices drive
// every other endpoint's down hints; any direct frame from the node
// also clears its hint.
func TestCrashNoticeSetsHintAndRejoinClears(t *testing.T) {
	r := newRig(t, 3, 1)
	r.eng.Go("driver", func(f *sim.Fiber) {
		r.eps[0].BroadcastNoReply(&wire.CrashNotice{Node: 1})
		f.Sleep(time.Second)
		if !r.eps[2].nodeDown(1) {
			t.Error("crash notice did not set the hint on node 2")
		}
		if r.eps[0].nodeDown(1) {
			// The sender marks explicitly (MarkNodeDown), not via its own
			// broadcast; this rig never called it.
			t.Error("hint set on the notice sender without MarkNodeDown")
		}
		r.eps[0].BroadcastNoReply(&wire.RejoinNotice{Node: 1})
		f.Sleep(time.Second)
		if r.eps[2].nodeDown(1) {
			t.Error("rejoin notice did not clear the hint")
		}
	})
	r.run(t, time.Minute)
}

// TestDownHintExpiresByTTL: a hint whose rejoin notice was lost decays
// on its own, so liveness never depends on any particular notice frame
// arriving.
func TestDownHintExpiresByTTL(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eng.Go("driver", func(f *sim.Fiber) {
		r.eps[0].MarkNodeDown(1, true)
		if !r.eps[0].nodeDown(1) {
			t.Error("hint not set")
		}
		f.Sleep(downTTL + time.Millisecond)
		if r.eps[0].nodeDown(1) {
			t.Error("hint survived its TTL")
		}
	})
	r.run(t, time.Hour)
}

// TestReceivedFrameClearsDownHint: any frame from a supposedly-down
// node proves it up.
func TestReceivedFrameClearsDownHint(t *testing.T) {
	r := newRig(t, 2, 1)
	r.eps[0].SetHandler(wire.KindPing, func(ctx *Ctx, env *wire.Envelope) wire.Msg {
		return &wire.Ping{}
	})
	r.eng.Go("driver", func(f *sim.Fiber) {
		r.eps[0].MarkNodeDown(1, true)
		// Node 1 sends us a request: the hint must drop on receipt.
		r.eng.Go("pinger", func(g *sim.Fiber) {
			_, _ = r.eps[1].Call(g, 0, &wire.Ping{})
		})
		f.Sleep(time.Second)
		if r.eps[0].nodeDown(1) {
			t.Error("hint survived a received frame from the node")
		}
	})
	r.run(t, time.Minute)
}

// TestDropSoftStateKeepsForwardAndReplyCaches: across a simulated
// crash, only down hints are dropped. The forward cache in particular
// must survive — losing it lets a retransmitted request re-execute and
// queue behind the directory lock its own first execution holds.
func TestDropSoftStateKeepsForwardAndReplyCaches(t *testing.T) {
	r := newRig(t, 2, 1)
	ep := r.eps[0]
	ep.forwardCache[cacheKey(1, 7)] = ring.NodeID(1)
	ep.forwardOrder = append(ep.forwardOrder, cacheKey(1, 7))
	ep.replyCache[cacheKey(1, 8)] = &replyEntry{key: cacheKey(1, 8)}
	ep.MarkNodeDown(1, true)
	ep.DropSoftState()
	if _, ok := ep.forwardCache[cacheKey(1, 7)]; !ok {
		t.Error("forward cache dropped across crash")
	}
	if _, ok := ep.replyCache[cacheKey(1, 8)]; !ok {
		t.Error("reply cache dropped across crash")
	}
	if ep.nodeDown(1) {
		t.Error("down hints survived the crash")
	}
}

// TestBackoffSchedule pins the exponential retransmission schedule.
func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		500 * time.Millisecond, time.Second, 2 * time.Second,
		4 * time.Second, 4 * time.Second, 4 * time.Second,
	}
	for retries, w := range want {
		if got := backoffFor(retries); got != w {
			t.Errorf("backoffFor(%d) = %v, want %v", retries, got, w)
		}
	}
	if backoffFor(63) != backoffCap {
		t.Errorf("backoff not capped at high retry counts")
	}
}
