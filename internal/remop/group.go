package remop

import (
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// group joins several pendings into one fiber wakeup: the fiber resumes
// when every member has completed (reply received or given up).
type group struct {
	need  int
	done  int
	fiber *sim.Fiber
	woken bool
}

func (g *group) complete() {
	g.done++
	if g.done >= g.need && !g.woken {
		g.woken = true
		g.fiber.Unpark()
	}
}

// CallMany sends req to every destination in parallel and parks the
// fiber until all have replied. Replies are returned in destination
// order. It is the point-to-point fan-out the write-fault path uses to
// invalidate a copyset; a lost request retransmits only to the node that
// has not answered. An empty destination list returns immediately.
func (ep *Endpoint) CallMany(f *sim.Fiber, dsts []ring.NodeID, req wire.Msg) ([]wire.Msg, error) {
	if len(dsts) == 0 {
		return nil, nil
	}
	g := &group{need: len(dsts), fiber: f}
	ps := make([]*pending, len(dsts))
	for i, d := range dsts {
		if d == ep.id {
			panic("remop: call-many to self")
		}
		p := ep.newPending(f, d, req, 1, false)
		p.group = g
		ps[i] = p
		ep.transmit(p)
	}
	f.ParkFor(sim.Labelf("call-many %v -> %d nodes", req.Kind(), int64(len(dsts))))
	out := make([]wire.Msg, len(dsts))
	var err error
	for i, p := range ps {
		delete(ep.out, p.reqID)
		if len(p.replies) == 0 {
			// Every member must be unregistered before returning, so keep
			// draining; ErrNodeDown (if any member saw it) outranks the
			// generic failure.
			if err == nil || p.nodeDown {
				err = p.failErr()
			}
			continue
		}
		out[i] = p.replies[0].Body
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NotifyReliable sends req to dst and returns immediately; the layer
// retransmits until the destination's (possibly cached) reply arrives,
// but no caller ever observes the reply. It carries the manager
// confirmation messages, which must arrive but whose answer nobody
// waits for.
func (ep *Endpoint) NotifyReliable(dst ring.NodeID, req wire.Msg) {
	if dst == ep.id {
		panic("remop: notify to self")
	}
	p := ep.newPending(nil, dst, req, 1, false)
	ep.transmit(p)
}

// CallRedirect is Call with stuck-recovery: after stuckAfter
// retransmissions without a reply, locate is invoked on the calling
// fiber to find a better destination (e.g. by broadcasting an owner
// query); the same request — same request id, so servers stay
// exactly-once — is then resent there. A reply that races the recovery
// wins. The pattern breaks routing loops left by stale forwarding
// hints.
func (ep *Endpoint) CallRedirect(f *sim.Fiber, dst ring.NodeID, req wire.Msg, stuckAfter int, locate func(*sim.Fiber) (ring.NodeID, bool)) (wire.Msg, error) {
	if dst == ep.id {
		panic("remop: call to self; use the local fast path")
	}
	p := ep.newPending(f, dst, req, 1, false)
	p.stuckAfter = stuckAfter
	ep.transmit(p)
	for {
		f.ParkFor(sim.Labelf("call %v -> node %d (redirectable)", req.Kind(), int64(p.dst)))
		if len(p.replies) > 0 {
			return ep.finish(p)
		}
		if p.failed {
			delete(ep.out, p.reqID)
			return nil, p.failErr()
		}
		// Stuck: relocate. The pending stays registered so a late reply
		// still lands; re-check after the (blocking) location step.
		if nd, ok := locate(f); ok && nd != ep.id {
			p.dst = nd
		}
		if len(p.replies) > 0 {
			return ep.finish(p)
		}
		p.woken = false
		p.stuck = false
		ep.transmit(p)
	}
}
