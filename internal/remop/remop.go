// Package remop implements IVY's remote operation layer: a simple
// request/reply mechanism ("simple RPC") over the ring with three
// features the shared virtual memory system needs beyond plain RPC:
//
//   - Forwarding: a request can travel processor 1 → 2 → 3 → … → k, with
//     processor k performing the operation and replying directly to
//     processor 1, no intermediate replies. The dynamic distributed
//     manager's probOwner chains are built on this.
//
//   - Broadcast with three reply schemes: reply-from-any (locating page
//     owners), reply-from-all (invalidations), and no-reply (scattering
//     approximate scheduling information).
//
//   - Retransmission that "resends replies only when necessary": each
//     node caches its recent replies, a duplicate request is answered
//     from the cache without re-executing the operation, and a periodic
//     half-second check (done by the null process in IVY) retransmits
//     outstanding requests.
//
// Every envelope piggybacks a one-byte load hint used by the passive
// load-balancing algorithm in internal/proc.
package remop

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Handler services one request kind. It runs on its own fiber with the
// node's CPU held for the configured handler cost. Returning a non-nil
// message sends it as the reply; returning nil sends no reply (the
// request was forwarded, or this node declines a broadcast).
type Handler func(ctx *Ctx, env *wire.Envelope) wire.Msg

// Ctx gives a handler access to its endpoint and the forwarding
// mechanism.
type Ctx struct {
	ep    *Endpoint
	fiber *sim.Fiber
	env   *wire.Envelope
}

// Endpoint returns the endpoint servicing the request.
func (c *Ctx) Endpoint() *Endpoint { return c.ep }

// Fiber returns the fiber the handler runs on, for blocking operations.
func (c *Ctx) Fiber() *sim.Fiber { return c.fiber }

// Gate decides at delivery time (engine context, non-blocking) whether
// this node participates in a broadcast request. Only the instantaneous
// page owner should serve a broadcast fault: deciding at delivery keeps
// "at most one server per transmission" exact, because all stations see
// one broadcast in a single engine step.
type Gate func(env *wire.Envelope) bool

// Forward re-sends the current request to dst, which will reply directly
// to the originator. The handler must return nil after forwarding. The
// hop is recorded so retransmitted duplicates repeat it.
func (c *Ctx) Forward(dst ring.NodeID) {
	if dst == c.ep.id {
		panic("remop: forward to self")
	}
	c.ep.recordForward(cacheKey(c.env.Origin, c.env.ReqID), dst)
	c.ep.stats.Forwards++
	span := c.ep.spanOf(c.env)
	if span != 0 {
		c.ep.trc.Instant(int(c.ep.id), trace.PhaseHop, span, trace.NoPage,
			fmt.Sprintf("→node%d", dst))
	}
	fwd := *c.env
	fwd.Sender = uint16(c.ep.id)
	fwd.Flags |= wire.FlagForwarded
	fwd.LoadHint = c.ep.loadHint()
	c.ep.nw.Send(&ring.Packet{
		Src:     c.ep.id,
		Dst:     dst,
		Payload: fwd.Marshal(),
		Trace:   uint64(span),
	})
}

// Stats counts endpoint activity.
type Stats struct {
	RequestsSent     uint64
	RepliesReceived  uint64
	RequestsServed   uint64
	RepliesSent      uint64
	Forwards         uint64
	Broadcasts       uint64
	Retransmissions  uint64
	DuplicatesServed uint64 // duplicate requests answered from the reply cache
	DuplicatesFwd    uint64 // duplicate requests re-forwarded along the recorded path
	DuplicatesBusy   uint64 // duplicates ignored because execution is in progress
	GateDeclined     uint64 // broadcast requests declined by a delivery gate
	GiveUps          uint64 // requests failed after exhausting maxRetries
	NodeDownFails    uint64 // requests failed fast on a down-destination hint
}

// pending tracks one outstanding request at the caller.
type pending struct {
	reqID   uint32
	dst     ring.NodeID // Broadcast for broadcasts
	payload []byte
	fiber   *sim.Fiber
	want    int // replies needed before the fiber resumes
	replies []*wire.Envelope
	sentAt  sim.Time
	retries int
	// woken guards against double-unpark when a reply and the
	// retransmission give-up path race within one engine step.
	woken bool
	// stuckAfter > 0 arms stuck-recovery: after that many retransmissions
	// the caller is woken with stuck=true to relocate the destination.
	stuckAfter int
	stuck      bool
	failed     bool
	// failFast opts this pending into failing with ErrNodeDown when the
	// destination is hinted down, instead of retransmitting through the
	// outage. Safe only for requests whose abandonment leaves no server
	// state behind (see CallFailFast); protocol calls never set it.
	failFast bool
	// nodeDown records that the failure was a fast-fail on a down
	// destination, so the caller sees ErrNodeDown instead of a generic
	// retransmission give-up.
	nodeDown bool
	// responders tracks who replied, so BroadcastAll retransmission can
	// target only the missing nodes.
	responders map[ring.NodeID]bool
	// group, when non-nil, aggregates this pending into a CallMany batch;
	// the shared fiber wakes when every member completes.
	group *group
	// trace is the span this request serves (0 = untraced); stamped on
	// every transmission, including retransmissions.
	trace trace.SpanID
}

// failErr maps a failed pending to its error.
func (p *pending) failErr() error {
	if p.nodeDown {
		return ErrNodeDown
	}
	return ErrCallFailed
}

// Endpoint is one node's attachment to the remote operation layer.
type Endpoint struct {
	eng   *sim.Engine
	nw    ring.Transport
	id    ring.NodeID
	cpu   *sim.Resource
	costs model.Costs

	handlers map[wire.Kind]Handler
	gates    map[wire.Kind]Gate
	nextReq  uint32
	out      map[uint32]*pending
	// retransScratch is retransmitCheck's reusable sorted-key buffer.
	retransScratch []uint32

	// replyCache holds recent replies keyed by (origin, reqID) so
	// duplicate requests are answered without re-execution. inProgress
	// suppresses duplicates that arrive while the first execution runs.
	// forwardCache remembers where a request was forwarded so that a
	// retransmitted duplicate follows the same path to the node holding
	// the cached reply, even after probOwner hints moved on.
	replyCache    map[uint64]*replyEntry
	cacheOrder    []uint64
	inProgress    map[uint64]bool
	replyCacheCap int
	forwardCache  map[uint64]ring.NodeID
	forwardOrder  []uint64

	// loads is this node's view of every other node's load hint, updated
	// from each received envelope.
	loads       []uint8
	loadFn      func() uint8
	deliverHook func(*wire.Envelope) // test/trace hook, may be nil

	// down holds per-node down-hint expiry times (zero = not down),
	// lazily allocated. A hint is set by a CrashNotice or MarkNodeDown,
	// cleared by a RejoinNotice, by receiving any frame from the node, or
	// by the TTL expiring — so a lost rejoin notice costs bounded
	// latency, never liveness.
	down []sim.Time

	stats Stats
	trc   *trace.Collector
}

type replyEntry struct {
	key     uint64
	payload []byte
	dst     ring.NodeID
}

// Option configures an Endpoint.
type Option func(*Endpoint)

// WithReplyCacheCap sets how many replies are retained for duplicate
// suppression (default 32).
func WithReplyCacheCap(n int) Option {
	return func(ep *Endpoint) { ep.replyCacheCap = n }
}

// retransmitPeriod matches the paper: the null process "checks all the
// outgoing channels every half second when there is nothing to do".
const retransmitPeriod = 500 * time.Millisecond

// maxRetries bounds retransmission before a call fails; with a lossless
// network it is never reached.
const maxRetries = 64

// backoffCap bounds the exponential retransmission backoff. The first
// retry still fires after one retransmitPeriod (matching the paper's
// half-second channel check); subsequent gaps double up to the cap, so a
// node sending into a crashed peer's silence backs off instead of
// saturating the shared ring.
const backoffCap = 8 * retransmitPeriod

// backoffFor returns how long a request must have been outstanding
// before retry number retries+1 is sent.
func backoffFor(retries int) time.Duration {
	if retries >= 4 {
		return backoffCap
	}
	return retransmitPeriod << uint(retries)
}

// downTTL bounds how long a down hint persists without confirmation.
const downTTL = 20 * retransmitPeriod

// ErrCallFailed reports a request that exhausted its retransmissions.
var ErrCallFailed = errors.New("remop: request failed after retransmissions")

// ErrNodeDown reports a request failed fast because its destination is
// known to be crashed. It wraps ErrCallFailed so existing
// errors.Is(err, ErrCallFailed) checks keep matching; callers wanting
// the graceful-degradation path test errors.Is(err, ErrNodeDown).
var ErrNodeDown = fmt.Errorf("remop: destination node down: %w", ErrCallFailed)

// NewEndpoint attaches a node to the network. cpu is the node's processor
// resource, shared with the process scheduler; loadFn supplies the load
// hint stamped on every outgoing envelope.
func NewEndpoint(eng *sim.Engine, nw ring.Transport, id ring.NodeID, cpu *sim.Resource, costs model.Costs, loadFn func() uint8, opts ...Option) *Endpoint {
	ep := &Endpoint{
		eng:           eng,
		nw:            nw,
		id:            id,
		cpu:           cpu,
		costs:         costs,
		handlers:      make(map[wire.Kind]Handler),
		gates:         make(map[wire.Kind]Gate),
		out:           make(map[uint32]*pending),
		replyCache:    make(map[uint64]*replyEntry),
		inProgress:    make(map[uint64]bool),
		replyCacheCap: 128,
		forwardCache:  make(map[uint64]ring.NodeID),
		loads:         make([]uint8, nw.Size()),
		loadFn:        loadFn,
	}
	for _, o := range opts {
		o(ep)
	}
	// The fault-plane notices are part of the layer itself, not an
	// application protocol, so their handlers are built in (installed
	// directly, leaving SetHandler's double-install check meaningful for
	// protocol kinds). Both arrive as no-reply broadcasts and must not
	// block.
	ep.handlers[wire.KindCrashNotice] = func(_ *Ctx, env *wire.Envelope) wire.Msg {
		if n := ring.NodeID(env.Body.(*wire.CrashNotice).Node); n != ep.id {
			ep.MarkNodeDown(n, true)
		}
		return nil
	}
	ep.handlers[wire.KindRejoinNotice] = func(_ *Ctx, env *wire.Envelope) wire.Msg {
		if n := ring.NodeID(env.Body.(*wire.RejoinNotice).Node); n != ep.id {
			ep.MarkNodeDown(n, false)
		}
		return nil
	}
	nw.Attach(id, ep.receive)
	ep.scheduleRetransmitCheck()
	return ep
}

// MarkNodeDown sets (isDown=true) or clears a down hint for node id. A
// set hint expires after downTTL and is also cleared by any frame
// received from id.
func (ep *Endpoint) MarkNodeDown(id ring.NodeID, isDown bool) {
	if ep.down == nil {
		if !isDown {
			return
		}
		ep.down = make([]sim.Time, ep.nw.Size())
	}
	if isDown {
		ep.down[id] = ep.eng.Now().Add(downTTL)
	} else {
		ep.down[id] = 0
	}
}

// nodeDown reports whether a live (unexpired) down hint exists for id.
func (ep *Endpoint) nodeDown(id ring.NodeID) bool {
	return ep.down != nil && ep.down[id] > ep.eng.Now()
}

// DropSoftState models the state a node loses across a crash: only the
// down hints, which are stale after an outage the node itself slept
// through. Everything else has correctness weight and survives, per the
// fail-stutter crash model (a NIC outage, not a memory loss): page
// tables, outstanding requests (their fibers are still parked and
// recover by retransmission), the reply cache (a lost cached reply
// could orphan a page whose old owner already relinquished it), and —
// easy to misjudge as soft — the forward cache. A forward record is
// what makes a retransmitted request repeat its recorded hop instead of
// re-executing; the first execution of a fault request can leave a
// manager directory entry locked until the origin's confirmation, and a
// re-execution would queue on that very lock, wedging the page forever.
func (ep *Endpoint) DropSoftState() {
	if ep.down != nil {
		clear(ep.down)
	}
}

// ID returns the node this endpoint belongs to.
func (ep *Endpoint) ID() ring.NodeID { return ep.id }

// ClusterSize returns the number of nodes on the network.
func (ep *Endpoint) ClusterSize() int { return ep.nw.Size() }

// Stats returns a snapshot of the endpoint's counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// LoadHintOf returns the most recently observed load hint for node id.
func (ep *Endpoint) LoadHintOf(id ring.NodeID) uint8 { return ep.loads[id] }

// SetHandler installs the handler for requests of kind k.
func (ep *Endpoint) SetHandler(k wire.Kind, h Handler) {
	if _, dup := ep.handlers[k]; dup {
		panic(fmt.Sprintf("remop: handler for %v installed twice on node %d", k, ep.id))
	}
	ep.handlers[k] = h
}

// SetGate installs a delivery-time participation check for broadcast
// requests of kind k. Gates run in engine context and must not block.
func (ep *Endpoint) SetGate(k wire.Kind, g Gate) {
	if _, dup := ep.gates[k]; dup {
		panic(fmt.Sprintf("remop: gate for %v installed twice on node %d", k, ep.id))
	}
	ep.gates[k] = g
}

// recordForward remembers a forwarding hop for duplicate replay, bounded
// like the reply cache.
func (ep *Endpoint) recordForward(key uint64, dst ring.NodeID) {
	if _, exists := ep.forwardCache[key]; !exists {
		ep.forwardOrder = append(ep.forwardOrder, key)
	}
	ep.forwardCache[key] = dst
	for len(ep.forwardOrder) > ep.replyCacheCap {
		old := ep.forwardOrder[0]
		ep.forwardOrder = ep.forwardOrder[1:]
		delete(ep.forwardCache, old)
	}
}

// SetDeliverHook installs a tap invoked for every received envelope,
// before processing. Used by tracing and tests.
func (ep *Endpoint) SetDeliverHook(fn func(*wire.Envelope)) { ep.deliverHook = fn }

// SetTracer installs a span collector: requests sent by traced fibers
// carry their fault span across the wire (via the collector's request
// map, not the wire format), forwarding hops are recorded, and handler
// fibers at the serving node inherit the span.
func (ep *Endpoint) SetTracer(c *trace.Collector) { ep.trc = c }

// spanOf returns the span an in-flight request belongs to (0 when
// untraced or tracing is off).
func (ep *Endpoint) spanOf(env *wire.Envelope) trace.SpanID {
	if ep.trc == nil {
		return 0
	}
	return ep.trc.RequestSpan(env.Origin, env.ReqID)
}

func (ep *Endpoint) loadHint() uint8 {
	if ep.loadFn == nil {
		return 0
	}
	return ep.loadFn()
}

func cacheKey(origin uint16, reqID uint32) uint64 {
	return uint64(origin)<<32 | uint64(reqID)
}

// Call sends req to dst and parks the fiber until the reply arrives,
// retransmitting as needed. The reply may come from a node other than dst
// when the request is forwarded along an ownership chain.
func (ep *Endpoint) Call(f *sim.Fiber, dst ring.NodeID, req wire.Msg) (wire.Msg, error) {
	if dst == ep.id {
		panic("remop: call to self; use the local fast path")
	}
	p := ep.newPending(f, dst, req, 1, false)
	ep.transmit(p)
	f.ParkFor(sim.Labelf("call %v -> node %d", req.Kind(), int64(dst)))
	return ep.finish(p)
}

// CallFailFast is Call with graceful degradation: when the destination
// is hinted down (crash notice, or an earlier failure marked it), the
// call fails with ErrNodeDown at the next retransmission check instead
// of retransmitting through the whole outage. Use it ONLY for requests
// that are safe to abandon — idempotent probes and hints where the
// caller retries elsewhere or later. Protocol requests that leave
// state at the server pending a follow-up from this same request id
// (fault requests confirm to unlock the manager's directory entry)
// must use Call, which rides retransmission through the outage.
func (ep *Endpoint) CallFailFast(f *sim.Fiber, dst ring.NodeID, req wire.Msg) (wire.Msg, error) {
	if dst == ep.id {
		panic("remop: call to self; use the local fast path")
	}
	p := ep.newPending(f, dst, req, 1, false)
	p.failFast = true
	ep.transmit(p)
	f.ParkFor(sim.Labelf("call %v -> node %d (fail-fast)", req.Kind(), int64(dst)))
	return ep.finish(p)
}

// BroadcastAny broadcasts req and parks until the first reply; later
// replies to the same request are ignored. This is the scheme the paper
// describes for locating page owners by broadcast.
func (ep *Endpoint) BroadcastAny(f *sim.Fiber, req wire.Msg) (wire.Msg, error) {
	ep.stats.Broadcasts++
	p := ep.newPending(f, ring.Broadcast, req, 1, true)
	ep.transmit(p)
	f.ParkFor(sim.Labelf("broadcast-any %v", req.Kind()))
	return ep.finish(p)
}

// BroadcastAll broadcasts req and parks until every other node has
// replied — the scheme used for invalidation operations. Missing replies
// are re-requested point-to-point by the retransmission check.
func (ep *Endpoint) BroadcastAll(f *sim.Fiber, req wire.Msg) ([]wire.Msg, error) {
	ep.stats.Broadcasts++
	want := ep.nw.Size() - 1
	if want == 0 {
		return nil, nil
	}
	p := ep.newPending(f, ring.Broadcast, req, want, true)
	ep.transmit(p)
	f.ParkFor(sim.Labelf("broadcast-all %v", req.Kind()))
	delete(ep.out, p.reqID)
	if len(p.replies) < want {
		return nil, p.failErr()
	}
	msgs := make([]wire.Msg, len(p.replies))
	for i, r := range p.replies {
		msgs[i] = r.Body
	}
	return msgs, nil
}

// BroadcastNoReply broadcasts req with the no-reply scheme, used for
// scattering approximate information such as scheduling hints. It never
// blocks and is not retransmitted.
func (ep *Endpoint) BroadcastNoReply(req wire.Msg) {
	ep.stats.Broadcasts++
	ep.nextReq++
	env := &wire.Envelope{
		ReqID:    ep.nextReq,
		Origin:   uint16(ep.id),
		Sender:   uint16(ep.id),
		Flags:    wire.FlagBroadcast, // deliberately not FlagRequest: no reply machinery
		LoadHint: ep.loadHint(),
		Body:     req,
	}
	ep.nw.Send(&ring.Packet{Src: ep.id, Dst: ring.Broadcast, Payload: env.Marshal()})
}

func (ep *Endpoint) newPending(f *sim.Fiber, dst ring.NodeID, req wire.Msg, want int, broadcast bool) *pending {
	ep.nextReq++
	flags := wire.FlagRequest
	if broadcast {
		flags |= wire.FlagBroadcast
	}
	env := &wire.Envelope{
		ReqID:    ep.nextReq,
		Origin:   uint16(ep.id),
		Sender:   uint16(ep.id),
		Flags:    flags,
		LoadHint: ep.loadHint(),
		Body:     req,
	}
	p := &pending{
		reqID:      ep.nextReq,
		dst:        dst,
		payload:    env.Marshal(),
		fiber:      f,
		want:       want,
		sentAt:     ep.eng.Now(),
		responders: make(map[ring.NodeID]bool),
	}
	if ep.trc != nil && f != nil && f.Trace() != 0 {
		p.trace = trace.SpanID(f.Trace())
		ep.trc.MapRequest(uint16(ep.id), p.reqID, p.trace)
	}
	ep.out[p.reqID] = p
	return p
}

func (ep *Endpoint) transmit(p *pending) {
	ep.stats.RequestsSent++
	p.sentAt = ep.eng.Now()
	ep.nw.Send(&ring.Packet{Src: ep.id, Dst: p.dst, Payload: p.payload, Trace: uint64(p.trace)})
}

// finish collects the result of a single-reply pending after the fiber
// resumes.
func (ep *Endpoint) finish(p *pending) (wire.Msg, error) {
	delete(ep.out, p.reqID)
	if len(p.replies) == 0 {
		return nil, p.failErr()
	}
	return p.replies[0].Body, nil
}

// receive is the network delivery handler; it runs in engine context.
func (ep *Endpoint) receive(pkt *ring.Packet) {
	env, err := wire.Unmarshal(pkt.Payload)
	if err != nil {
		// A corrupted frame is dropped; retransmission recovers it. The
		// simulated network never corrupts, so this indicates a bug.
		panic(fmt.Sprintf("remop: node %d received undecodable packet: %v", ep.id, err))
	}
	ep.loads[env.Sender] = env.LoadHint
	if ep.down != nil && ep.down[env.Sender] != 0 {
		// Any frame from a node proves it is up; drop the hint.
		ep.down[env.Sender] = 0
	}
	if ep.deliverHook != nil {
		ep.deliverHook(env)
	}
	switch {
	case env.IsReply():
		ep.handleReply(env)
	case env.IsRequest():
		ep.handleRequest(env)
	default:
		// No-reply broadcast: execute the handler without replying.
		ep.handleNoReply(env)
	}
}

func (ep *Endpoint) handleReply(env *wire.Envelope) {
	p, ok := ep.out[env.ReqID]
	if !ok {
		return // stale reply for a completed request
	}
	from := ring.NodeID(env.Sender)
	if p.responders[from] {
		return // duplicate reply from a retransmission
	}
	p.responders[from] = true
	p.replies = append(p.replies, env)
	ep.stats.RepliesReceived++
	if len(p.replies) < p.want || p.woken {
		return
	}
	p.woken = true
	switch {
	case p.group != nil:
		p.group.complete()
	case p.fiber != nil:
		p.fiber.Unpark()
	default:
		// Reliable notify: nobody waits; retire the request.
		delete(ep.out, p.reqID)
	}
}

func (ep *Endpoint) handleRequest(env *wire.Envelope) {
	key := cacheKey(env.Origin, env.ReqID)
	if cached, ok := ep.replyCache[key]; ok {
		// Duplicate of an already-answered request: resend the cached
		// reply, do not re-execute ("resending replies only when
		// necessary").
		ep.stats.DuplicatesServed++
		ep.nw.Send(&ring.Packet{Src: ep.id, Dst: cached.dst, Payload: cached.payload,
			Trace: uint64(ep.spanOf(env))})
		return
	}
	if dst, ok := ep.forwardCache[key]; ok {
		// Duplicate of a request this node forwarded: repeat the hop so
		// the retransmission reaches the node with the cached reply.
		ep.stats.DuplicatesFwd++
		fwd := *env
		fwd.Sender = uint16(ep.id)
		fwd.Flags |= wire.FlagForwarded
		fwd.LoadHint = ep.loadHint()
		ep.nw.Send(&ring.Packet{Src: ep.id, Dst: dst, Payload: fwd.Marshal(),
			Trace: uint64(ep.spanOf(env))})
		return
	}
	if env.Flags&wire.FlagBroadcast != 0 {
		if gate, ok := ep.gates[env.Body.Kind()]; ok && !gate(env) {
			ep.stats.GateDeclined++
			return
		}
	}
	if ep.inProgress[key] {
		ep.stats.DuplicatesBusy++
		return
	}
	h := ep.handler(env.Body.Kind())
	ep.inProgress[key] = true
	ep.stats.RequestsServed++
	span := ep.spanOf(env)
	name := sim.Labelf("node%d/%v#%d", env.Body.Kind(), int64(ep.id), int64(env.ReqID))
	ep.eng.GoNamed(name, func(f *sim.Fiber) {
		// The handler fiber inherits the request's fault span, so work it
		// does on the fault's behalf (page copies, disk I/O, nested
		// calls) attributes to that fault.
		f.SetTrace(uint64(span))
		// Charge the fixed service cost with the CPU held, then release
		// it before the handler body runs: handlers may block on page
		// locks or nested remote calls, and a blocked handler must never
		// pin the node's CPU (two nodes faulting on each other's pages
		// would deadlock). Handlers re-acquire the CPU for their own
		// compute charges.
		ep.cpu.Acquire(f)
		f.Sleep(ep.costs.HandlerCPU)
		ep.cpu.Release()
		ctx := &Ctx{ep: ep, fiber: f, env: env}
		reply := h(ctx, env)
		delete(ep.inProgress, key)
		if reply == nil {
			return // forwarded, or a declined broadcast
		}
		ep.sendReply(env, reply, key)
	})
}

// handler returns the handler registered for kind, which a node must
// have for every request kind it can receive.
func (ep *Endpoint) handler(kind wire.Kind) Handler {
	h, ok := ep.handlers[kind]
	if !ok {
		panic(fmt.Sprintf("remop: node %d has no handler for %v", ep.id, kind))
	}
	return h
}

// handleNoReply runs a no-reply broadcast's handler directly in engine
// context with a nil Ctx fiber; such handlers must not block.
func (ep *Endpoint) handleNoReply(env *wire.Envelope) {
	h := ep.handler(env.Body.Kind())
	ep.stats.RequestsServed++
	if reply := h(&Ctx{ep: ep, env: env}, env); reply != nil {
		panic(fmt.Sprintf("remop: handler for no-reply %v returned a reply", env.Body.Kind()))
	}
}

func (ep *Endpoint) sendReply(req *wire.Envelope, body wire.Msg, key uint64) {
	dst := ring.NodeID(req.Origin)
	reply := &wire.Envelope{
		ReqID:    req.ReqID,
		Origin:   req.Origin,
		Sender:   uint16(ep.id),
		Flags:    wire.FlagReply,
		LoadHint: ep.loadHint(),
		Body:     body,
	}
	payload := reply.Marshal()
	ep.cacheReply(key, payload, dst)
	ep.stats.RepliesSent++
	ep.nw.Send(&ring.Packet{Src: ep.id, Dst: dst, Payload: payload,
		Trace: uint64(ep.spanOf(req))})
}

func (ep *Endpoint) cacheReply(key uint64, payload []byte, dst ring.NodeID) {
	if _, exists := ep.replyCache[key]; !exists {
		ep.cacheOrder = append(ep.cacheOrder, key)
	}
	ep.replyCache[key] = &replyEntry{key: key, payload: payload, dst: dst}
	for len(ep.cacheOrder) > ep.replyCacheCap {
		old := ep.cacheOrder[0]
		ep.cacheOrder = ep.cacheOrder[1:]
		delete(ep.replyCache, old)
	}
}

// scheduleRetransmitCheck arms the periodic outgoing-channel check.
func (ep *Endpoint) scheduleRetransmitCheck() {
	ep.eng.Schedule(retransmitPeriod, func() {
		ep.retransmitCheck()
		ep.scheduleRetransmitCheck()
	})
}

// retransmitCheck resends outstanding requests that have waited a full
// period. Broadcast-all requests are re-driven point-to-point to the
// nodes that have not yet responded.
//
// The outstanding table is a map, and everything this loop does —
// retransmissions, give-up wakes, stuck-recovery unparks — is visible
// to the simulation, so iterating the map directly would leak Go's
// randomized iteration order into virtual time (the hazard ivyvet's
// maporder analyzer exists to catch; it found the original version of
// this loop). The request ids are collected and sorted first, reusing a
// scratch slice so the steady-state check stays allocation-free.
func (ep *Endpoint) retransmitCheck() {
	now := ep.eng.Now()
	ids := ep.retransScratch[:0]
	for id := range ep.out {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ep.retransScratch = ids
	for _, id := range ids {
		p, ok := ep.out[id]
		if !ok {
			continue // removed by an earlier give-up this same pass
		}
		if p.woken {
			continue
		}
		if now.Sub(p.sentAt) < backoffFor(p.retries) {
			continue
		}
		// A down-destination hint changes what "due for retransmission"
		// means. A fail-fast call (CallFailFast) surfaces ErrNodeDown
		// instead of grinding through the whole retry schedule — graceful
		// degradation for callers that can route around a dead node. A
		// stuck-capable call (CallRedirect) is woken stuck so the caller
		// relocates the destination — the ownership-chase path; it keeps
		// the same request id, so this is a redirect, not an abandonment.
		// Everything else — plain calls, reliable notifies, broadcasts —
		// MUST keep retransmitting until the node rejoins: a served
		// request may have left protocol state (a manager directory entry
		// locked until our confirmation) that only this request id can
		// release, so abandoning it would wedge the page forever.
		if p.dst != ring.Broadcast && ep.nodeDown(p.dst) {
			if p.failFast && (p.fiber != nil || p.group != nil) {
				ep.stats.NodeDownFails++
				p.woken = true
				p.failed = true
				p.nodeDown = true
				if p.group != nil {
					p.group.complete()
				} else {
					p.fiber.Unpark()
				}
				continue
			}
			if p.stuckAfter > 0 && p.fiber != nil {
				p.woken = true
				p.stuck = true
				p.fiber.Unpark()
				continue
			}
		}
		p.retries++
		if p.retries > maxRetries {
			// Give up: wake the caller with whatever arrived. finish()
			// or BroadcastAll turns a short reply set into an error.
			ep.stats.GiveUps++
			p.woken = true
			p.failed = true
			switch {
			case p.group != nil:
				p.group.complete()
			case p.fiber != nil:
				p.fiber.Unpark()
			default:
				delete(ep.out, p.reqID)
			}
			continue
		}
		if p.stuckAfter > 0 && p.retries >= p.stuckAfter && p.fiber != nil {
			// Stuck-recovery: wake the caller to relocate the target
			// instead of retransmitting down a stale chain.
			p.woken = true
			p.stuck = true
			p.fiber.Unpark()
			continue
		}
		ep.stats.Retransmissions++
		p.sentAt = now
		if p.dst != ring.Broadcast || p.want == 1 {
			ep.nw.Send(&ring.Packet{Src: ep.id, Dst: p.dst, Payload: p.payload, Trace: uint64(p.trace)})
			continue
		}
		for id := 0; id < ep.nw.Size(); id++ {
			nid := ring.NodeID(id)
			if nid == ep.id || p.responders[nid] {
				continue
			}
			ep.nw.Send(&ring.Packet{Src: ep.id, Dst: nid, Payload: p.payload, Trace: uint64(p.trace)})
		}
	}
}
