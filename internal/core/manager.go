package core

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Algorithm selects the memory-coherence ownership-manager strategy. The
// paper implements the first three; the broadcast manager comes from the
// companion TOCS paper and is kept for ablation.
type Algorithm int

const (
	// DynamicDistributed tracks ownership with per-node probOwner hints;
	// fault requests chase the hint chain via the forwarding mechanism.
	// This is the algorithm the paper finds most appropriate.
	DynamicDistributed Algorithm = iota
	// ImprovedCentralized keeps all ownership information on one manager
	// node, which forwards each fault to the owner; the requester
	// confirms completion so the manager can serialize transfers.
	ImprovedCentralized
	// FixedDistributed statically partitions manager duty: page p is
	// managed by node H(p) = p mod N.
	FixedDistributed
	// BroadcastManager locates owners by broadcasting fault requests;
	// only the owner replies.
	BroadcastManager
	// BasicCentralized is the TOCS companion paper's unimproved
	// centralized manager: the manager holds the copyset and performs
	// the invalidations itself, so even the owner's write upgrades round-
	// trip through it. Kept to make "improved" measurable.
	BasicCentralized
)

func (a Algorithm) String() string {
	switch a {
	case DynamicDistributed:
		return "dynamic-distributed"
	case ImprovedCentralized:
		return "improved-centralized"
	case FixedDistributed:
		return "fixed-distributed"
	case BroadcastManager:
		return "broadcast"
	case BasicCentralized:
		return "basic-centralized"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// manager abstracts how a fault locates the page owner and how transfers
// are confirmed.
type manager interface {
	// locateRead/locateWrite perform the algorithm's messaging for a
	// fault on p and return the owner's reply. Called with the local
	// page lock held.
	locateRead(ctx Ctx, p mmu.PageID) (*wire.PageReadReply, error)
	locateWrite(ctx Ctx, p mmu.PageID) (*wire.PageWriteReply, error)
	// confirmRead/confirmWrite complete the fault (unlock the manager's
	// entry where one exists).
	confirmRead(p mmu.PageID)
	confirmWrite(p mmu.PageID)
	// install registers the algorithm's fault-request handlers.
	install()
	// migrateOwnership informs the directory that page p now belongs to
	// newOwner without a fault-driven transfer (process migration's
	// stack-page handoff). Called on the relinquishing node.
	migrateOwnership(p mmu.PageID, newOwner ring.NodeID)
	// upgrade performs an owner's read-to-write upgrade. All algorithms
	// except the basic centralized manager invalidate the local copyset
	// themselves; the basic manager must ask the manager, who holds it.
	// Called with the page lock held; returns with write access granted.
	upgrade(ctx Ctx, p mmu.PageID)
}

func newManager(a Algorithm, s *SVM, defaultOwner ring.NodeID) manager {
	switch a {
	case DynamicDistributed:
		return &dynamicMgr{svm: s}
	case ImprovedCentralized:
		return &directoryMgr{svm: s, fixed: false, central: defaultOwner}
	case FixedDistributed:
		return &directoryMgr{svm: s, fixed: true, central: defaultOwner}
	case BroadcastManager:
		return &broadcastMgr{svm: s}
	case BasicCentralized:
		return &basicMgr{svm: s, central: defaultOwner}
	default:
		panic(fmt.Sprintf("core: unknown algorithm %d", a))
	}
}

// --- Dynamic distributed manager ----------------------------------------

type dynamicMgr struct {
	svm *SVM
}

func (m *dynamicMgr) target(p mmu.PageID) ring.NodeID {
	s := m.svm
	e := s.table.Entry(p)
	dst := e.ProbOwner
	if dst == s.node {
		panic(fmt.Sprintf("core: node %d probOwner hint for page %d points at itself while it is not the owner", s.node, p))
	}
	return dst
}

// stuckRetransmissions is how many retransmissions a fault request rides
// a probOwner chain before falling back to an owner-query broadcast — a
// liveness backstop for routing loops left by packet loss or hint churn.
// Healthy runs essentially never reach it.
const stuckRetransmissions = 6

func (m *dynamicMgr) locateRead(ctx Ctx, p mmu.PageID) (*wire.PageReadReply, error) {
	reply, err := m.svm.ep.CallRedirect(ctx.Fiber(), m.target(p),
		&wire.ReadFaultReq{Page: uint32(p)}, stuckRetransmissions,
		func(f *sim.Fiber) (ring.NodeID, bool) { return m.queryOwner(f, p) })
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PageReadReply), nil
}

func (m *dynamicMgr) locateWrite(ctx Ctx, p mmu.PageID) (*wire.PageWriteReply, error) {
	reply, err := m.svm.ep.CallRedirect(ctx.Fiber(), m.target(p),
		&wire.WriteFaultReq{Page: uint32(p)}, stuckRetransmissions,
		func(f *sim.Fiber) (ring.NodeID, bool) { return m.queryOwner(f, p) })
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PageWriteReply), nil
}

// queryOwner broadcasts an owner query; only the node owning p at
// delivery answers (the delivery gate guarantees at most one).
func (m *dynamicMgr) queryOwner(f *sim.Fiber, p mmu.PageID) (ring.NodeID, bool) {
	m.svm.st.SVM.OwnerQueries++
	reply, err := m.svm.ep.BroadcastAny(f, &wire.OwnerQuery{Page: uint32(p)})
	if err != nil {
		return 0, false
	}
	return ring.NodeID(reply.(*wire.OwnerQuery).Owner), true
}

func (m *dynamicMgr) confirmRead(mmu.PageID)  {}
func (m *dynamicMgr) confirmWrite(mmu.PageID) {}

// migrateOwnership needs no directory update: the relinquishing node's
// probOwner hint now points at the new owner, and stale hints elsewhere
// chase the chain through it.
func (m *dynamicMgr) migrateOwnership(mmu.PageID, ring.NodeID) {}

func (m *dynamicMgr) install() {
	s := m.svm
	s.ep.SetHandler(wire.KindReadFaultReq, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p := mmu.PageID(env.Body.(*wire.ReadFaultReq).Page)
		return m.handle(ctx, env, p, true)
	})
	s.ep.SetHandler(wire.KindWriteFaultReq, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p := mmu.PageID(env.Body.(*wire.WriteFaultReq).Page)
		return m.handle(ctx, env, p, false)
	})
	// Owner queries: only the instantaneous owner participates (delivery
	// gate), and the handler never takes page locks, so the fallback can
	// always make progress.
	s.ep.SetGate(wire.KindOwnerQuery, func(env *wire.Envelope) bool {
		q := env.Body.(*wire.OwnerQuery)
		return s.table.Entry(mmu.PageID(q.Page)).IsOwner
	})
	s.ep.SetHandler(wire.KindOwnerQuery, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		q := env.Body.(*wire.OwnerQuery)
		if !s.table.Entry(mmu.PageID(q.Page)).IsOwner {
			return nil // ownership moved since delivery; decline
		}
		return &wire.OwnerQuery{Page: q.Page, Owner: uint16(s.node)}
	})
}

// handle serves a fault request if this node owns the page, and otherwise
// forwards it along the probOwner chain — the dynamic distributed
// manager algorithm. Requests queue on the page lock behind in-flight
// operations (including this node's own faults), exactly as the paper's
// page-table-entry locking does; when the lock frees, the request is
// served by the new owner or forwarded along the refreshed hint.
//
// One refinement keeps the hint graph aligned with the ownership token's
// serialization order: forwarding updates the hint to the requester only
// for WRITE faults. A write requester is a future owner — pointing at it
// queues later requests behind it, and since pending writers serialize
// at the token, those waits form a chain, never a cycle. A READ
// requester never becomes owner; pointing hints at readers (whose own
// hints may be arbitrarily stale) is what lets concurrent faulters'
// chains cross and deadlock.
func (m *dynamicMgr) handle(ctx *remop.Ctx, env *wire.Envelope, p mmu.PageID, read bool) wire.Msg {
	s := m.svm
	origin := ring.NodeID(env.Origin)
	if origin == s.node {
		return nil // our own request circled back; the fallback recovers
	}
	f := ctx.Fiber()
	if read {
		if r := s.serveRead(f, origin, p); r != nil {
			return r
		}
	} else {
		if r := s.serveWrite(f, origin, p); r != nil {
			return r
		}
	}
	// Not the owner: forward toward the probable owner; for write
	// faults, point the hint at the future owner.
	e := s.table.Entry(p)
	dst := e.ProbOwner
	if dst == s.node || dst == origin {
		// Useless for routing (self-referential hint, or the requester
		// itself); re-aim at the initial default owner, whose chain
		// always leads somewhere real.
		dst = s.defaultOwner
	}
	if dst == s.node || dst == origin {
		return nil // degenerate; retransmission or the fallback recovers
	}
	ctx.Forward(dst)
	if !read {
		e.ProbOwner = origin
	}
	return nil
}

// --- Directory managers (improved centralized & fixed distributed) -------

// directoryMgr implements both directory algorithms: with fixed=false a
// single central node manages every page; with fixed=true page p is
// managed by node p mod N.
type directoryMgr struct {
	svm     *SVM
	fixed   bool
	central ring.NodeID
	// dir is this node's directory (all pages when central, the H(p)=id
	// subset when fixed; nil on non-manager nodes under central).
	dir *mmu.OwnerTable
}

// managerOf is the mapping function H: under the fixed distributed
// algorithm, pages are distributed evenly across all processors.
func (m *directoryMgr) managerOf(p mmu.PageID) ring.NodeID {
	if m.fixed {
		return ring.NodeID(int(p) % m.svm.numNodes)
	}
	return m.central
}

func (m *directoryMgr) locateRead(ctx Ctx, p mmu.PageID) (*wire.PageReadReply, error) {
	s := m.svm
	mgr := m.managerOf(p)
	if mgr == s.node {
		// Local manager path: serialize on the directory entry, then ask
		// the recorded owner directly.
		m.dir.Lock(ctx.Fiber(), p)
		owner := m.dir.Owner(p)
		if owner == s.node {
			panic(fmt.Sprintf("core: node %d read-faulting on page %d it owns per its own directory", s.node, p))
		}
		reply, err := s.ep.Call(ctx.Fiber(), owner, &wire.ReadFaultReq{Page: uint32(p)})
		if err != nil {
			m.dir.Unlock(p)
			return nil, err
		}
		return reply.(*wire.PageReadReply), nil
	}
	reply, err := s.ep.Call(ctx.Fiber(), mgr, &wire.ReadFaultReq{Page: uint32(p)})
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PageReadReply), nil
}

func (m *directoryMgr) locateWrite(ctx Ctx, p mmu.PageID) (*wire.PageWriteReply, error) {
	s := m.svm
	mgr := m.managerOf(p)
	if mgr == s.node {
		m.dir.Lock(ctx.Fiber(), p)
		owner := m.dir.Owner(p)
		if owner == s.node {
			panic(fmt.Sprintf("core: node %d write-faulting on page %d it owns per its own directory", s.node, p))
		}
		reply, err := s.ep.Call(ctx.Fiber(), owner, &wire.WriteFaultReq{Page: uint32(p)})
		if err != nil {
			m.dir.Unlock(p)
			return nil, err
		}
		return reply.(*wire.PageWriteReply), nil
	}
	reply, err := s.ep.Call(ctx.Fiber(), mgr, &wire.WriteFaultReq{Page: uint32(p)})
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PageWriteReply), nil
}

// confirmRead completes a read fault: ownership is unchanged but the
// manager's entry must unlock.
func (m *directoryMgr) confirmRead(p mmu.PageID) {
	s := m.svm
	mgr := m.managerOf(p)
	if mgr == s.node {
		m.dir.Unlock(p)
		return
	}
	// Ownership is unchanged by a read, and this node does not know the
	// authoritative owner (only a probOwner hint, which a concurrent
	// invalidation may have redirected mid-fault): unlock only.
	s.ep.NotifyReliable(mgr, &wire.MgrConfirm{Page: uint32(p), ReadOnly: true})
}

// confirmWrite completes a write transfer: this node is the new owner.
func (m *directoryMgr) confirmWrite(p mmu.PageID) {
	s := m.svm
	mgr := m.managerOf(p)
	if mgr == s.node {
		m.dir.SetOwner(p, s.node)
		m.dir.Unlock(p)
		return
	}
	s.ep.NotifyReliable(mgr, &wire.MgrConfirm{Page: uint32(p), NewOwner: uint16(s.node)})
}

// migrateOwnership updates the directory outside the fault protocol.
func (m *directoryMgr) migrateOwnership(p mmu.PageID, newOwner ring.NodeID) {
	s := m.svm
	mgr := m.managerOf(p)
	if mgr == s.node {
		m.dir.SetOwner(p, newOwner)
		return
	}
	s.ep.NotifyReliable(mgr, &wire.MgrConfirm{Page: uint32(p), NewOwner: uint16(newOwner), Migration: true})
}

func (m *directoryMgr) install() {
	s := m.svm
	if m.fixed || s.node == m.central {
		m.dir = mmu.NewOwnerTable(s.node, s.defaultOwner)
	}
	s.ep.SetHandler(wire.KindReadFaultReq, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p := mmu.PageID(env.Body.(*wire.ReadFaultReq).Page)
		return m.handle(ctx, env, p, true)
	})
	s.ep.SetHandler(wire.KindWriteFaultReq, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p := mmu.PageID(env.Body.(*wire.WriteFaultReq).Page)
		return m.handle(ctx, env, p, false)
	})
	s.ep.SetHandler(wire.KindMgrConfirm, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		c := env.Body.(*wire.MgrConfirm)
		p := mmu.PageID(c.Page)
		if m.dir == nil || m.managerOf(p) != s.node {
			panic(fmt.Sprintf("core: node %d received confirm for page %d it does not manage", s.node, p))
		}
		if !c.ReadOnly {
			m.dir.SetOwner(p, ring.NodeID(c.NewOwner))
		}
		if !c.Migration {
			m.dir.Unlock(p)
		}
		return &wire.MgrConfirm{Page: c.Page, NewOwner: c.NewOwner}
	})
}

// handle implements the manager-node side (lock directory, forward to the
// owner or serve when the manager itself owns the page) and the
// owner side (serve a request forwarded by the manager, or sent directly
// by the manager node's own fault path).
func (m *directoryMgr) handle(ctx *remop.Ctx, env *wire.Envelope, p mmu.PageID, read bool) wire.Msg {
	s := m.svm
	origin := ring.NodeID(env.Origin)
	f := ctx.Fiber()
	isManagerRole := m.managerOf(p) == s.node && env.Flags&wire.FlagForwarded == 0 && origin != s.node

	if isManagerRole {
		m.dir.Lock(f, p)
		owner := m.dir.Owner(p)
		if owner == origin {
			panic(fmt.Sprintf("core: directory says faulting node %d owns page %d", origin, p))
		}
		if owner != s.node {
			ctx.Forward(owner)
			return nil
		}
		// The manager itself owns the page: serve inline. The directory
		// entry stays locked until the requester's confirmation.
	}
	var reply wire.Msg
	if read {
		if r := s.serveRead(f, origin, p); r != nil {
			reply = r
		}
	} else {
		if r := s.serveWrite(f, origin, p); r != nil {
			reply = r
		}
	}
	if reply == nil {
		// Ownership moved away outside the directory protocol (a
		// migration's stack-page handoff). The relinquishing node's
		// probOwner hint names the destination; chase it one hop.
		dst := s.table.Entry(p).ProbOwner
		if dst == s.node || isManagerRole {
			panic(fmt.Sprintf("core: node %d cannot serve or re-forward page %d", s.node, p))
		}
		ctx.Forward(dst)
		return nil
	}
	return reply
}

// --- Broadcast manager ----------------------------------------------------

type broadcastMgr struct {
	svm *SVM
}

func (m *broadcastMgr) locateRead(ctx Ctx, p mmu.PageID) (*wire.PageReadReply, error) {
	reply, err := m.svm.ep.BroadcastAny(ctx.Fiber(), &wire.ReadFaultReq{Page: uint32(p)})
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PageReadReply), nil
}

func (m *broadcastMgr) locateWrite(ctx Ctx, p mmu.PageID) (*wire.PageWriteReply, error) {
	reply, err := m.svm.ep.BroadcastAny(ctx.Fiber(), &wire.WriteFaultReq{Page: uint32(p)})
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PageWriteReply), nil
}

func (m *broadcastMgr) confirmRead(mmu.PageID)                   {}
func (m *broadcastMgr) confirmWrite(mmu.PageID)                  {}
func (m *broadcastMgr) migrateOwnership(mmu.PageID, ring.NodeID) {}

func (m *broadcastMgr) install() {
	s := m.svm
	// Delivery gate: only the node that owns the page at the instant the
	// broadcast lands participates. Without this, a handler parked on
	// its page lock can serve the request much later, after another node
	// already served it — relinquishing ownership a second time and
	// losing it entirely.
	gate := func(env *wire.Envelope) bool {
		var page uint32
		switch b := env.Body.(type) {
		case *wire.ReadFaultReq:
			page = b.Page
		case *wire.WriteFaultReq:
			page = b.Page
		default:
			return true
		}
		return s.table.Entry(mmu.PageID(page)).IsOwner
	}
	s.ep.SetGate(wire.KindReadFaultReq, gate)
	s.ep.SetGate(wire.KindWriteFaultReq, gate)
	s.ep.SetHandler(wire.KindReadFaultReq, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p := mmu.PageID(env.Body.(*wire.ReadFaultReq).Page)
		if r := s.serveRead(ctx.Fiber(), ring.NodeID(env.Origin), p); r != nil {
			return r
		}
		return nil // decline: not the owner
	})
	s.ep.SetHandler(wire.KindWriteFaultReq, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p := mmu.PageID(env.Body.(*wire.WriteFaultReq).Page)
		if r := s.serveWrite(ctx.Fiber(), ring.NodeID(env.Origin), p); r != nil {
			return r
		}
		return nil
	})
}

// localUpgrade is the shared owner-side upgrade: invalidate the local
// copyset and raise the protection. Used by every algorithm that tracks
// copysets at owners.
func (s *SVM) localUpgrade(ctx Ctx, p mmu.PageID) {
	f := ctx.Fiber()
	e := s.table.Entry(p)
	cs := e.Copyset.Remove(s.node)
	s.invalidate(f, p, cs)
	e.Copyset = 0
	e.Access = mmu.AccessWrite
	e.Dirty = true
}

func (m *dynamicMgr) upgrade(ctx Ctx, p mmu.PageID)   { m.svm.localUpgrade(ctx, p) }
func (m *directoryMgr) upgrade(ctx Ctx, p mmu.PageID) { m.svm.localUpgrade(ctx, p) }
func (m *broadcastMgr) upgrade(ctx Ctx, p mmu.PageID) { m.svm.localUpgrade(ctx, p) }

// --- Basic centralized manager ---------------------------------------------
//
// The TOCS companion paper's first algorithm: one manager node keeps,
// for every page, the owner AND the copyset, and performs invalidations
// itself. Owners do not track readers, so even an owner's write upgrade
// is a round trip to the manager. The ICPP paper implemented the
// *improved* variant (directoryMgr here); this one exists so the
// improvement is measurable.
type basicMgr struct {
	svm     *SVM
	central ring.NodeID
	dir     *mmu.OwnerTable
	// copysets lives on the manager node only.
	copysets map[mmu.PageID]mmu.Copyset
}

func (m *basicMgr) isManager() bool { return m.svm.node == m.central }

func (m *basicMgr) copysetOf(p mmu.PageID) mmu.Copyset {
	if cs, ok := m.copysets[p]; ok {
		return cs
	}
	return 0
}

// managerInvalidate revokes every read copy of p recorded at the
// manager, except keep (the upgrading/acquiring node). Runs on a fiber
// at the manager with the directory entry locked.
func (m *basicMgr) managerInvalidate(f *sim.Fiber, p mmu.PageID, keep ring.NodeID) {
	s := m.svm
	cs := m.copysetOf(p).Remove(keep)
	if cs.Has(s.node) {
		// The manager's own read copy dies locally.
		e := s.table.Entry(p)
		if !e.IsOwner {
			e.Access = mmu.AccessNil
			s.tlbShoot() // the manager's read copy dies
			s.pool.Drop(p)
		}
		cs = cs.Remove(s.node)
	}
	if !cs.Empty() {
		s.st.SVM.InvalSent += uint64(cs.Count())
		s.obs.invalSent(p, cs.Count())
		req := &wire.InvalidateReq{Page: uint32(p), NewOwner: uint16(keep)}
		var buf [wire.MaxNodes]ring.NodeID
		members := cs.AppendTo(buf[:0])
		for attempt := 0; ; attempt++ {
			if _, err := s.ep.CallMany(f, members, req); err == nil {
				break
			}
			s.st.SVM.FaultErrors++
			retryPause(f, attempt)
		}
	}
	m.copysets[p] = 0
}

func (m *basicMgr) locateRead(ctx Ctx, p mmu.PageID) (*wire.PageReadReply, error) {
	s := m.svm
	if m.isManager() {
		m.dir.Lock(ctx.Fiber(), p)
		m.copysets[p] = m.copysetOf(p).Add(s.node)
		s.obs.copysetAdd(p)
		owner := m.dir.Owner(p)
		if owner == s.node {
			panic(fmt.Sprintf("core: manager read-faulting on page %d it owns", p))
		}
		reply, err := s.ep.Call(ctx.Fiber(), owner, &wire.ReadFaultReq{Page: uint32(p)})
		if err != nil {
			m.dir.Unlock(p)
			return nil, err
		}
		return reply.(*wire.PageReadReply), nil
	}
	reply, err := s.ep.Call(ctx.Fiber(), m.central, &wire.ReadFaultReq{Page: uint32(p)})
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PageReadReply), nil
}

func (m *basicMgr) locateWrite(ctx Ctx, p mmu.PageID) (*wire.PageWriteReply, error) {
	s := m.svm
	if m.isManager() {
		m.dir.Lock(ctx.Fiber(), p)
		m.managerInvalidate(ctx.Fiber(), p, s.node)
		owner := m.dir.Owner(p)
		if owner == s.node {
			panic(fmt.Sprintf("core: manager write-faulting on page %d it owns", p))
		}
		reply, err := s.ep.Call(ctx.Fiber(), owner, &wire.WriteFaultReq{Page: uint32(p)})
		if err != nil {
			m.dir.Unlock(p)
			return nil, err
		}
		return reply.(*wire.PageWriteReply), nil
	}
	reply, err := s.ep.Call(ctx.Fiber(), m.central, &wire.WriteFaultReq{Page: uint32(p)})
	if err != nil {
		return nil, err
	}
	return reply.(*wire.PageWriteReply), nil
}

func (m *basicMgr) confirmRead(p mmu.PageID) {
	s := m.svm
	if m.isManager() {
		m.dir.Unlock(p)
		return
	}
	// Unlock only: a read moves no ownership, and our probOwner hint may
	// be stale (see directoryMgr.confirmRead).
	s.ep.NotifyReliable(m.central, &wire.MgrConfirm{Page: uint32(p), ReadOnly: true})
}

func (m *basicMgr) confirmWrite(p mmu.PageID) {
	s := m.svm
	if m.isManager() {
		m.dir.SetOwner(p, s.node)
		m.dir.Unlock(p)
		return
	}
	s.ep.NotifyReliable(m.central, &wire.MgrConfirm{Page: uint32(p), NewOwner: uint16(s.node)})
}

func (m *basicMgr) migrateOwnership(p mmu.PageID, newOwner ring.NodeID) {
	s := m.svm
	if m.isManager() {
		m.dir.SetOwner(p, newOwner)
		return
	}
	s.ep.NotifyReliable(m.central, &wire.MgrConfirm{Page: uint32(p), NewOwner: uint16(newOwner), Migration: true})
}

// upgrade under the basic manager is a write fault to the manager, who
// holds the copyset. The page lock is RELEASED for the duration of the
// manager round trip: the manager may concurrently be driving a
// transfer of this very page toward us, whose serve needs our lock —
// holding it while queueing on the manager's directory lock deadlocks
// (dirLock -> our pageLock -> our upgrade -> dirLock). Releasing it
// means we may lose ownership before the manager processes our request,
// in which case the reply is a full data transfer rather than a grant;
// both shapes are applied under the re-acquired lock. No new reader can
// slip in during the window: read faults route through the directory
// lock our request will hold.
func (m *basicMgr) upgrade(ctx Ctx, p mmu.PageID) {
	s := m.svm
	f := ctx.Fiber()
	e := s.table.Entry(p)
	if m.isManager() {
		// Lock order is directory lock BEFORE page lock everywhere on
		// the manager node: a transfer in flight holds the directory
		// lock and its inline serve needs our page lock, so an upgrade
		// holding the page lock while queueing on the directory lock
		// would deadlock. Release, re-acquire in order, and re-examine —
		// ownership may have moved while we waited.
		s.table.Unlock(p)
		m.dir.Lock(f, p)
		s.table.Lock(f, p)
		if e.IsOwner {
			m.managerInvalidate(f, p, s.node)
			e.Copyset = 0
			e.Access = mmu.AccessWrite
			e.Dirty = true
			m.dir.Unlock(p)
			return
		}
		// Lost ownership while waiting: run a full transfer under the
		// directory lock. The current owner's page lock is never held
		// across a directory wait (this very discipline), so its serve
		// can always proceed.
		m.managerInvalidate(f, p, s.node)
		owner := m.dir.Owner(p)
		for attempt := 0; ; attempt++ {
			r, err := s.ep.Call(f, owner, &wire.WriteFaultReq{Page: uint32(p)})
			if err != nil {
				s.st.SVM.FaultErrors++
				retryPause(f, attempt)
				continue
			}
			reply := r.(*wire.PageWriteReply)
			chargeCPU(f, s.cpu, s.costs.PageCopy)
			s.install(f, p, reply.Data)
			break
		}
		e.IsOwner = true
		e.Copyset = 0
		e.ProbOwner = s.node
		e.Access = mmu.AccessWrite
		e.Dirty = true
		s.dsk.Drop(p)
		s.st.SVM.PagesReceived++
		m.dir.SetOwner(p, s.node)
		m.dir.Unlock(p)
		return
	}
	s.table.Unlock(p)
	var reply *wire.PageWriteReply
	for attempt := 0; ; attempt++ {
		r, err := s.ep.Call(f, m.central, &wire.WriteFaultReq{Page: uint32(p)})
		if err != nil {
			s.st.SVM.FaultErrors++
			retryPause(f, attempt)
			continue
		}
		reply = r.(*wire.PageWriteReply)
		break
	}
	s.table.Lock(f, p)
	if len(reply.Data) == 0 {
		// Grant: we were still the owner when the manager served us.
		e.Copyset = 0
		e.Access = mmu.AccessWrite
		e.Dirty = true
	} else {
		// We lost ownership in the window; this is a full transfer.
		chargeCPU(f, s.cpu, s.costs.PageCopy)
		s.install(f, p, reply.Data)
		e.IsOwner = true
		e.Copyset = 0
		e.ProbOwner = s.node
		e.Access = mmu.AccessWrite
		e.Dirty = true
		s.dsk.Drop(p)
		s.st.SVM.PagesReceived++
	}
	s.mgr.confirmWrite(p)
}

func (m *basicMgr) install() {
	s := m.svm
	if m.isManager() {
		m.dir = mmu.NewOwnerTable(s.node, m.central)
		m.copysets = make(map[mmu.PageID]mmu.Copyset)
	}
	s.ep.SetHandler(wire.KindReadFaultReq, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p := mmu.PageID(env.Body.(*wire.ReadFaultReq).Page)
		return m.handle(ctx, env, p, true)
	})
	s.ep.SetHandler(wire.KindWriteFaultReq, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		p := mmu.PageID(env.Body.(*wire.WriteFaultReq).Page)
		return m.handle(ctx, env, p, false)
	})
	s.ep.SetHandler(wire.KindMgrConfirm, func(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
		c := env.Body.(*wire.MgrConfirm)
		if !m.isManager() {
			panic(fmt.Sprintf("core: node %d received confirm but is not the manager", s.node))
		}
		if !c.ReadOnly {
			m.dir.SetOwner(mmu.PageID(c.Page), ring.NodeID(c.NewOwner))
		}
		if !c.Migration {
			m.dir.Unlock(mmu.PageID(c.Page))
		}
		return &wire.MgrConfirm{Page: c.Page, NewOwner: c.NewOwner}
	})
}

// handle implements both the manager role (lock, record reader /
// invalidate, forward or grant) and the owner role (serve a forwarded
// request).
func (m *basicMgr) handle(ctx *remop.Ctx, env *wire.Envelope, p mmu.PageID, read bool) wire.Msg {
	s := m.svm
	origin := ring.NodeID(env.Origin)
	f := ctx.Fiber()
	managerRole := m.isManager() && env.Flags&wire.FlagForwarded == 0 && origin != s.node

	if managerRole {
		m.dir.Lock(f, p)
		owner := m.dir.Owner(p)
		if read {
			m.copysets[p] = m.copysetOf(p).Add(origin)
			s.obs.copysetAdd(p)
		} else {
			m.managerInvalidate(f, p, origin)
			if owner == origin {
				// The owner itself asked: a write upgrade. Grant without
				// data; the directory entry stays locked until confirm.
				return &wire.PageWriteReply{Page: uint32(p)}
			}
		}
		if owner == s.node {
			// The manager owns the page: serve inline; entry locked
			// until the requester's confirmation.
		} else {
			ctx.Forward(owner)
			return nil
		}
	}
	var reply wire.Msg
	if read {
		if r := s.serveRead(f, origin, p); r != nil {
			reply = r
		}
	} else {
		if r := s.serveWrite(f, origin, p); r != nil {
			reply = r
		}
	}
	if reply == nil {
		// Ownership moved away via migration; chase the hint one hop.
		dst := s.table.Entry(p).ProbOwner
		if dst == s.node || managerRole {
			panic(fmt.Sprintf("core: node %d cannot serve or re-forward page %d", s.node, p))
		}
		ctx.Forward(dst)
		return nil
	}
	return reply
}
