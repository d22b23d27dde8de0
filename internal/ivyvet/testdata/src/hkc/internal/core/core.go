// Package core is hookcover-analyzer golden input: a miniature of the
// simulator's SVM accessor shapes. PeekWord below is the bug the
// analyzer exists for — a new exported accessor that hands out frame
// bytes without reporting the access to the instrumentation plane —
// and FaultOnlyPeek is the subtler half: it reports a fault event, but
// no access.
package core

type Ctx interface {
	Charge(n int)
}

type SVM struct {
	frames [][]byte
	obs    *Observer
}

// Observer is the instrumentation plane.
type Observer struct{}

// frameForRead is the frame-returning tail every accessor funnels
// through.
func (s *SVM) frameForRead(ctx Ctx, p int) []byte { return s.frames[p] }

// frameForWrite is the write-mode tail.
func (s *SVM) frameForWrite(ctx Ctx, p int) []byte { return s.frames[p] }

// access reports a checked access to the plane.
func (o *Observer) access(ctx Ctx, addr, n uint64, write bool) {}

// syncWrite reports a test-and-set store and its sync edge.
func (o *Observer) syncWrite(ctx Ctx, addr uint64, acquire bool) {}

// MarkSync exempts detector-internal metadata.
func (o *Observer) MarkSync(addr, n uint64) {}

// begin reports a fault event: a page moved, not which words were
// touched.
func (o *Observer) begin(p int) {}

// Acquire is a same-named method on another type (the node CPU's): it
// is not an observer hook.
type Resource struct{}

func (r *Resource) Acquire() {}

// ReadWord is a clean accessor: it touches a frame and reports the
// access.
func (s *SVM) ReadWord(ctx Ctx, addr uint64) byte {
	frame := s.frameForRead(ctx, int(addr))
	s.obs.access(ctx, addr, 1, false)
	return frame[0]
}

// ReadWordIndirect reaches the frame and the hook transitively — also
// clean.
func (s *SVM) ReadWordIndirect(ctx Ctx, addr uint64) byte {
	return s.ReadWord(ctx, addr)
}

// PeekWord hands out frame bytes with no hook anywhere on its call
// graph — the coverage hole hookcover must flag.
func (s *SVM) PeekWord(ctx Ctx, addr uint64) byte { // want `PeekWord reaches page frames without an observer hook`
	return s.frameForRead(ctx, int(addr))[0]
}

// FaultOnlyPeek reports a fault event but not the access: the race
// detector and the dirty-word map would both miss it.
func (s *SVM) FaultOnlyPeek(ctx Ctx, addr uint64) byte { // want `FaultOnlyPeek reaches page frames without an observer hook`
	s.obs.begin(int(addr))
	return s.frameForRead(ctx, int(addr))[0]
}

// LockedPeek takes a CPU-style Acquire, which is not the observer's.
func (s *SVM) LockedPeek(ctx Ctx, r *Resource, addr uint64) byte { // want `LockedPeek reaches page frames without an observer hook`
	r.Acquire()
	return s.frameForRead(ctx, int(addr))[0]
}

// TestAndSet reports no plain access but the sync store and its
// acquire edge — synchronization primitives are hooked differently,
// not unhooked.
func (s *SVM) TestAndSet(ctx Ctx, addr uint64) bool {
	frame := s.frameForWrite(ctx, int(addr))
	if frame[0] != 0 {
		return false
	}
	frame[0] = 1
	s.obs.syncWrite(ctx, addr, true)
	return true
}

// InitLock marks its lock byte as sync state before touching it.
func (s *SVM) InitLock(ctx Ctx, addr uint64) {
	s.obs.MarkSync(addr, 1)
	s.frameForWrite(ctx, int(addr))[0] = 0
}

// DebugDump deliberately bypasses the plane (diagnostics must not
// perturb detector epochs or dirty maps); the reasoned ignore documents
// that at the site.
//
//ivyvet:ignore diagnostic dump must not perturb detector epochs or dirty-word maps
func (s *SVM) DebugDump(ctx Ctx, addr uint64) byte {
	return s.frameForRead(ctx, int(addr))[0]
}

// Base touches no frames: exported Ctx-taking methods without frame
// access are out of scope.
func (s *SVM) Base(ctx Ctx) uint64 { return 0 }

// residentFrame is unexported: serve-side internals are reachable only
// through handlers, which the entry-point rule does not cover.
func (s *SVM) residentFrame(ctx Ctx, p int) []byte { return s.frameForRead(ctx, p) }
