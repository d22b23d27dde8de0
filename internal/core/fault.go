package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/mmu"
	"repro/internal/remop"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/wire"
)

// --- Accessors ---------------------------------------------------------
//
// The fast path is the software stand-in for an MMU check: consult the
// page-table entry, and if the access right is present and the frame
// resident, touch the bytes and accumulate the per-reference cost. Any
// shortfall traps into the slow path.

// ReadBytes copies n bytes starting at addr out of shared memory,
// faulting in pages as needed (the read may span pages).
func (s *SVM) ReadBytes(ctx Ctx, addr uint64, n int) []byte {
	out := make([]byte, n)
	off := 0
	for off < n {
		a := addr + uint64(off)
		p := s.PageOf(a)
		po := int(a-s.base) & s.pageMask
		chunk := s.pageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		frame := s.frameForRead(ctx, p)
		s.obs.access(ctx, a, uint64(chunk), false)
		copy(out[off:off+chunk], frame[po:po+chunk])
		// frameForRead charged one reference; charge the rest of the
		// chunk word by word, as the hardware would issue them.
		if words := (chunk - 1) / 8; words > 0 {
			ctx.Charge(time.Duration(words) * s.costs.MemRef)
		}
		off += chunk
	}
	return out
}

// WriteBytes stores data into shared memory starting at addr, faulting
// for ownership page by page.
func (s *SVM) WriteBytes(ctx Ctx, addr uint64, data []byte) {
	off := 0
	for off < len(data) {
		a := addr + uint64(off)
		p := s.PageOf(a)
		po := int(a-s.base) & s.pageMask
		chunk := s.pageSize - po
		if chunk > len(data)-off {
			chunk = len(data) - off
		}
		frame := s.frameForWrite(ctx, p)
		s.obs.access(ctx, a, uint64(chunk), true)
		copy(frame[po:po+chunk], data[off:off+chunk])
		if words := (chunk - 1) / 8; words > 0 {
			ctx.Charge(time.Duration(words) * s.costs.MemRef)
		}
		off += chunk
	}
}

// --- Bulk word access ---------------------------------------------------
//
// The bulk accessors check access once per page run instead of once per
// word — the simulator's analogue of block transfer. Compute charges are
// word-for-word identical to the equivalent scalar loop (the accessor
// charges one MemRef; the remaining words of the run are charged in one
// batch), so porting a program to the bulk API changes its wall-clock
// cost, not its simulated cost.

// alignedWords validates an 8-aligned bulk span and returns the page,
// page offset, and number of words that fit in the page run.
func (s *SVM) alignedWords(addr uint64, remaining int) (mmu.PageID, int, int) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("core: bulk word access at unaligned address %#x", addr))
	}
	p := s.PageOf(addr)
	po := int(addr-s.base) & s.pageMask
	words := (s.pageSize - po) / 8
	if words > remaining {
		words = remaining
	}
	return p, po, words
}

// ReadU64s fills dst with consecutive little-endian words starting at
// addr (8-aligned), faulting page by page.
func (s *SVM) ReadU64s(ctx Ctx, addr uint64, dst []uint64) {
	off := 0
	for off < len(dst) {
		p, po, words := s.alignedWords(addr+uint64(off)*8, len(dst)-off)
		frame := s.frameForRead(ctx, p)
		s.obs.access(ctx, addr+uint64(off)*8, uint64(words)*8, false)
		for i := 0; i < words; i++ {
			dst[off+i] = binary.LittleEndian.Uint64(frame[po+8*i:])
		}
		if words > 1 {
			ctx.Charge(time.Duration(words-1) * s.costs.MemRef)
		}
		off += words
	}
}

// WriteU64s stores src as consecutive little-endian words starting at
// addr (8-aligned), faulting for ownership page by page.
func (s *SVM) WriteU64s(ctx Ctx, addr uint64, src []uint64) {
	off := 0
	for off < len(src) {
		p, po, words := s.alignedWords(addr+uint64(off)*8, len(src)-off)
		frame := s.frameForWrite(ctx, p)
		s.obs.access(ctx, addr+uint64(off)*8, uint64(words)*8, true)
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(frame[po+8*i:], src[off+i])
		}
		if words > 1 {
			ctx.Charge(time.Duration(words-1) * s.costs.MemRef)
		}
		off += words
	}
}

// ReadF64s fills dst with consecutive float64s starting at addr.
func (s *SVM) ReadF64s(ctx Ctx, addr uint64, dst []float64) {
	off := 0
	for off < len(dst) {
		p, po, words := s.alignedWords(addr+uint64(off)*8, len(dst)-off)
		frame := s.frameForRead(ctx, p)
		s.obs.access(ctx, addr+uint64(off)*8, uint64(words)*8, false)
		for i := 0; i < words; i++ {
			dst[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[po+8*i:]))
		}
		if words > 1 {
			ctx.Charge(time.Duration(words-1) * s.costs.MemRef)
		}
		off += words
	}
}

// WriteF64s stores src as consecutive float64s starting at addr.
func (s *SVM) WriteF64s(ctx Ctx, addr uint64, src []float64) {
	off := 0
	for off < len(src) {
		p, po, words := s.alignedWords(addr+uint64(off)*8, len(src)-off)
		frame := s.frameForWrite(ctx, p)
		s.obs.access(ctx, addr+uint64(off)*8, uint64(words)*8, true)
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(frame[po+8*i:], math.Float64bits(src[off+i]))
		}
		if words > 1 {
			ctx.Charge(time.Duration(words-1) * s.costs.MemRef)
		}
		off += words
	}
}

// CopyWords copies n 8-byte words from src to dst inside shared memory,
// checking both pages once per run. Overlapping ranges copy as memmove
// would: when the destination starts above an overlapping source the
// chunks are walked back-to-front, so no chunk's writes clobber source
// words a later chunk still needs (within a chunk, Go's copy is already
// memmove-safe). The write fault for the destination can steal the
// source page mid-run (faulting yields the engine), so the source is
// revalidated after the destination is secured and the run retried if
// it was lost.
func (s *SVM) CopyWords(ctx Ctx, dst, src uint64, n int) {
	if dst > src && dst < src+8*uint64(n) {
		s.copyWordsBackward(ctx, dst, src, n)
		return
	}
	off := 0
	for off < n {
		sp, spo, words := s.alignedWords(src+uint64(off)*8, n-off)
		dp, dpo, dwords := s.alignedWords(dst+uint64(off)*8, words)
		words = dwords
		srcFrame := s.frameForRead(ctx, sp)
		dstFrame := s.frameForWrite(ctx, dp)
		if dp != sp {
			// Revalidate the source: the destination fault may have
			// invalidated or evicted it while this fiber was blocked.
			if s.table.Entry(sp).Access == mmu.AccessNil {
				continue
			}
			srcFrame = s.pool.Peek(sp)
			if srcFrame == nil {
				continue
			}
		} else {
			srcFrame = dstFrame
		}
		s.obs.access(ctx, src+uint64(off)*8, uint64(words)*8, false)
		s.obs.access(ctx, dst+uint64(off)*8, uint64(words)*8, true)
		copy(dstFrame[dpo:dpo+8*words], srcFrame[spo:spo+8*words])
		if words > 1 {
			ctx.Charge(time.Duration(2*(words-1)) * s.costs.MemRef)
		}
		off += words
	}
}

// copyWordsBackward is CopyWords' chunk loop run from the last word to
// the first, used when the destination overlaps the source from above:
// forward chunk order would overwrite source words that a later chunk
// still has to read. Fault behavior, revalidation, and charges per
// chunk are identical to the forward loop; only the order in which the
// page runs are visited differs (as it would for a real memmove).
func (s *SVM) copyWordsBackward(ctx Ctx, dst, src uint64, n int) {
	end := n
	for end > 0 {
		// Word end-1 closes this chunk; the chunk reaches back to the
		// start of whichever page run (source or destination) begins
		// later, and no further than word 0.
		sp, spoLast, _ := s.alignedWords(src+8*uint64(end-1), 1)
		dp, dpoLast, _ := s.alignedWords(dst+8*uint64(end-1), 1)
		words := spoLast/8 + 1
		if w := dpoLast/8 + 1; w < words {
			words = w
		}
		if words > end {
			words = end
		}
		spo := spoLast - 8*(words-1)
		dpo := dpoLast - 8*(words-1)
		srcFrame := s.frameForRead(ctx, sp)
		dstFrame := s.frameForWrite(ctx, dp)
		if dp != sp {
			// Revalidate the source, as in the forward loop.
			if s.table.Entry(sp).Access == mmu.AccessNil {
				continue
			}
			srcFrame = s.pool.Peek(sp)
			if srcFrame == nil {
				continue
			}
		} else {
			srcFrame = dstFrame
		}
		s.obs.access(ctx, src+8*uint64(end-words), uint64(words)*8, false)
		s.obs.access(ctx, dst+8*uint64(end-words), uint64(words)*8, true)
		copy(dstFrame[dpo:dpo+8*words], srcFrame[spo:spo+8*words])
		if words > 1 {
			ctx.Charge(time.Duration(2*(words-1)) * s.costs.MemRef)
		}
		end -= words
	}
}

// scalarSpan locates addr..addr+n within one page, panicking on scalar
// accesses that straddle a page boundary (the allocator aligns blocks,
// so a straddle is a client addressing bug worth failing loudly on).
func (s *SVM) scalarSpan(addr uint64, n int) (mmu.PageID, int) {
	p := s.PageOf(addr)
	po := int(addr-s.base) & s.pageMask
	if po+n > s.pageSize {
		panic(fmt.Sprintf("core: %d-byte scalar at %#x crosses a page boundary", n, addr))
	}
	return p, po
}

// ReadU64 reads a little-endian 64-bit word.
func (s *SVM) ReadU64(ctx Ctx, addr uint64) uint64 {
	return s.ReadU64T(ctx.TLB(), ctx, addr)
}

// ReadU64T is ReadU64 with the context's translation cache resolved by
// the caller: t must be ctx.TLB() (nil is fine). Callers holding the
// concrete context — the facade — resolve t without going through the
// interface, which keeps the hit path entirely free of dynamic
// dispatch: the compute charge lands on the TLB's debt accumulator, and
// ctx is consulted only to settle a full quantum or on the checked
// path.
//
// The word accessors inline the probe by hand (it is the simulator's
// single hottest code path, and TLB.hit is past the compiler's inlining
// budget). The logic must stay line-for-line equivalent to TLB.hit; the
// read variant may skip the mode compare because every filled way
// grants at least read (see TLB.fill's callers), and the sentinel page
// in empty ways stands in for the nil-entry check. The charge precedes
// the probe: settling a quantum can yield the engine, and a shootdown
// landing in that window must be observed by the validity check.
// It is split in two: ReadU64T itself contains no function calls, so
// the register allocator spills nothing on the straight-line hit; every
// case that must call — a due quantum settle, an LRU splice for a frame
// not already at the front, a probe miss, a TLB-less context — tail-
// calls the slow variant, which redoes the probe with the calls in
// place (re-probing is safe: nothing between the two probes can yield).
//
//ivy:hotpath calls=readU64TSlow
func (s *SVM) ReadU64T(t *TLB, ctx Ctx, addr uint64) uint64 {
	s.st.SVM.ReadAccesses++
	if t != nil {
		d := *t.debt + s.costs.MemRef
		*t.debt = d
		if d < t.quantum && t.svm == s {
			if off := addr - s.base; off < s.size {
				po := int(off) & s.pageMask
				p := mmu.PageID(off >> (s.pageShift & 63)) // &63 elides the shift guard
				w := &t.ways[int(p)&tlbMask]
				// Comparing the span against len(w.data) (== pageSize for
				// any filled way) both rejects page-crossing scalars and
				// lets the compiler drop the slice bounds checks below.
				if w.page == p && w.gen == s.shootGen && po+8 <= len(w.data) && s.pool.Front() == w.fr {
					t.hits++
					return binary.LittleEndian.Uint64(w.data[po : po+8])
				}
			}
		}
	}
	return s.readU64TSlow(t, ctx, addr)
}

// readU64TSlow finishes a read the call-free fast path could not: the
// per-access charge has already landed when t is non-nil (a due settle
// has not run yet); for nil t nothing is charged.
func (s *SVM) readU64TSlow(t *TLB, ctx Ctx, addr uint64) uint64 {
	if t == nil {
		ctx.Charge(s.costs.MemRef)
		return s.readU64Checked(ctx, nil, addr)
	}
	if *t.debt >= t.quantum {
		ctx.Flush()
	}
	if t.svm == s {
		if off := addr - s.base; off < s.size {
			po := int(off) & s.pageMask
			p := mmu.PageID(off >> (s.pageShift & 63))
			w := &t.ways[int(p)&tlbMask]
			if w.page == p && w.gen == s.shootGen && po+8 <= len(w.data) {
				t.hits++
				if s.pool.Front() != w.fr {
					s.pool.TouchFrame(w.fr)
				}
				return binary.LittleEndian.Uint64(w.data[po : po+8])
			}
		}
	}
	return s.readU64Checked(ctx, t, addr)
}

// readU64Checked is ReadU64's table-walk tail (reference counted and
// charged by the caller).
func (s *SVM) readU64Checked(ctx Ctx, t *TLB, addr uint64) uint64 {
	if t != nil {
		t.misses++
	}
	p, po := s.scalarSpan(addr, 8)
	frame := s.frameForReadChecked(ctx, t, p)
	s.obs.access(ctx, addr, 8, false)
	return binary.LittleEndian.Uint64(frame[po:])
}

// WriteU64 writes a little-endian 64-bit word.
func (s *SVM) WriteU64(ctx Ctx, addr uint64, v uint64) {
	s.WriteU64T(ctx.TLB(), ctx, addr, v)
}

// WriteU64T is WriteU64 with the translation cache resolved by the
// caller; see ReadU64T (including the call-free/slow split).
//
//ivy:hotpath calls=writeU64TSlow
func (s *SVM) WriteU64T(t *TLB, ctx Ctx, addr uint64, v uint64) {
	s.st.SVM.WriteAccesses++
	if t != nil {
		d := *t.debt + s.costs.MemRef
		*t.debt = d
		if d < t.quantum && t.svm == s {
			if off := addr - s.base; off < s.size {
				po := int(off) & s.pageMask
				p := mmu.PageID(off >> (s.pageShift & 63)) // &63 elides the shift guard
				w := &t.ways[int(p)&tlbMask]
				if w.page == p && w.mode == mmu.AccessWrite && w.gen == s.shootGen && po+8 <= len(w.data) && s.pool.Front() == w.fr {
					w.e.Dirty = true // mirror the checked write path
					t.hits++
					binary.LittleEndian.PutUint64(w.data[po:po+8], v)
					return
				}
			}
		}
	}
	s.writeU64TSlow(t, ctx, addr, v)
}

// writeU64TSlow finishes a write the call-free fast path could not; see
// readU64TSlow.
func (s *SVM) writeU64TSlow(t *TLB, ctx Ctx, addr uint64, v uint64) {
	if t == nil {
		ctx.Charge(s.costs.MemRef)
		s.writeU64Checked(ctx, nil, addr, v)
		return
	}
	if *t.debt >= t.quantum {
		ctx.Flush()
	}
	if t.svm == s {
		if off := addr - s.base; off < s.size {
			po := int(off) & s.pageMask
			p := mmu.PageID(off >> (s.pageShift & 63))
			w := &t.ways[int(p)&tlbMask]
			if w.page == p && w.mode == mmu.AccessWrite && w.gen == s.shootGen && po+8 <= len(w.data) {
				w.e.Dirty = true // mirror the checked write path
				t.hits++
				if s.pool.Front() != w.fr {
					s.pool.TouchFrame(w.fr)
				}
				binary.LittleEndian.PutUint64(w.data[po:po+8], v)
				return
			}
		}
	}
	s.writeU64Checked(ctx, t, addr, v)
}

// writeU64Checked is WriteU64's table-walk tail.
func (s *SVM) writeU64Checked(ctx Ctx, t *TLB, addr uint64, v uint64) {
	if t != nil {
		t.misses++
	}
	p, po := s.scalarSpan(addr, 8)
	frame := s.frameForWriteChecked(ctx, t, p)
	s.obs.access(ctx, addr, 8, true)
	binary.LittleEndian.PutUint64(frame[po:], v)
}

// ReadI64 reads a 64-bit signed integer.
func (s *SVM) ReadI64(ctx Ctx, addr uint64) int64 { return int64(s.ReadU64(ctx, addr)) }

// WriteI64 writes a 64-bit signed integer.
func (s *SVM) WriteI64(ctx Ctx, addr uint64, v int64) { s.WriteU64(ctx, addr, uint64(v)) }

// ReadF64 reads a float64.
func (s *SVM) ReadF64(ctx Ctx, addr uint64) float64 {
	return math.Float64frombits(s.ReadU64(ctx, addr))
}

// WriteF64 writes a float64.
func (s *SVM) WriteF64(ctx Ctx, addr uint64, v float64) {
	s.WriteU64(ctx, addr, math.Float64bits(v))
}

// ReadF32 reads a float32 — the 4-byte Pascal "real" the paper's
// programs stored; half the page traffic of float64 for the same data.
func (s *SVM) ReadF32(ctx Ctx, addr uint64) float32 {
	return math.Float32frombits(s.ReadU32(ctx, addr))
}

// WriteF32 writes a float32.
func (s *SVM) WriteF32(ctx Ctx, addr uint64, v float32) {
	s.WriteU32(ctx, addr, math.Float32bits(v))
}

// ReadU32 reads a little-endian 32-bit word.
func (s *SVM) ReadU32(ctx Ctx, addr uint64) uint32 {
	s.st.SVM.ReadAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr, po := t.hit(s, addr, 4, mmu.AccessRead); fr != nil {
			return binary.LittleEndian.Uint32(fr[po:])
		}
	}
	p, po := s.scalarSpan(addr, 4)
	frame := s.frameForReadChecked(ctx, t, p)
	s.obs.access(ctx, addr, 4, false)
	return binary.LittleEndian.Uint32(frame[po:])
}

// WriteU32 writes a little-endian 32-bit word.
func (s *SVM) WriteU32(ctx Ctx, addr uint64, v uint32) {
	s.st.SVM.WriteAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr, po := t.hit(s, addr, 4, mmu.AccessWrite); fr != nil {
			binary.LittleEndian.PutUint32(fr[po:], v)
			return
		}
	}
	p, po := s.scalarSpan(addr, 4)
	frame := s.frameForWriteChecked(ctx, t, p)
	s.obs.access(ctx, addr, 4, true)
	binary.LittleEndian.PutUint32(frame[po:], v)
}

// ReadU8 reads one byte.
func (s *SVM) ReadU8(ctx Ctx, addr uint64) uint8 {
	s.st.SVM.ReadAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr, po := t.hit(s, addr, 1, mmu.AccessRead); fr != nil {
			return fr[po]
		}
	}
	p, po := s.scalarSpan(addr, 1)
	frame := s.frameForReadChecked(ctx, t, p)
	s.obs.access(ctx, addr, 1, false)
	return frame[po]
}

// WriteU8 writes one byte.
func (s *SVM) WriteU8(ctx Ctx, addr uint64, v uint8) {
	s.st.SVM.WriteAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr, po := t.hit(s, addr, 1, mmu.AccessWrite); fr != nil {
			fr[po] = v
			return
		}
	}
	p, po := s.scalarSpan(addr, 1)
	frame := s.frameForWriteChecked(ctx, t, p)
	s.obs.access(ctx, addr, 1, true)
	frame[po] = v
}

// TestAndSet atomically sets the byte at addr to 1, returning true if it
// was 0 (the lock was acquired). Atomicity holds because the engine runs
// one context at a time and the read-modify-write performs no blocking
// operation once write access is held — the "pinned page plus
// test-and-set instruction" of the paper's eventcount implementation.
func (s *SVM) TestAndSet(ctx Ctx, addr uint64) bool {
	p, po := s.scalarSpan(addr, 1)
	if s.rcn != nil && s.rcn.IsData(p) {
		// TAS atomicity relies on the single-writer SC protocol; on an RC
		// data page two nodes could both "win" on their local copies.
		panic(fmt.Sprintf("core: TestAndSet at %#x on a release-consistent data page — locks must live in the sync arena", addr))
	}
	// Charge before taking the frame: a charge can flush a compute
	// quantum (yielding the engine), and the page must not be stolen
	// between the access check and the read-modify-write.
	ctx.Charge(s.costs.TestAndSet)
	frame := s.frameForWrite(ctx, p)
	if frame[po] != 0 {
		return false
	}
	frame[po] = 1
	// A successful test-and-set is a lock acquire: order this process
	// after every release (Clear) of the same lock so far.
	s.obs.syncWrite(ctx, addr, true)
	// Under release consistency the lock acquire is also the point where
	// this node must stop trusting cached copies that released writes
	// have made stale.
	s.RCAcquire(ctx)
	return true
}

// TestAndSetLatch is TestAndSet minus the release-consistency acquire:
// for internal latches (the eventcount's lock byte) whose critical
// sections touch only sync-arena state. The RC obligations of the
// OPERATION the latch implements are carried by explicit RCAcquire /
// RCRelease calls at the operation's semantic points (ec.Read, ec.Wait,
// ec.Advance); paying a directory round-trip per latch probe on top of
// that only stretches the hold window and multiplies sync-page
// ping-pong under contention. The happens-before edge (drace) is NOT
// skipped — the latch still orders its critical sections.
func (s *SVM) TestAndSetLatch(ctx Ctx, addr uint64) bool {
	p, po := s.scalarSpan(addr, 1)
	if s.rcn != nil && s.rcn.IsData(p) {
		panic(fmt.Sprintf("core: TestAndSetLatch at %#x on a release-consistent data page — locks must live in the sync arena", addr))
	}
	ctx.Charge(s.costs.TestAndSet)
	frame := s.frameForWrite(ctx, p)
	if frame[po] != 0 {
		return false
	}
	frame[po] = 1
	s.obs.syncWrite(ctx, addr, true)
	return true
}

// ClearLatch is Clear minus the release-consistency release; see
// TestAndSetLatch for when that is sound.
func (s *SVM) ClearLatch(ctx Ctx, addr uint64) {
	p, po := s.scalarSpan(addr, 1)
	if s.rcn != nil && s.rcn.IsData(p) {
		panic(fmt.Sprintf("core: ClearLatch at %#x on a release-consistent data page — locks must live in the sync arena", addr))
	}
	ctx.Charge(s.costs.TestAndSet)
	frame := s.frameForWrite(ctx, p)
	frame[po] = 0
	s.obs.syncWrite(ctx, addr, false)
}

// Clear atomically resets the byte at addr to 0 (lock release).
func (s *SVM) Clear(ctx Ctx, addr uint64) {
	p, po := s.scalarSpan(addr, 1)
	if s.rcn != nil && s.rcn.IsData(p) {
		panic(fmt.Sprintf("core: Clear at %#x on a release-consistent data page — locks must live in the sync arena", addr))
	}
	// Under release consistency the buffered writes must be committed and
	// their notices posted BEFORE the cleared byte becomes visible: a
	// competing TestAndSet can win the instant the 0 lands.
	s.RCRelease(ctx)
	ctx.Charge(s.costs.TestAndSet) // before the frame, as in TestAndSet
	frame := s.frameForWrite(ctx, p)
	frame[po] = 0
	// Clearing the byte is the lock release: publish everything this
	// process did while holding it.
	s.obs.syncWrite(ctx, addr, false)
}

// frameForRead returns page p's frame with at least read access. The
// charge precedes the TLB lookup and the table check alike: a charge
// can flush a compute quantum (yielding the engine), and any shootdown
// that lands in that window must be observed by the validity check.
func (s *SVM) frameForRead(ctx Ctx, p mmu.PageID) []byte {
	s.st.SVM.ReadAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr := t.lookup(s, p, mmu.AccessRead); fr != nil {
			s.pool.TouchFrame(fr) // same LRU update a map-lookup hit performs
			return fr.Data()
		}
	}
	return s.frameForReadChecked(ctx, t, p)
}

// frameForReadChecked is the table-walk tail of a read access: the
// reference is already counted and charged (and the TLB probed, when t
// is non-nil — a successful walk refills it).
func (s *SVM) frameForReadChecked(ctx Ctx, t *TLB, p mmu.PageID) []byte {
	e := s.table.Entry(p)
	if e.Access != mmu.AccessNil {
		if fr := s.pool.GetFrame(p); fr != nil {
			// With an access subscriber armed the TLBs are never
			// refilled (the facade disables them then, so t is nil
			// anyway): every access must reach a hooked checked tail.
			if t != nil && s.obs.fillsTLB() {
				t.fill(s, p, e, fr, e.Access)
			}
			return fr.Data()
		}
	}
	return s.slowPath(ctx, p, false)
}

// frameForWrite returns page p's frame with write access.
func (s *SVM) frameForWrite(ctx Ctx, p mmu.PageID) []byte {
	s.st.SVM.WriteAccesses++
	t := ctx.TLB()
	chargeAccess(ctx, t, s.costs.MemRef)
	if t != nil {
		if fr := t.lookup(s, p, mmu.AccessWrite); fr != nil {
			s.pool.TouchFrame(fr)
			return fr.Data()
		}
	}
	return s.frameForWriteChecked(ctx, t, p)
}

// frameForWriteChecked is the table-walk tail of a write access.
func (s *SVM) frameForWriteChecked(ctx Ctx, t *TLB, p mmu.PageID) []byte {
	e := s.table.Entry(p)
	if e.Access == mmu.AccessWrite {
		if fr := s.pool.GetFrame(p); fr != nil {
			if !e.Dirty {
				e.Dirty = true
			}
			if t != nil && s.obs.fillsTLB() { // see frameForReadChecked
				t.fill(s, p, e, fr, mmu.AccessWrite)
			}
			return fr.Data()
		}
	}
	return s.slowPath(ctx, p, true)
}

// slowPath resolves a trapped access: local disk fault for owned pages,
// coherence fault otherwise. It returns the resident frame with the
// required access. The page's fault lock serializes concurrent local
// faulters and incoming remote requests for p.
func (s *SVM) slowPath(ctx Ctx, p mmu.PageID, write bool) []byte {
	ctx.Flush()
	f := ctx.Fiber()
	s.table.Lock(f, p)
	defer s.table.Unlock(p)

	for {
		e := s.table.Entry(p)
		// Re-examine under the lock: another local process may have
		// resolved the fault while we waited.
		need := mmu.AccessRead
		if write {
			need = mmu.AccessWrite
		}
		if e.Access >= need {
			if frame := s.pool.Get(p); frame != nil {
				if write {
					e.Dirty = true
				}
				return frame
			}
		}
		switch {
		case s.rcn != nil && s.rcn.IsData(p):
			// Release-consistent data page: no owners, no invalidation —
			// fetch from the home and, for writes, twin (internal/rc). RC
			// pages never carry IsOwner, so none of the SC arms below can
			// fire for them. Observed like an SC read or write fault.
			ev := evRead
			if write {
				ev = evWrite
			}
			m := s.obs.begin(f, ev, p)
			s.rcn.Fault(f, p, write)
			s.obs.end(f, m)
		case e.IsOwner && !s.pool.Resident(p):
			s.diskFault(ctx, p)
		case e.IsOwner && write:
			s.upgradeFault(ctx, p)
		case e.IsOwner:
			// Owner, resident, read wanted, access nil (a serve path
			// left protection down): restore it.
			if e.Copyset.Empty() {
				e.Access = mmu.AccessWrite
			} else {
				e.Access = mmu.AccessRead
			}
		case !write:
			s.readFault(ctx, p)
		default:
			s.writeFault(ctx, p)
		}
	}
}

// diskFault pages an owned page back in from the node's own disk (or
// zero-fills a page that has never been materialized — demand-zero pages
// cost no disk transfer). Restored access is write when no other node
// holds a copy, read otherwise.
func (s *SVM) diskFault(ctx Ctx, p mmu.PageID) {
	f := ctx.Fiber()
	s.st.SVM.DiskFaults++
	start := s.eng.Now()
	m := s.obs.begin(f, evDisk, p)
	e := s.table.Entry(p)
	var data []byte
	if s.dsk.Has(p) {
		data = s.dsk.Read(f, p)
	} else {
		data = make([]byte, s.pageSize)
	}
	s.install(f, p, data)
	if e.Copyset.Empty() {
		e.Access = mmu.AccessWrite
	} else {
		e.Access = mmu.AccessRead
	}
	s.obs.end(f, m)
	s.lat.DiskFault.Record(s.eng.Now().Sub(start))
}

// upgradeFault is a write fault on a page the node already owns with
// read access: the copyset must be invalidated and the protection
// raised. Every algorithm does this locally except the basic
// centralized manager, whose manager holds the copyset — the strategy
// decides (see manager.upgrade).
func (s *SVM) upgradeFault(ctx Ctx, p mmu.PageID) {
	f := ctx.Fiber()
	s.st.SVM.LocalUpgrades++
	start := s.eng.Now()
	m := s.obs.begin(f, evUpgrade, p)
	chargeCPU(f, s.cpu, s.costs.FaultTrap)
	s.mgr.upgrade(ctx, p)
	s.obs.end(f, m)
	s.st.SVM.FaultStall += s.eng.Now().Sub(start)
	s.lat.Upgrade.Record(s.eng.Now().Sub(start))
}

// readFault obtains a read copy of page p through the configured manager
// algorithm. Called with the page lock held.
func (s *SVM) readFault(ctx Ctx, p mmu.PageID) {
	f := ctx.Fiber()
	s.st.SVM.ReadFaults++
	start := s.eng.Now()
	m := s.obs.begin(f, evRead, p)
	chargeCPU(f, s.cpu, s.costs.FaultTrap)
	e := s.table.Entry(p)
	for attempt := 0; ; attempt++ {
		loc := s.obs.begin(f, evLocate, p)
		reply, err := s.mgr.locateRead(ctx, p)
		s.obs.end(f, loc)
		if err != nil {
			// Retransmissions exhausted or destination down: back off,
			// then start the fault over (the owner may have moved, or the
			// crashed node may be back).
			s.st.SVM.FaultErrors++
			retryPause(f, attempt)
			continue
		}
		chargeCPU(f, s.cpu, s.costs.PageCopy)
		if e.InvalWhileFaulting {
			// An invalidation overtook the page data (reordered
			// retransmission): the copy is stale, discard and refault.
			e.InvalWhileFaulting = false
			s.st.SVM.FaultRetries++
			s.mgr.confirmRead(p)
			continue
		}
		if ring.NodeID(reply.Owner) == s.node {
			panic(fmt.Sprintf("core: node %d served its own read fault for page %d", s.node, p))
		}
		s.install(f, p, reply.Data)
		e.Access = mmu.AccessRead
		e.Dirty = false
		e.ProbOwner = ring.NodeID(reply.Owner)
		s.st.SVM.PagesReceived++
		break
	}
	s.mgr.confirmRead(p)
	s.obs.end(f, m)
	s.st.SVM.FaultStall += s.eng.Now().Sub(start)
	s.lat.ReadFault.Record(s.eng.Now().Sub(start))
}

// writeFault obtains ownership of page p with exclusive access. Called
// with the page lock held.
func (s *SVM) writeFault(ctx Ctx, p mmu.PageID) {
	f := ctx.Fiber()
	s.st.SVM.WriteFaults++
	start := s.eng.Now()
	m := s.obs.begin(f, evWrite, p)
	chargeCPU(f, s.cpu, s.costs.FaultTrap)
	e := s.table.Entry(p)
	for attempt := 0; ; attempt++ {
		loc := s.obs.begin(f, evLocate, p)
		reply, err := s.mgr.locateWrite(ctx, p)
		s.obs.end(f, loc)
		if err != nil {
			s.st.SVM.FaultErrors++
			retryPause(f, attempt)
			continue
		}
		chargeCPU(f, s.cpu, s.costs.PageCopy)
		// A poison flag here is harmless for writes: the received page
		// came with ownership and is authoritative; the invalidation
		// targeted the read copy we are replacing anyway.
		e.InvalWhileFaulting = false
		// Claim ownership BEFORE running the invalidation: the old owner
		// relinquished when it replied, so the token is ours, and
		// requests arriving during the invalidation phase then queue
		// behind this (finite) operation instead of being bounced around
		// as ownerless. Write access is granted only after every
		// acknowledgement.
		s.install(f, p, reply.Data)
		e.IsOwner = true
		e.Copyset = 0
		e.Dirty = true
		e.ProbOwner = s.node
		s.dsk.Drop(p) // any old disk image predates this ownership epoch
		s.st.SVM.PagesReceived++
		cs := mmu.Copyset(reply.Copyset).Remove(s.node)
		s.invalidate(f, p, cs)
		e.Access = mmu.AccessWrite
		break
	}
	s.mgr.confirmWrite(p)
	s.obs.end(f, m)
	s.st.SVM.FaultStall += s.eng.Now().Sub(start)
	s.lat.WriteFault.Record(s.eng.Now().Sub(start))
}

// invalidate revokes every read copy in cs, waiting for all
// acknowledgements before the caller proceeds to write. The writer-side
// round trip is recorded in the invalidation latency histogram.
func (s *SVM) invalidate(f *sim.Fiber, p mmu.PageID, cs mmu.Copyset) {
	if cs.Empty() {
		return
	}
	var buf [wire.MaxNodes]ring.NodeID
	members := cs.AppendTo(buf[:0])
	s.st.SVM.InvalSent += uint64(len(members))
	s.obs.invalSent(p, len(members))
	start := s.eng.Now()
	m := s.obs.begin(f, evInval, p)
	req := &wire.InvalidateReq{Page: uint32(p), NewOwner: uint16(s.node)}
	if s.bcastInval {
		// Broadcast with replies-from-all: non-holders ack trivially.
		for attempt := 0; ; attempt++ {
			if _, err := s.ep.BroadcastAll(f, req); err == nil {
				break
			}
			s.st.SVM.FaultErrors++
			retryPause(f, attempt)
		}
	} else {
		for attempt := 0; ; attempt++ {
			if _, err := s.ep.CallMany(f, members, req); err == nil {
				break
			}
			s.st.SVM.FaultErrors++
			retryPause(f, attempt)
		}
	}
	s.obs.end(f, m)
	s.lat.Inval.Record(s.eng.Now().Sub(start))
}

// --- Owner-side service -------------------------------------------------

// residentFrame brings an owned page's data into the pool (from disk or
// by zero-fill) and returns the live frame. Called with the page lock
// held by a serving handler.
func (s *SVM) residentFrame(f *sim.Fiber, p mmu.PageID) []byte {
	if frame := s.pool.Peek(p); frame != nil {
		return frame
	}
	s.st.SVM.DiskFaults++
	var data []byte
	if s.dsk.Has(p) {
		data = s.dsk.Read(f, p)
	} else {
		data = make([]byte, s.pageSize)
	}
	s.install(f, p, data)
	return data
}

// takeData removes an owned page's data from this node on a write
// transfer, avoiding a pointless frame install when the page is on disk.
func (s *SVM) takeData(f *sim.Fiber, p mmu.PageID) []byte {
	if frame := s.pool.Peek(p); frame != nil {
		s.pool.Drop(p)
		s.tlbShoot() // the frame left the pool
		return frame
	}
	if s.dsk.Has(p) {
		data := s.dsk.Read(f, p)
		s.dsk.Drop(p)
		return data
	}
	return make([]byte, s.pageSize)
}

// serveRead services a read fault from origin if this node owns page p:
// register the reader, downgrade write access to read, and return a copy
// of the page. Returns nil when not the owner (the caller forwards or
// declines according to the algorithm).
func (s *SVM) serveRead(f *sim.Fiber, origin ring.NodeID, p mmu.PageID) *wire.PageReadReply {
	m := s.obs.begin(f, evServeRead, p)
	defer s.obs.end(f, m)
	s.table.Lock(f, p)
	defer s.table.Unlock(p)
	e := s.table.Entry(p)
	if !e.IsOwner {
		return nil
	}
	frame := s.residentFrame(f, p)
	e.Copyset = e.Copyset.Add(origin)
	s.obs.copysetAdd(p)
	// The owner keeps the page with read access — downgraded from write,
	// or restored after residentFrame paged an evicted page back in.
	// Cached write-mode translations must not survive the downgrade.
	if e.Access == mmu.AccessWrite {
		s.tlbShoot()
	}
	e.Access = mmu.AccessRead
	chargeCPU(f, s.cpu, s.costs.PageCopy)
	data := make([]byte, len(frame))
	copy(data, frame)
	s.st.SVM.PagesSent++
	return &wire.PageReadReply{Page: uint32(p), Owner: uint16(s.node), Data: data}
}

// serveWrite services a write fault from origin if this node owns page
// p: relinquish ownership, hand over the page data and copyset, and
// point the probOwner hint at the new owner. Returns nil when not the
// owner.
func (s *SVM) serveWrite(f *sim.Fiber, origin ring.NodeID, p mmu.PageID) *wire.PageWriteReply {
	m := s.obs.begin(f, evServeWrite, p)
	defer s.obs.end(f, m)
	s.table.Lock(f, p)
	defer s.table.Unlock(p)
	e := s.table.Entry(p)
	if !e.IsOwner {
		return nil
	}
	data := s.takeData(f, p)
	s.obs.transfer(p) // ownership leaves this node: flush its dirty map
	cs := e.Copyset
	e.Copyset = 0
	e.IsOwner = false
	e.Access = mmu.AccessNil
	s.tlbShoot() // all local rights revoked
	e.Dirty = false
	e.ProbOwner = origin
	s.dsk.Drop(p)
	chargeCPU(f, s.cpu, s.costs.PageCopy)
	s.st.SVM.PagesSent++
	return &wire.PageWriteReply{Page: uint32(p), Copyset: uint64(cs), Data: data}
}

// --- Handlers ------------------------------------------------------------

// installHandlers registers the algorithm-independent handlers. The
// manager strategies register the fault-request handlers.
func (s *SVM) installHandlers() {
	s.ep.SetHandler(wire.KindInvalidateReq, s.handleInvalidate)
	s.mgr.install()
}

// handleInvalidate revokes this node's read copy. It deliberately does
// NOT take the page lock: if a local fault on p is in flight, the entry
// is poisoned instead (see readFault), because blocking here while the
// new owner waits for our ack would deadlock the transfer.
func (s *SVM) handleInvalidate(ctx *remop.Ctx, env *wire.Envelope) wire.Msg {
	m := env.Body.(*wire.InvalidateReq)
	p := mmu.PageID(m.Page)
	defer s.obs.invalRecv(ctx.Fiber(), p)
	e := s.table.Entry(p)
	s.st.SVM.InvalReceived++
	if s.invalDrop != nil && s.invalDrop(p) {
		// Chaos-test hook: acknowledge WITHOUT revoking the copy. This
		// breaks the single-writer invariant on purpose so the
		// sequential-consistency checker can prove it would notice.
		return &wire.InvalidateAck{Page: m.Page}
	}
	if e.IsOwner {
		// Only a stale duplicate from a previous ownership epoch can
		// address the current owner; acknowledge without acting.
		s.st.SVM.StaleInvals++
		return &wire.InvalidateAck{Page: m.Page}
	}
	if ring.NodeID(m.NewOwner) == s.node {
		panic(fmt.Sprintf("core: node %d received invalidation naming itself the new owner of page %d", s.node, p))
	}
	if s.table.Locked(p) {
		e.InvalWhileFaulting = true
	}
	e.Access = mmu.AccessNil
	s.tlbShoot() // the read copy dies
	e.ProbOwner = ring.NodeID(m.NewOwner)
	s.pool.Drop(p)
	return &wire.InvalidateAck{Page: m.Page}
}
