// Package mmu implements the software memory-management unit of a
// simulated node: a page table whose entries carry the protection state
// (nil / read / write), the ownership flag and copyset held by a page's
// owner, the probOwner hint used by the dynamic distributed manager
// algorithm, and a per-page lock that serializes a node's fault handling
// with incoming remote requests for the same page — the queueing behavior
// the original system gets from locking page-table entries.
//
// On the real hardware these bits live in the MMU and the fault handler;
// here every shared-memory access performs the same check in software
// (see internal/core), which is the substitution DESIGN.md documents.
package mmu

import (
	"fmt"
	"math/bits"

	"repro/internal/ring"
	"repro/internal/sim"
)

// Access is a page's protection state on one node.
type Access uint8

const (
	// AccessNil means any reference traps: the page is not present (or
	// was invalidated).
	AccessNil Access = iota
	// AccessRead allows reads; writes trap.
	AccessRead
	// AccessWrite allows reads and writes; only the owner holds it.
	AccessWrite
)

func (a Access) String() string {
	switch a {
	case AccessNil:
		return "nil"
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}

// PageID numbers the pages of the shared virtual address space.
type PageID uint32

// Copyset is a bitmap of nodes holding read copies of a page. The wire
// format caps the cluster at 64 nodes (wire.MaxNodes).
type Copyset uint64

// Add returns c with node id included.
func (c Copyset) Add(id ring.NodeID) Copyset { return c | 1<<uint(id) }

// Remove returns c without node id.
func (c Copyset) Remove(id ring.NodeID) Copyset { return c &^ (1 << uint(id)) }

// Has reports whether node id is in the set.
func (c Copyset) Has(id ring.NodeID) bool { return c&(1<<uint(id)) != 0 }

// Empty reports whether the set has no members.
func (c Copyset) Empty() bool { return c == 0 }

// Count returns the number of members.
func (c Copyset) Count() int {
	n := 0
	for v := uint64(c); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Members returns the node IDs in ascending order. It allocates; hot
// paths should use AppendTo with a reusable buffer instead.
func (c Copyset) Members() []ring.NodeID {
	return c.AppendTo(nil)
}

// AppendTo appends the member node IDs to dst in ascending order and
// returns the extended slice. Passing a scratch buffer sliced to zero
// length makes copyset iteration allocation-free on the invalidation
// path.
func (c Copyset) AppendTo(dst []ring.NodeID) []ring.NodeID {
	for v := uint64(c); v != 0; v &= v - 1 {
		dst = append(dst, ring.NodeID(bits.TrailingZeros64(v)))
	}
	return dst
}

// Entry is one node's page-table entry for one shared page.
type Entry struct {
	Access Access

	// IsOwner marks the node that owns the page: the single node holding
	// write access, or the node that retained ownership after degrading
	// itself to read access to serve read faults.
	IsOwner bool

	// Copyset lists nodes holding read copies. Only meaningful while
	// IsOwner is set; it travels to the new owner on a write transfer.
	Copyset Copyset

	// ProbOwner is the dynamic distributed manager's hint: the true
	// owner, or a node nearer the true owner. Updated on invalidation,
	// ownership relinquishment, and request forwarding.
	ProbOwner ring.NodeID

	// Dirty marks page contents that differ from the node's disk copy;
	// eviction of a clean owned page skips the disk write.
	Dirty bool

	// InvalWhileFaulting poisons a fault in progress: an invalidation
	// arrived between this node's fault request and the page reply (a
	// retransmission reordering), so the reply data must be discarded
	// and the fault retried.
	InvalWhileFaulting bool
}

// Table is a node's page table plus the per-page fault locks.
type Table struct {
	node    ring.NodeID
	entries []Entry
	locks   map[PageID]*pageLock
}

type pageLock struct {
	held    bool
	holder  *sim.Fiber // diagnostic: who acquired it (nil: TryLock)
	waiters []*sim.Fiber
}

// NewTable builds a page table for numPages shared pages. Every entry
// starts with nil access and probOwner pointing at defaultOwner; the
// default owner's entries start owned with write access, making it the
// initial owner of the whole space, as in IVY's initialization.
func NewTable(node ring.NodeID, numPages int, defaultOwner ring.NodeID) *Table {
	t := &Table{
		node:    node,
		entries: make([]Entry, numPages),
		locks:   make(map[PageID]*pageLock),
	}
	for i := range t.entries {
		t.entries[i].ProbOwner = defaultOwner
		if node == defaultOwner {
			t.entries[i].IsOwner = true
			t.entries[i].Access = AccessWrite
		}
	}
	return t
}

// Node returns the owning node's ID.
func (t *Table) Node() ring.NodeID { return t.node }

// NumPages returns the size of the shared space in pages.
func (t *Table) NumPages() int { return len(t.entries) }

// Entry returns a mutable pointer to the entry for page p.
func (t *Table) Entry(p PageID) *Entry {
	if int(p) >= len(t.entries) {
		panic(fmt.Sprintf("mmu: page %d out of range (%d pages)", p, len(t.entries)))
	}
	return &t.entries[p]
}

// Lock acquires page p's fault lock, parking the fiber FIFO behind any
// current holder. The lock serializes the local fault path with incoming
// remote requests for the same page.
func (t *Table) Lock(f *sim.Fiber, p PageID) {
	l := t.locks[p]
	if l == nil {
		l = &pageLock{}
		t.locks[p] = l
	}
	if !l.held {
		l.held = true
		l.holder = f
		return
	}
	l.waiters = append(l.waiters, f)
	f.ParkFor(sim.Labelf("page %d lock on node %d", nil, int64(p), int64(t.node)))
	l.holder = f // the lock was handed to us on wake
}

// TryLock acquires the lock only if free.
func (t *Table) TryLock(p PageID) bool {
	l := t.locks[p]
	if l == nil {
		l = &pageLock{}
		t.locks[p] = l
	}
	if l.held {
		return false
	}
	l.held = true
	l.holder = nil
	return true
}

// Unlock releases page p's fault lock, handing it to the longest-waiting
// fiber if any.
func (t *Table) Unlock(p PageID) {
	l := t.locks[p]
	if l == nil || !l.held {
		panic(fmt.Sprintf("mmu: unlock of unheld page %d on node %d", p, t.node))
	}
	if len(l.waiters) > 0 {
		next := l.waiters[0]
		copy(l.waiters, l.waiters[1:])
		l.waiters = l.waiters[:len(l.waiters)-1]
		next.Unpark()
		return
	}
	l.held = false
	if len(l.waiters) == 0 {
		delete(t.locks, p) // keep the map proportional to active faults
	}
}

// Locked reports whether page p's fault lock is currently held.
func (t *Table) Locked(p PageID) bool {
	l := t.locks[p]
	return l != nil && l.held
}

// LockHolder names the fiber holding page p's lock (diagnostics).
func (t *Table) LockHolder(p PageID) string {
	l := t.locks[p]
	if l == nil || !l.held {
		return ""
	}
	if l.holder == nil {
		return "trylock"
	}
	return l.holder.Name()
}

// OwnedPages returns the pages this node currently owns, ascending.
func (t *Table) OwnedPages() []PageID {
	var out []PageID
	for i := range t.entries {
		if t.entries[i].IsOwner {
			out = append(out, PageID(i))
		}
	}
	return out
}
