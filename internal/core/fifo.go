// Package core implements the paper's primary contribution: value-based
// memory ordering (Cain & Lipasti, ISCA 2004). It replaces the
// associative load queue with a plain FIFO (no CAM, no search ports) and
// enforces both uniprocessor RAW dependences and multiprocessor memory
// consistency by re-executing selected loads in program order just
// before commit and comparing the replayed value against the premature
// value. Four filtering heuristics keep the replay rate near 0.02 per
// committed instruction:
//
//   - no-unresolved-store (NUS): replay loads that issued past an older
//     store with an unresolved address (uniprocessor RAW safety);
//   - no-reorder: replay loads that issued while prior memory operations
//     were incomplete (the only filter that is sound in isolation);
//   - no-recent-miss (NRM): replay loads that were in the instruction
//     window when a block entered the local hierarchy from an external
//     source (incoming constraint-graph edge);
//   - no-recent-snoop (NRS): replay loads that were in the window when an
//     external invalidation was observed (outgoing WAR edge).
//
// NRM and NRS must each be paired with NUS (paper §3.3); the Engine
// enforces that composition.
//
// The FIFO is searched by nobody, in the simulator as in the paper: it
// is a ring, each load keeps the handle Insert returned and reaches its
// entry through it, commit pops the head and squash truncates the tail.
package core

// FIFOEntry is one in-flight load in the replay machine's load queue.
// Unlike the associative queue it stores the premature value — needed by
// the compare stage — but requires no address CAM.
type FIFOEntry struct {
	Tag  int64
	PC   uint64
	Addr uint64
	// Value is the premature (out-of-order) load value.
	Value  uint64
	Issued bool
	// Forwarded is true when the value came from the store queue.
	Forwarded bool
	// NUS is set when the load issued while an older store's address
	// was unresolved (the no-unresolved-store filter's trigger).
	NUS bool
	// Reordered is set when the load issued while prior memory
	// operations were incomplete (the no-reorder filter's trigger).
	Reordered bool
	// NoReplay implements forward-progress rule 3: a dynamic load that
	// already caused a replay squash is not replayed again.
	NoReplay bool
	// ValuePredicted marks loads whose consumers ran on a predicted
	// value; such loads must always replay — the compare stage is
	// their verification (and what keeps value prediction consistent
	// in multiprocessors; paper §1).
	ValuePredicted bool
	// Replayed is set once the load has passed the replay stage.
	Replayed bool
}

// FIFOQueue is the non-associative load queue: a simple in-order buffer
// with head/tail access only. Its capacity can scale with the reorder
// buffer because nothing in it is searched.
//
// It is a fixed ring addressed by handle: Insert returns the load's
// insert sequence number, the pipeline keeps it in the load's ROB
// entry, and Find goes straight to the load's slot, checking the slot's
// tag. Commit pops the head and squash truncates the tail, so no
// operation scans or moves resident entries. The resident loads hold
// handles [head, tail), handle h at slot h&mask; the ring is sized to
// the capacity rounded up to a power of two and never grows.
type FIFOQueue struct {
	entries    []FIFOEntry
	head, tail int64 // resident handles are [head, tail)
	mask       int64
	cap        int
}

// NewFIFOQueue creates a queue with the given capacity.
func NewFIFOQueue(capacity int) *FIFOQueue {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FIFOQueue{cap: capacity, entries: make([]FIFOEntry, n), mask: int64(n - 1)}
}

// Len returns the occupancy.
func (q *FIFOQueue) Len() int { return int(q.tail - q.head) }

// Full reports whether another load can dispatch.
func (q *FIFOQueue) Full() bool { return q.Len() >= q.cap }

// Insert appends a load at dispatch, in program order, and returns its
// handle; it fails when the queue is full.
func (q *FIFOQueue) Insert(tag int64, pc uint64) (int64, bool) {
	if q.Full() {
		return 0, false
	}
	if q.tail > q.head && q.entries[(q.tail-1)&q.mask].Tag >= tag {
		panic("core: load tags must be inserted in program order")
	}
	h := q.tail
	q.entries[h&q.mask] = FIFOEntry{Tag: tag, PC: pc}
	q.tail++
	return h, true
}

// Find returns the resident load with handle h, which must carry the
// given tag.
//
//vbr:hotpath
func (q *FIFOQueue) Find(h, tag int64) *FIFOEntry {
	e := &q.entries[h&q.mask]
	if h < q.head || h >= q.tail || e.Tag != tag {
		panic("core: load handle does not match its tag")
	}
	return e
}

// Head returns the oldest entry, or nil.
func (q *FIFOQueue) Head() *FIFOEntry {
	if q.head == q.tail {
		return nil
	}
	return &q.entries[q.head&q.mask]
}

// YoungestTag returns the tag of the youngest resident load, or -1.
// The queue holds exactly the ROB-resident loads, so this is the
// youngest load in the instruction window.
func (q *FIFOQueue) YoungestTag() int64 {
	if q.head == q.tail {
		return -1
	}
	return q.entries[(q.tail-1)&q.mask].Tag
}

// Remove pops the oldest load, which must carry the given tag (at
// commit). Loads commit in program order, so a tag that is not the
// head means the queue and the ROB disagree.
func (q *FIFOQueue) Remove(tag int64) {
	if q.head == q.tail || q.entries[q.head&q.mask].Tag != tag {
		panic("core: committed load is not the queue head")
	}
	q.head++
}

// Squash removes every load with tag >= fromTag.
func (q *FIFOQueue) Squash(fromTag int64) {
	for q.tail > q.head && q.entries[(q.tail-1)&q.mask].Tag >= fromTag {
		q.tail--
	}
}
