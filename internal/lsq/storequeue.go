// Package lsq implements the load/store queue microarchitecture of
// Section 2: a store queue with store-to-load forwarding and unresolved-
// address tracking, and the three conventional associative load-queue
// designs the paper describes — snooping, insulated, and Power4-style
// hybrid — with CAM-search accounting for the §5.3 power model. The
// replay machine's non-associative FIFO load queue lives in package
// core, next to the replay engine that owns it.
//
// Tags are reorder-buffer sequence numbers: monotonically increasing,
// never reused within a run, so tag order is program order. Both queues
// are fixed rings addressed by handle: Insert returns the entry's
// insert sequence number, the pipeline keeps it in the instruction's
// ROB entry, and every later access by that instruction goes straight
// to its slot, checking the slot's tag and panicking on a mismatch.
// Commit pops the head and squash truncates the tail, so neither moves
// a resident entry; nothing looks an entry up by scanning tags. A load
// also keeps the store queue's next handle at its dispatch (its store
// colour): exactly the stores below the colour are older than it, so a
// forwarding search starts there instead of stepping over younger
// stores.
package lsq

// StoreEntry is one in-flight store.
type StoreEntry struct {
	// Tag is the store's ROB sequence number (program order).
	Tag int64
	// PC is the store's program counter (for predictor training).
	PC uint64
	// Addr is the effective address, meaningful once AddrValid is set
	// by the store's address generation.
	Addr uint64
	// AddrValid marks stores whose address has resolved; unresolved
	// stores are what the no-unresolved-store filter watches for.
	AddrValid bool
	// Data is the store's value, meaningful once DataValid is set by
	// data capture (forwarding requires it).
	Data uint64
	// DataValid marks stores whose data operand has been captured.
	DataValid bool
}

// SearchResult reports a store-queue search by a load.
type SearchResult struct {
	// Latency is the forwarding latency in cycles (0 = the fast path;
	// a two-level queue reports its level-two latency for deep
	// matches — Akkary et al.'s hierarchical store queue).
	Latency int
	// Match is true when an older store with a resolved, equal address
	// was found; MatchTag/Data/DataReady describe the youngest such
	// store.
	Match     bool
	MatchTag  int64
	Data      uint64
	DataReady bool
	// MatchPC is the matching store's PC (for predictor training).
	MatchPC uint64
	// UnresolvedOlder is true when some older store that could alias
	// (younger than the match, or any older store if no match) has an
	// unresolved address — the condition the no-unresolved-store
	// filter records.
	UnresolvedOlder bool
}

// StoreQueue holds in-flight stores in program order. Optionally it is
// hierarchical (Akkary et al., "Checkpoint processing and recovery",
// MICRO 2003 — cited in the paper's §1): a small fast level-one queue
// holds the most recent stores; older stores live in a larger, slower
// level-two buffer whose lookups are avoided by a membership filter
// when no resolved older store can match.
//
// Internally the queue is a struct-of-arrays ring (DESIGN.md §12): the
// fields every Search touches for every entry — tag, resolved address,
// and the resolved bit — live in dense parallel arrays the scan walks
// without loading the cold payload (PC, data), which is only read on a
// match. The resident stores hold handles [head, tail); handle h lives
// at slot h&mask of every array. The arrays are sized to the capacity
// rounded up to a power of two and never grow.
type StoreQueue struct {
	// Hot scan state, one slot per handle.
	tags   []int64
	addrs  []uint64
	addrOK []bool
	// Cold payload, parallel to the hot arrays.
	pcs    []uint64
	data   []uint64
	dataOK []bool

	head, tail int64 // resident handles are [head, tail)
	mask       int64
	cap        int
	// Searches counts associative lookups (loads probing for
	// forwarding).
	Searches uint64

	// Two-level mode (0 = flat queue).
	l1Size     int
	l2Latency  int
	filter     *BloomFilter
	unresolved int // stores whose address is not yet known
	// L2Searches counts searches that had to probe the level-two
	// buffer; L2Filtered counts level-two probes avoided.
	L2Searches, L2Filtered uint64
}

// EnableTwoLevel makes the queue hierarchical: the newest l1Size
// stores are the fast level-one queue; matches found deeper incur
// l2Latency cycles; a membership filter of filterCounters counters
// skips level-two probes that cannot match.
func (q *StoreQueue) EnableTwoLevel(l1Size, l2Latency, filterCounters int) {
	q.l1Size = l1Size
	q.l2Latency = l2Latency
	q.filter = NewBloomFilter(filterCounters, 2)
}

// TwoLevel reports whether the queue is hierarchical.
func (q *StoreQueue) TwoLevel() bool { return q.l1Size > 0 }

// NewStoreQueue creates a queue with the given capacity.
func NewStoreQueue(capacity int) *StoreQueue {
	n := ringSize(capacity)
	return &StoreQueue{
		cap:    capacity,
		mask:   int64(n - 1),
		tags:   make([]int64, n),
		addrs:  make([]uint64, n),
		addrOK: make([]bool, n),
		pcs:    make([]uint64, n),
		data:   make([]uint64, n),
		dataOK: make([]bool, n),
	}
}

// ringSize returns the smallest power of two holding capacity entries,
// so a handle's slot is a mask rather than a division.
func ringSize(capacity int) int {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return n
}

// Len returns the current occupancy.
func (q *StoreQueue) Len() int { return int(q.tail - q.head) }

// Full reports whether another store can be inserted.
func (q *StoreQueue) Full() bool { return q.Len() >= q.cap }

// NextHandle returns the handle the next Insert will assign. A load
// records it at dispatch as its store colour: the resident stores with
// smaller handles are exactly the stores older than the load. A squash
// that frees a handle below the colour also kills the load, so a
// resident load's colour never exceeds NextHandle.
func (q *StoreQueue) NextHandle() int64 { return q.tail }

// Insert adds a store at dispatch and returns its handle; it fails when
// the queue is full. Tags must arrive in increasing order.
func (q *StoreQueue) Insert(tag int64, pc uint64) (int64, bool) {
	if q.Full() {
		return 0, false
	}
	if q.tail > q.head && q.tags[(q.tail-1)&q.mask] >= tag {
		panic("lsq: store tags must be inserted in program order")
	}
	h := q.tail
	i := h & q.mask
	q.tags[i] = tag
	q.addrs[i] = 0
	q.addrOK[i] = false
	q.pcs[i] = pc
	q.data[i] = 0
	q.dataOK[i] = false
	q.tail++
	q.unresolved++
	return h, true
}

// slot returns the array index of the resident store with handle h,
// which must carry the given tag.
func (q *StoreQueue) slot(h, tag int64) int64 {
	i := h & q.mask
	if h < q.head || h >= q.tail || q.tags[i] != tag {
		panic("lsq: store handle does not match its tag")
	}
	return i
}

// SetAddr records the resolved effective address (agen) of the store
// with handle h and the given tag.
func (q *StoreQueue) SetAddr(h, tag int64, addr uint64) {
	i := q.slot(h, tag)
	if !q.addrOK[i] {
		q.unresolved--
		if q.filter != nil {
			q.filter.Insert(addr &^ 7)
		}
	}
	q.addrs[i] = addr
	q.addrOK[i] = true
}

// SetData records the data operand of the store with handle h and the
// given tag.
func (q *StoreQueue) SetData(h, tag int64, data uint64) {
	i := q.slot(h, tag)
	q.data[i] = data
	q.dataOK[i] = true
}

// Entry returns a copy of the entry with the given tag, found by binary
// search (ring order is tag order). It serves the store-set predictor,
// which names a store by tag alone.
func (q *StoreQueue) Entry(tag int64) (StoreEntry, bool) {
	lo, hi := q.head, q.tail
	for lo < hi {
		mid := lo + (hi-lo)/2
		if q.tags[mid&q.mask] < tag {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo & q.mask
	if lo == q.tail || q.tags[i] != tag {
		return StoreEntry{}, false
	}
	return StoreEntry{
		Tag: q.tags[i], PC: q.pcs[i],
		Addr: q.addrs[i], AddrValid: q.addrOK[i],
		Data: q.data[i], DataValid: q.dataOK[i],
	}, true
}

// Search probes for the youngest older store matching addr, as a load
// with the given store colour (NextHandle at its dispatch) would. Word
// (8-byte) granularity. The scan starts just below the colour, so it
// tests only stores older than the load. In two-level mode a match
// found beyond the level-one region reports the level-two latency, and
// the level-two probe is skipped entirely when the membership filter
// proves no resolved store there can match (and no unresolved store
// could alias). The level-two accounting is that of a scan from the
// queue's young end: a search finding no match in level one crosses
// into level two whenever the queue holds any level-two store, even
// one younger than the load.
//
//vbr:hotpath
func (q *StoreQueue) Search(addr uint64, colour int64) SearchResult {
	q.Searches++
	addr &^= 7
	var r SearchResult
	// Handles below l2Top are level two; crossing is pending while the
	// queue holds any.
	l2Top := q.tail - int64(q.l1Size)
	crossing := q.l1Size > 0 && l2Top > q.head
	for h := colour - 1; h >= q.head; h-- {
		if crossing && h < l2Top {
			if q.l2Skipped(addr) {
				return r
			}
			crossing = false
		}
		i := h & q.mask
		if !q.addrOK[i] {
			r.UnresolvedOlder = true
			continue
		}
		if q.addrs[i]&^7 == addr {
			r.Match = true
			r.MatchTag = q.tags[i]
			r.MatchPC = q.pcs[i]
			r.Data = q.data[i]
			r.DataReady = q.dataOK[i]
			if q.l1Size > 0 && h < l2Top {
				r.Latency = q.l2Latency
			}
			return r
		}
	}
	if crossing {
		q.l2Skipped(addr)
	}
	return r
}

// l2Skipped consults the membership filter as a search crosses into
// level two and counts the outcome. With no unresolved stores anywhere
// and a filter miss, nothing deeper can match or alias, so the
// level-two probe is skipped.
func (q *StoreQueue) l2Skipped(addr uint64) bool {
	if q.unresolved == 0 && !q.filter.MayContain(addr) {
		q.L2Filtered++
		return true
	}
	q.L2Searches++
	return false
}

// UnresolvedBefore reports whether any store older than a load with
// the given store colour has an unresolved address.
func (q *StoreQueue) UnresolvedBefore(colour int64) bool {
	for h := q.head; h < colour; h++ {
		if !q.addrOK[h&q.mask] {
			return true
		}
	}
	return false
}

// OldestTag returns the tag of the oldest in-flight store, or -1.
func (q *StoreQueue) OldestTag() int64 {
	if q.head == q.tail {
		return -1
	}
	return q.tags[q.head&q.mask]
}

// HasOlderThan reports whether any store older than tag is in flight.
func (q *StoreQueue) HasOlderThan(tag int64) bool {
	return q.head < q.tail && q.tags[q.head&q.mask] < tag
}

// Remove pops the oldest store, which must carry the given tag (at
// commit, after its cache write). Stores commit in program order, so a
// tag that is not the head means the queue and the ROB disagree.
func (q *StoreQueue) Remove(tag int64) {
	i := q.head & q.mask
	if q.head == q.tail || q.tags[i] != tag {
		panic("lsq: committed store is not the queue head")
	}
	q.drop(i)
	q.head++
}

// Squash removes every store with tag >= fromTag.
func (q *StoreQueue) Squash(fromTag int64) {
	for q.tail > q.head {
		i := (q.tail - 1) & q.mask
		if q.tags[i] < fromTag {
			return
		}
		q.drop(i)
		q.tail--
	}
}

// drop maintains the unresolved count and membership filter as the
// entry at slot i leaves the queue.
func (q *StoreQueue) drop(i int64) {
	if !q.addrOK[i] {
		q.unresolved--
	} else if q.filter != nil {
		q.filter.Remove(q.addrs[i] &^ 7)
	}
}
