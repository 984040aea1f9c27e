// Package pipeline implements the 15-stage, 8-wide out-of-order
// superscalar core of Table 3: fetch with combined branch prediction
// (stopping at the first taken branch per cycle), rename/dispatch into a
// 256-entry reorder buffer and 32-entry issue queue, dataflow issue to
// the Table 3 functional-unit pool, a store queue with forwarding, and
// in-order commit where stores write the L1 data cache. Memory ordering
// is enforced either by a conventional associative load queue (package
// lsq) or by value-based replay (package core), selected by the machine
// configuration.
package pipeline

import (
	"vbmo/internal/bpred"
	"vbmo/internal/consistency"
	"vbmo/internal/isa"
)

// entry is one reorder-buffer entry (a dynamic instruction in flight).
// Dataflow uses direct producer pointers: a consumer is always younger
// than its producers, so a squash that frees a producer also frees every
// consumer holding a pointer to it. A consumer whose producer has not
// produced its result at rename waits on the producer's dependents list
// (deps, threaded through the consumers' next1/next2 links, youngest
// first), and the producer's completion latches the value into every
// waiting consumer and drops the pointer (Core.wake). A producer
// therefore never commits, and is never recycled, while a consumer
// still points at it. Entries are recycled through a generation-tagged
// freelist (pool): every recycle bumps gen, and a consumer snapshots its
// producer's generation at rename, so a read through a stale pointer — a
// pointer that survived its producer's recycling, which the wake and
// squash invariants forbid — is detected instead of silently reading the
// wrong instruction's result.
//
// The fields are ordered eight-byte words first and flags last, so the
// struct packs without padding holes: every dispatch zeroes a whole
// entry (pool.get), and TestEntrySize pins the size.
type entry struct {
	tag          int64
	pc           uint64
	inst         isa.Inst
	histSnapshot uint64 // branch-history state at fetch, for repair

	// Dataflow. srcN is nil once slot N's value is in srcNVal: read at
	// rename from the architectural file or a producer that had its
	// result, or latched by the producer's wake. A slot the instruction
	// does not read stays nil and zero.
	src1, src2 *entry
	src1Gen    uint64 // src1's generation at rename
	src2Gen    uint64 // src2's generation at rename
	src1Val    uint64
	src2Val    uint64
	// deps heads this entry's dependents list: the unissued consumers
	// still waiting for its result, youngest first. A consumer is linked
	// once per distinct producer it waits on, through next1 when that
	// producer is its src1 and through next2 otherwise.
	deps         *entry
	next1, next2 *entry

	doneCycle int64
	result    uint64
	meta      bpred.Meta // branch prediction state

	// Memory state.
	addr         uint64
	value        uint64 // load premature value / store data
	forwardTag   int64
	waitStoreTag int64

	// Queue handles (lsq package comment): a load's load-queue handle
	// and store colour (the store queue's next handle at its dispatch),
	// a store's store-queue handle.
	lqHandle int64
	sqColour int64
	sqHandle int64

	// Provenance (consistency tracking): the identity of the store
	// whose value this load observed, sampled with the value.
	writer       consistency.Writer
	replayWriter consistency.Writer

	// Replay timing (value-replay machines).
	replayCycle int64
	replayValue uint64

	// gen counts recyclings of this storage slot. It survives the pool's
	// zeroing and is never reset; see pool.get.
	gen uint64

	// slot is the entry's index in the reorder buffer's ring, which
	// addresses its bit in the issue stage's ready set.
	slot int32

	cls       isa.Class // inst.Class(), computed once at fetch
	writesReg bool      // inst.WritesReg(), computed once at dispatch

	// Scheduling state.
	inIQ   bool
	issued bool
	done   bool
	// resultReady lets consumers read result before done (value
	// prediction delivers results at dispatch).
	resultReady bool

	// Branch state.
	isBranch  bool
	predTaken bool
	taken     bool

	// Memory flags.
	isLoad, isStore bool
	addrValid       bool
	loadDone        bool
	agenDone        bool // store address in the store queue
	dataDone        bool // store data in the store queue
	nus             bool // issued past an unresolved store address
	reordered       bool // issued while prior memory ops incomplete

	// Value prediction state.
	valuePredicted bool

	// Replay state (value-replay machines).
	replayDecided bool
	needReplay    bool
	replayIssued  bool
	replayedOK    bool
	noReplay      bool // forward-progress rule 3 mark
}

// srcReady reports whether operand slot n holds its value and returns
// it. A slot is ready once its producer pointer is gone (see entry);
// a pointer still held means the producer has not produced its result.
func (e *entry) srcReady(n int) (uint64, bool) {
	p, v, gen := e.src1, e.src1Val, e.src1Gen
	if n != 1 {
		p, v, gen = e.src2, e.src2Val, e.src2Gen
	}
	if p == nil {
		return v, true
	}
	if p.gen != gen {
		// The producer slot was recycled while this consumer still held a
		// pointer to it. Wake-on-complete and the squash's dependents-list
		// trim make this unreachable; reaching it means the freelist would
		// otherwise have handed this consumer another instruction's result.
		panic("pipeline: consumer read a recycled producer entry")
	}
	return 0, false
}

// issueReady reports whether every operand the issue stage needs has
// arrived: both slots, except that a store issues its address
// generation on slot 1 alone (slot 2 is its data, captured separately).
func (e *entry) issueReady() bool {
	return e.src1 == nil && (e.src2 == nil || e.isStore)
}

// pool is a generation-tagged freelist of entries. At most ROBSize
// entries are ever live (every entry is in the ROB), so the pool carves
// at most ROBSize entries in total, in poolChunk-entry slabs as the
// freelist runs dry: a core whose window never fills never pays for the
// rest of the ROB, and once the high-water mark is reached the cycle
// loop never allocates entry storage. Recycling bumps the entry's
// generation (see entry.gen); everything else is zeroed.
type pool struct {
	free []*entry
	left int // entries not yet carved
}

// poolChunk is how many entries one slab carve adds to the freelist.
const poolChunk = 32

// init sizes the freelist for n entries, none carved yet.
func (p *pool) init(n int) {
	p.free = make([]*entry, 0, n)
	p.left = n
}

func (p *pool) get() *entry {
	if len(p.free) == 0 {
		p.refill()
	}
	n := len(p.free)
	e := p.free[n-1]
	p.free = p.free[:n-1]
	gen := e.gen
	*e = entry{}
	e.gen = gen + 1
	return e
}

// refill puts the next slab of entries on the empty freelist. Once all
// ROBSize entries are carved it adds a single heap entry instead: a
// core, whose live entries all sit in its ROB, never gets there.
func (p *pool) refill() {
	n := min(poolChunk, p.left)
	if n == 0 {
		p.free = append(p.free, new(entry))
		return
	}
	p.left -= n
	slab := make([]entry, n)
	for i := range slab {
		p.free = append(p.free, &slab[i])
	}
}

func (p *pool) put(e *entry) { p.free = append(p.free, e) }

// fetched is one instruction in the fetch-to-dispatch buffer.
type fetched struct {
	pc         uint64
	inst       isa.Inst
	cls        isa.Class // inst.Class(), computed once at fetch
	predTaken  bool
	meta       bpred.Meta
	hist       uint64
	readyCycle int64
}
