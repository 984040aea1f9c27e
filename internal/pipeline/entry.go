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
// consumer holding a pointer to it. Entries are recycled through a
// generation-tagged freelist (pool): every recycle bumps gen, and a
// consumer snapshots its producer's generation at rename, so a read
// through a stale pointer — a pointer that survived its producer's
// recycling, which the squash/unlink invariants forbid — is detected
// instead of silently reading the wrong instruction's result.
type entry struct {
	tag       int64
	pc        uint64
	inst      isa.Inst
	cls       isa.Class // inst.Class(), computed once at fetch
	writesReg bool      // inst.WritesReg(), computed once at dispatch

	// Dataflow. srcN is nil when the operand was ready at dispatch (its
	// value is in srcNVal) or when the instruction does not read slot N.
	src1, src2   *entry
	src1Gen      uint64 // src1's generation at rename
	src2Gen      uint64 // src2's generation at rename
	src1Val      uint64
	src2Val      uint64
	reads1       bool
	reads2       bool
	histSnapshot uint64 // branch-history state at fetch, for repair
	// consumers counts live references held by younger entries' srcN
	// pointers: incremented at rename, decremented when a consumer
	// latches the value (srcReady), is squashed, or is unlinked. When it
	// is zero at commit, unlink's IQ+PSD scan is provably a no-op and
	// skipped.
	consumers int32

	// Scheduling state.
	inIQ   bool
	issued bool
	done   bool
	// resultReady lets consumers read result before done (value
	// prediction delivers results at dispatch).
	resultReady bool
	doneCycle   int64
	result      uint64

	// Branch state.
	isBranch  bool
	predTaken bool
	meta      bpred.Meta
	taken     bool

	// Memory state.
	isLoad, isStore bool
	addr            uint64
	addrValid       bool
	value           uint64 // load premature value / store data
	forwardTag      int64
	loadDone        bool
	agenDone        bool // store address in the store queue
	dataDone        bool // store data in the store queue
	waitStoreTag    int64
	nus             bool // issued past an unresolved store address
	reordered       bool // issued while prior memory ops incomplete

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

	// Value prediction state.
	valuePredicted bool

	// Replay state (value-replay machines).
	replayDecided bool
	needReplay    bool
	replayIssued  bool
	replayCycle   int64
	replayValue   uint64
	replayedOK    bool
	noReplay      bool // forward-progress rule 3 mark

	// gen counts recyclings of this storage slot. It survives the pool's
	// zeroing and is never reset; see pool.get.
	gen uint64
}

// srcReady reports whether operand slot n is available and returns its
// value. On the first ready observation the value is latched into the
// entry and the producer pointer dropped: a producer's result is
// immutable once done/resultReady (a mispredicted value reaches
// consumers only through a squash that kills them), so latching is
// invisible to results while sparing the issue loop's repeated scans a
// pointer chase per operand per cycle.
func (e *entry) srcReady(n int) (uint64, bool) {
	var p *entry
	var v uint64
	var gen uint64
	var reads bool
	if n == 1 {
		p, v, gen, reads = e.src1, e.src1Val, e.src1Gen, e.reads1
	} else {
		p, v, gen, reads = e.src2, e.src2Val, e.src2Gen, e.reads2
	}
	if !reads {
		return 0, true
	}
	if p == nil {
		return v, true
	}
	if p.gen != gen {
		// The producer slot was recycled while this consumer still held a
		// pointer to it. The squash and commit-time unlink invariants make
		// this unreachable; reaching it means the freelist would otherwise
		// have handed this consumer another instruction's result.
		panic("pipeline: consumer read a recycled producer entry")
	}
	if p.done || p.resultReady {
		v = p.result
		p.consumers--
		if n == 1 {
			e.src1 = nil
			e.src1Val = v
		} else {
			e.src2 = nil
			e.src2Val = v
		}
		return v, true
	}
	return 0, false
}

// pool is a generation-tagged freelist of entries. At most ROBSize
// entries are ever live (every entry is in the ROB), so the pool is
// pre-filled from one contiguous slab at core construction and the
// cycle loop never allocates entry storage. Recycling bumps the
// entry's generation (see entry.gen); everything else is zeroed.
type pool struct{ free []*entry }

// init pre-fills the freelist with n slab-backed entries.
func (p *pool) init(n int) {
	slab := make([]entry, n)
	p.free = make([]*entry, n)
	for i := range slab {
		p.free[i] = &slab[i]
	}
}

func (p *pool) get() *entry {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		gen := e.gen
		*e = entry{}
		e.gen = gen + 1
		return e
	}
	return &entry{gen: 1}
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
