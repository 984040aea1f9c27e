package pipeline

import (
	"math/bits"

	"vbmo/internal/bpred"
	"vbmo/internal/cache"
	"vbmo/internal/config"
	"vbmo/internal/consistency"
	"vbmo/internal/core"
	"vbmo/internal/deppred"
	"vbmo/internal/fault"
	"vbmo/internal/isa"
	"vbmo/internal/lsq"
	"vbmo/internal/prog"
	"vbmo/internal/trace"
	"vbmo/internal/vpred"
)

// Core is one out-of-order processor core.
type Core struct {
	ID  int
	cfg config.Machine

	prog *prog.Program
	mem  *prog.Image
	hier *cache.Hierarchy
	bp   *bpred.Predictor

	sq     *lsq.StoreQueue
	alq    *lsq.AssocLoadQueue // baseline machines
	eng    *core.Engine        // value-replay machines
	ssets  *deppred.StoreSets
	simple *deppred.Simple
	vp     *vpred.LastValue // optional load-value predictor

	nextTag int64
	rob     entryRing // reorder buffer, capacity ROBSize
	iqLen   int       // issue-queue occupancy: dispatched, unissued entries
	ready   readySet  // issue-queue entries with every issue operand (ready.go)
	pend    pendList  // issued, awaiting completion; preallocated
	psd     []*entry  // stores awaiting data capture; preallocated
	pool    pool

	renameMap [isa.NumRegs]*entry
	arch      prog.ArchState

	fetchPC         uint64
	fetchQ          fetchRing // fetch-to-dispatch buffer, capacity FetchBuf
	fetchStallUntil int64

	dispatchBarrier int64 // membar tag stalling dispatch, -1 when clear

	// replay sequencing. The commit-stage cache port budget is 1 in
	// the paper's design (stores have priority, replays compete); the
	// back-end-ports ablation widens it via ReplayPerCycle.
	portsUsed       int
	storeCommitted  bool
	lastReplayCycle int64
	noReplayPC      uint64 // rule-3 mark for the next dispatch of this PC
	noReplayArmed   bool

	cycle int64

	// ffStall is the dispatch stall counter that accrues during a
	// fast-forward window: Quiescent classifies it, FastForward adds
	// the window's length to it (see quiesce.go).
	ffStall stallKind

	// Stage-skip readiness layer (stageskip.go, DESIGN.md §14): cheap
	// per-stage predicates, maintained at enqueue/dequeue time, that say
	// when a stage's scan provably has no work this cycle. Step elides
	// those scans and Quiescent composes them into the fast-forward
	// predicate. A skipped scan is exactly a scan that would have
	// mutated nothing and counted nothing beyond the issue stage's probe
	// charge, which the skip adds, so skipping is bit-identical to full
	// stepping. The state is kept whatever skipOff says; skipOff (the
	// -no-stageskip escape hatch) only stops Step from reading it.
	skipOff     bool
	wbMinDue    int64 // lower bound on the earliest pending completion cycle
	psdQuiet    bool  // no store-data capture can progress until an event
	commitQuiet bool  // the ROB head cannot commit until an event
	issueQuiet  bool  // no issue-queue entry can act until an event
	replayQuiet bool  // the replay scan cannot act before replayWake until an event
	replayWake  int64 // first in-flight compare's completion cycle, noDue if none
	replayBase  int   // settled ROB prefix the replay scan starts past
	loads       loadTracker
	// The probe charge of a sleeping issue stage: the store-queue
	// searches and simple-predictor waits its last walk counted, which
	// each skipped issue cycle repeats exactly (see issue).
	probeSearches, probeWaits uint64

	// IssueVisits counts the issue-queue entries the issue stage has
	// visited, the issue stage's host-independent work. Like Skip it
	// lives outside Stats, so it never enters a Result.
	IssueVisits uint64

	// Skip counts the stage scans elided by the readiness layer; it
	// lives outside Stats so a skipping run's Result stays bit-identical
	// to a non-skipping one (same contract as the system's FFStats).
	Skip SkipStats

	// CommitHook, if set, observes every committed instruction (the
	// machine-equivalence oracle and the constraint-graph checker).
	CommitHook func(prog.Committed)

	// Fault-injection switches (tests only): disable the baseline's
	// store-agen load-queue search, or the replay machine's value
	// comparison. They exist to prove the oracle and the consistency
	// checker detect the violations these mechanisms prevent.
	faultNoRAWCheck bool
	faultNoReplay   bool

	// Shadow, if set, tracks store identity for the constraint-graph
	// checker: loads sample their value's writer at the same instant
	// they sample the value.
	Shadow *consistency.Shadow
	// storeWriters records recently committed store tags and their writer
	// identities so forwarded loads can resolve provenance at commit; the
	// fixed window (2×ROBSize stores) bounds its size — any forwarding
	// load commits within one ROB generation of its source store. Nil
	// until the first consistency-tracked store commit.
	storeWriters *writerRing
	writerSeq    uint64 // store writer sequence (survives ResetStats)

	// trace, when non-nil, receives the replay-lifecycle event stream
	// (DESIGN.md §6). Every emission site is guarded by one nil check so
	// the disabled path costs nothing; set it with SetTracer.
	trace *trace.Tracer

	// flt, when non-nil, is the adversarial fault injector (DESIGN.md
	// §10): it corrupts premature load values, suppresses filter
	// signals, and tracks each injection to its detection or escape.
	// Same contract as trace: every hook site is one nil check, so a
	// run without faults is bit-identical to an uninstrumented one.
	flt *fault.Injector

	Stats Stats
}

// New builds a core running program p against the shared image, with
// the given cache hierarchy (already attached to its backend/bus).
func New(id int, cfg config.Machine, p *prog.Program, mem *prog.Image, hier *cache.Hierarchy, init prog.ArchState) *Core {
	// A nonzero init.PC selects a per-core entry point within the shared
	// program — litmus tests give every core its own section; SPMD
	// workloads leave PC zero and start at the program entry.
	entryPC := init.PC
	if entryPC == 0 {
		entryPC = p.Entry
	}
	c := &Core{
		ID:              id,
		cfg:             cfg,
		prog:            p,
		mem:             mem,
		hier:            hier,
		bp:              bpred.New(cfg.BP),
		sq:              lsq.NewStoreQueue(cfg.SQSize),
		arch:            init,
		fetchPC:         entryPC,
		dispatchBarrier: -1,
		lastReplayCycle: -1,
		rob:             newEntryRing(cfg.ROBSize),
		fetchQ:          newFetchRing(cfg.FetchBuf),
		ready:           newReadySet(cfg.ROBSize),
		psd:             make([]*entry, 0, cfg.SQSize),
	}
	c.pend.init(cfg.ROBSize)
	c.pool.init(cfg.ROBSize)
	c.loads.init(cfg.ROBSize)
	c.wbMinDue = noDue
	c.arch.PC = entryPC
	if cfg.Scheme == config.ValueReplay {
		c.eng = core.NewEngine(cfg.Filter, cfg.LQSize)
	} else {
		c.alq = lsq.NewAssocLoadQueue(cfg.LQMode, cfg.LQSize)
		if cfg.BloomCounters > 0 {
			hashes := cfg.BloomHashes
			if hashes == 0 {
				hashes = 2
			}
			c.alq.EnableBloom(cfg.BloomCounters, hashes)
		}
	}
	if cfg.SQL1Size > 0 {
		ctrs := cfg.SQFilterCtrs
		if ctrs == 0 {
			ctrs = 1024
		}
		c.sq.EnableTwoLevel(cfg.SQL1Size, cfg.SQL2Latency, ctrs)
	}
	if cfg.UseStoreSets {
		c.ssets = deppred.NewStoreSets(cfg.SSITEntries, cfg.LFSTEntries)
	}
	if cfg.UseValuePrediction && cfg.Scheme == config.ValueReplay {
		n := cfg.VPredEntries
		if n == 0 {
			n = 4096
		}
		c.vp = vpred.New(n)
	}
	c.simple = deppred.NewSimple(cfg.SimpleEntries)
	return c
}

// ValuePredictor exposes the load-value predictor (nil when disabled).
func (c *Core) ValuePredictor() *vpred.LastValue { return c.vp }

// Engine exposes the replay engine (nil on baseline machines).
func (c *Core) Engine() *core.Engine { return c.eng }

// LoadQueue exposes the associative load queue (nil on replay machines).
func (c *Core) LoadQueue() *lsq.AssocLoadQueue { return c.alq }

// StoreQueue exposes the store queue.
func (c *Core) StoreQueue() *lsq.StoreQueue { return c.sq }

// Hierarchy exposes the core's cache hierarchy.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Predictor exposes the branch predictor.
func (c *Core) Predictor() *bpred.Predictor { return c.bp }

// SimplePredictor exposes the 1-bit dependence predictor.
func (c *Core) SimplePredictor() *deppred.Simple { return c.simple }

// Cycle returns the current cycle.
func (c *Core) Cycle() int64 { return c.cycle }

// SetTracer attaches (or, with nil, detaches) the observability event
// stream. It also hooks the events only the queue structures can see
// (the hybrid load queue's snoop marks).
func (c *Core) SetTracer(t *trace.Tracer) {
	c.trace = t
	if c.alq == nil {
		return
	}
	if t == nil {
		c.alq.Emit = nil
		return
	}
	c.alq.Emit = func(kind trace.Kind, tag int64, pc, addr uint64) {
		t.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID), Kind: kind,
			Tag: tag, PC: pc, Addr: addr})
	}
}

// ROBLen returns the reorder buffer's current occupancy.
func (c *Core) ROBLen() int { return c.rob.Len() }

// IQLen returns the issue queue's current occupancy.
func (c *Core) IQLen() int { return c.iqLen }

// LQLen returns the load queue's current occupancy (FIFO queue on
// replay machines, associative queue on baselines).
func (c *Core) LQLen() int {
	if c.eng != nil {
		return c.eng.Queue.Len()
	}
	return c.alq.Len()
}

// SQLen returns the store queue's current occupancy.
func (c *Core) SQLen() int { return c.sq.Len() }

// Step advances the core by one cycle. With the stage-skip readiness
// layer on (the default), each back-end stage scan runs only when its
// predicate says it might act; the skipped scans are exactly the ones
// that would have been no-ops, so both paths are bit-identical
// (DESIGN.md §14).
//
//vbr:hotpath
func (c *Core) Step() {
	c.portsUsed = 0
	c.storeCommitted = false
	if c.skipOff {
		c.writeback()
		c.captureStoreData()
		c.commit()
		if c.eng != nil {
			c.replayStage()
		}
		c.issue()
	} else {
		if c.cycle >= c.wbMinDue {
			c.writeback()
		} else {
			c.Skip.Writeback++
		}
		if len(c.psd) > 0 && !c.psdQuiet {
			c.captureStoreData()
		} else {
			c.Skip.Capture++
		}
		if !c.commitQuiet {
			c.commit()
		} else {
			c.Skip.Commit++
		}
		if c.eng != nil {
			if !c.replayQuiet || c.cycle >= c.replayWake {
				c.replayStage()
			} else {
				c.Skip.Replay++
			}
		}
		if !c.issueQuiet {
			c.issue()
		} else {
			c.Skip.Issue++
			c.chargeProbes(1)
		}
	}
	c.dispatch()
	c.fetch()
	c.Stats.ROBOccupancySum += uint64(c.rob.Len())
	c.Stats.Cycles++
	c.cycle++
}

// ---------------------------------------------------------------------
// Writeback: completions, branch resolution, store agen effects.

func (c *Core) writeback() {
	// Compact the pending list while processing completions. A squash
	// inside the loop truncates c.pend via squashFrom; the tag check
	// keeps iteration safe because we re-filter against the surviving
	// prefix below. The scan recomputes the earliest surviving
	// completion cycle for free, so Step can sleep the stage until it.
	min := noDue
	i := 0
	for i < c.pend.len() {
		if d := c.pend.due[i]; d > c.cycle {
			if d < min {
				min = d
			}
			i++
			continue
		}
		e := c.pend.entries[i]
		if e.done {
			i++
			continue
		}
		c.pend.swapRemove(i)
		if c.complete(e) {
			// A squash occurred; c.pend was rebuilt. Restart.
			i = 0
			min = noDue
		}
	}
	c.wbMinDue = min
}

// complete finishes one instruction; it reports whether a squash
// happened (invalidating iteration state).
func (c *Core) complete(e *entry) bool {
	e.done = true
	e.resultReady = true
	if e.deps != nil {
		c.wake(e)
	}
	// A completion is the wake event for every sleeping back-end stage:
	// it can ready a consumer's operand, a store's data, the head, or a
	// load awaiting its replay decision.
	c.commitQuiet = false
	c.issueQuiet = false
	c.psdQuiet = false
	c.replayQuiet = false
	switch {
	case e.isBranch:
		return c.resolveBranch(e)
	case e.isStore:
		// Store agen completing.
		e.agenDone = true
		c.sq.SetAddr(e.sqHandle, e.tag, e.addr)
		if e.dataDone {
			e.done = true
		} else {
			e.done = false
		}
		if c.alq != nil && !c.faultNoRAWCheck {
			if sqz, found := c.alq.OnStoreAgen(e.addr, e.tag); found {
				c.trainViolation(sqz.PC, e.pc)
				c.Stats.SquashesRAW++
				if c.trace != nil {
					c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
						Kind: trace.KSquash, Reason: trace.RSquashRAW,
						Tag: sqz.Tag, PC: sqz.PC, Addr: e.addr})
				}
				c.squashFrom(sqz.Tag, sqz.PC, false)
				return true
			}
		}
	case e.isLoad:
		e.loadDone = true
		c.loads.remove(e.tag)
	}
	return false
}

func (c *Core) resolveBranch(e *entry) bool {
	src1, _ := e.srcReady(1)
	e.taken = e.inst.BranchTaken(src1)
	if e.inst.IsConditional() {
		c.bp.Update(e.pc, e.taken, e.meta)
	}
	if e.taken {
		c.bp.UpdateTarget(e.pc, c.prog.Target(e.inst, e.pc))
	}
	if e.taken != e.predTaken {
		c.Stats.SquashesMispredict++
		next := c.prog.NextPC(e.inst, e.pc, e.taken)
		if c.trace != nil {
			c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
				Kind: trace.KSquash, Reason: trace.RSquashMispredict,
				Tag: e.tag + 1, PC: e.pc})
		}
		c.squashFrom(e.tag+1, next, true)
		return true
	}
	return false
}

func (c *Core) trainViolation(loadPC, storePC uint64) {
	if c.ssets != nil {
		c.ssets.TrainViolation(loadPC, storePC)
	} else {
		c.simple.TrainViolation(loadPC)
	}
}

// ---------------------------------------------------------------------
// Store data capture.

func (c *Core) captureStoreData() {
	i := 0
	for i < len(c.psd) {
		e := c.psd[i]
		if e.dataDone {
			c.psd[i] = c.psd[len(c.psd)-1]
			c.psd = c.psd[:len(c.psd)-1]
			continue
		}
		if v, ok := e.srcReady(2); ok {
			e.value = v
			e.dataDone = true
			c.sq.SetData(e.sqHandle, e.tag, v)
			if e.agenDone {
				e.done = true
				c.commitQuiet = false // the store may be the ROB head
			}
			c.psd[i] = c.psd[len(c.psd)-1]
			c.psd = c.psd[:len(c.psd)-1]
			continue
		}
		i++
	}
	// Every survivor is blocked on a producer that has not completed;
	// only a completion, a store dispatch, or a squash can change that.
	c.psdQuiet = true
}

// ---------------------------------------------------------------------
// Commit.

func (c *Core) commit() {
	for n := 0; n < c.cfg.Width && c.rob.Len() > 0; n++ {
		e := c.rob.At(0)
		if !e.done {
			// Head blocked on completion: only a completion, a data
			// capture, a replay verdict, or a squash can unblock it, and
			// each of those clears the flag. (The port-limited returns
			// below must NOT sleep: they commit next cycle unaided.)
			c.commitQuiet = true
			return
		}
		if e.isStore {
			if c.storeCommitted || c.portsUsed >= c.portCap() {
				return // one store per cycle through the commit port
			}
			c.storeCommitted = true
			c.portsUsed++
			silent := c.mem.Write(e.addr, e.value)
			if silent {
				c.Stats.SilentStores++
			}
			if c.Shadow != nil {
				w := consistency.MakeWriter(c.ID, c.writerSeq)
				c.writerSeq++
				c.Shadow.Write(e.addr, w, e.value)
				if c.storeWriters == nil {
					c.storeWriters = newWriterRing(2 * c.cfg.ROBSize)
				}
				c.storeWriters.Push(e.tag, w)
			}
			c.hier.Write(e.addr, c.cycle)
			c.Stats.StoreAccesses++
			c.Stats.CommittedStores++
			c.sq.Remove(e.tag)
			if c.ssets != nil {
				c.ssets.StoreRetired(e.pc, e.tag)
			}
		}
		if e.isLoad {
			if c.eng != nil {
				if !e.replayedOK {
					// Must pass replay & compare first; every replayedOK
					// assignment (and squash) clears the flag.
					c.commitQuiet = true
					return
				}
				if c.vp != nil && !e.replayIssued {
					// Filtered loads train the value predictor at
					// commit (replayed loads trained at compare).
					c.vp.Train(e.pc, e.result, false)
				}
				c.eng.Queue.Remove(e.tag)
			} else {
				c.alq.Remove(e.tag)
			}
			if e.valuePredicted {
				c.Stats.ValuePredictedCommitted++
			}
			if c.flt != nil {
				// An injection still unresolved here escaped every check:
				// the corrupted value just became architectural.
				c.flt.OnLoadCommit(c.ID, e.tag, c.cycle)
			}
			c.Stats.CommittedLoads++
		}
		if e.isBranch {
			c.Stats.CommittedBranches++
		}
		if e.writesReg {
			c.arch.WriteReg(e.inst.Dst, e.result)
			if c.renameMap[e.inst.Dst] == e {
				c.renameMap[e.inst.Dst] = nil
			}
		}
		if c.dispatchBarrier == e.tag {
			c.dispatchBarrier = -1
		}
		if c.CommitHook != nil {
			rec := prog.Committed{
				Seq: c.Stats.Committed, PC: e.pc, Op: e.inst.Op,
				Result: e.result, Addr: e.addr, Taken: e.taken,
			}
			if e.isStore {
				rec.Result = e.value
				if c.Shadow != nil {
					// Self-identity for the consistency checker.
					rec.Writer = uint64(c.Shadow.Read(e.addr))
				}
			}
			if e.isLoad && c.Shadow != nil {
				w := e.writer
				if e.forwardTag >= 0 && !e.replayIssued {
					// Non-replayed forwarded loads resolve provenance
					// at commit: the source store has already committed
					// (it is older). Replayed loads already carry their
					// replay-time writer.
					if sw, ok := c.storeWriters.Lookup(e.forwardTag); ok {
						w = sw
					}
				}
				rec.Writer = uint64(w)
			}
			c.CommitHook(rec)
		}
		c.Stats.Committed++
		c.rob.PopFront()
		if c.replayBase > 0 {
			c.replayBase-- // ROB indices shifted down by one
		}
		// The replay window slid: it may now reach a new entry, and a
		// committed store no longer holds younger loads back.
		c.replayQuiet = false
		c.pool.put(e)
	}
	if c.rob.Len() == 0 {
		c.commitQuiet = true // dispatch into an empty ROB clears this
	}
}

// ---------------------------------------------------------------------
// Replay & compare stages (value-replay machines).

//vbr:hotpath
func (c *Core) replayStage() {
	budget := c.cfg.ReplayPerCycle
	depth := c.cfg.ReplayWindow
	if depth > c.rob.Len() {
		depth = c.rob.Len()
	}
	// The settled-prefix cursor: entries below replayBase are known to
	// be non-stores the scan would only continue over (non-loads, or
	// loads already replayedOK — a state that never reverts while the
	// entry is resident), so the scan may resume there instead of
	// rescanning the window head every cycle. Commit shifts it down,
	// squash clamps it.
	start := 0
	if !c.skipOff {
		start = c.replayBase
	}
	// The scan is quiet — it cannot act again before wake until a
	// completion, a commit or a squash — when it stops without acting at
	// a store, an incomplete load, the end of the window, or a machine
	// with no replay port. A replay blocked by a store's port use is
	// not: the port is free again next cycle.
	quiet := true
	wake := noDue
	// Replay and compare are pipelined: one replay may *issue* per
	// cycle even while older replays' compares are pending, but
	// compares complete strictly in program order (olderPending) and a
	// replay miss delays every younger completion (lastReplayCycle).
	olderPending := false
	for i := start; i < depth; i++ {
		e := c.rob.At(i)
		if e.isStore {
			// Constraint 1: all prior stores must have written the
			// cache before any younger load replays.
			break
		}
		if !e.isLoad || e.replayedOK {
			if i == c.replayBase {
				c.replayBase++ // extend the settled prefix
			}
			continue
		}
		if !e.loadDone {
			// Premature execution still in flight; replay is in-order,
			// so nothing younger may replay either.
			break
		}
		fe := c.eng.Queue.Find(e.lqHandle, e.tag)
		if !e.replayDecided {
			quiet = false
			e.replayDecided = true
			e.needReplay = false
			if !c.faultNoReplay {
				var why trace.Reason
				e.needReplay, why = c.eng.Decide(fe)
				if c.trace != nil {
					c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
						Kind: trace.KFilterDecision, Reason: why,
						Tag: e.tag, PC: e.pc, Addr: e.addr})
				}
			}
			if !e.needReplay {
				e.replayedOK = true
				c.commitQuiet = false
				c.eng.OnLoadPassedReplayStage(e.tag)
				if i == c.replayBase {
					c.replayBase++
				}
				continue
			}
		}
		if !e.replayIssued {
			if budget == 0 || c.portsUsed >= c.portCap() {
				// Constraint: replays share the commit-stage port(s)
				// with stores; stores have priority.
				if c.cfg.ReplayPerCycle > 0 {
					quiet = false
				}
				break
			}
			quiet = false
			budget--
			c.portsUsed++
			res := c.hier.ReadReplay(e.addr, c.cycle)
			c.Stats.ReplayAccesses++
			e.replayIssued = true
			// The replayed value is sampled at replay issue: all prior
			// stores have committed, so this is the load's commit-time
			// (sequentially consistent) value.
			e.replayValue = c.mem.Read(e.addr)
			if c.Shadow != nil {
				e.replayWriter = c.Shadow.Read(e.addr)
			}
			if c.trace != nil {
				c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
					Kind: trace.KReplay, Tag: e.tag, PC: e.pc,
					Addr: e.addr, Value: e.replayValue})
			}
			// The compare completes within the compare stage; for an L1
			// hit the result is available with the access latency (the
			// two added pipe stages are latency the window hides, not
			// commit-throughput).
			done := c.cycle + int64(res.Latency)
			// Constraint 2: replays complete in program order; a miss
			// delays every subsequent replay.
			if done <= c.lastReplayCycle {
				done = c.lastReplayCycle + 1
			}
			e.replayCycle = done
			c.lastReplayCycle = done
			olderPending = true
			continue
		}
		if c.cycle < e.replayCycle || olderPending {
			// Compare pending (or an older one is): completions stay
			// in order, but younger replays may still issue. The oldest
			// pending compare completes first.
			if !olderPending {
				wake = e.replayCycle
			}
			olderPending = true
			continue
		}
		quiet = false
		// A replayed load's ordering point is its replay instant: its
		// provenance is the replay-time writer whether or not the value
		// matched. (With a match the values agree, so the value-aware
		// constraint graph treats both attributions consistently; with
		// a mismatch the replay value is the committed one.)
		e.writer = e.replayWriter
		if c.vp != nil {
			c.vp.Train(e.pc, e.replayValue, fe.ValuePredicted)
		}
		if c.eng.OnReplayComplete(fe, e.replayValue) {
			// Value mismatch: the premature load resolved its
			// dependences incorrectly (or a value prediction was
			// wrong). The load keeps the correct (replayed) value;
			// everything younger squashes.
			if c.flt != nil {
				c.flt.OnReplayVerdict(c.ID, e.tag, true, c.cycle)
			}
			premature := e.value
			e.result = e.replayValue
			e.value = e.replayValue
			why := trace.RSquashReplayCons
			switch {
			case fe.ValuePredicted:
				c.Stats.SquashesVPred++
				why = trace.RSquashVPred
			case fe.NUS:
				c.simple.TrainViolation(e.pc)
				c.Stats.SquashesReplayRAW++
				why = trace.RSquashReplayRAW
			default:
				c.Stats.SquashesReplayCons++
			}
			if c.trace != nil {
				c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
					Kind: trace.KValueMismatch, Tag: e.tag, PC: e.pc,
					Addr: e.addr, Value: e.replayValue, Aux: premature})
				c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
					Kind: trace.KSquash, Reason: why,
					Tag: e.tag, PC: e.pc, Addr: e.addr})
			}
			e.replayedOK = true
			if c.cfg.SquashIncludesLoad {
				// Ablation variant: refetch the load itself too; rule 3
				// marks it so it is not replayed again.
				if c.flt == nil || !c.flt.SuppressRule3(c.ID, c.cycle) {
					c.noReplayPC = e.pc
					c.noReplayArmed = true
				}
				c.squashFrom(e.tag, e.pc, false)
			} else {
				c.squashFrom(e.tag+1, e.pc+prog.InstBytes, false)
			}
			return // the squash cleared replayQuiet
		}
		if c.flt != nil {
			c.flt.OnReplayVerdict(c.ID, e.tag, false, c.cycle)
		}
		e.replayedOK = true
		c.commitQuiet = false
	}
	c.replayQuiet, c.replayWake = quiet, wake
}

// ---------------------------------------------------------------------
// Issue.

type fuBudget struct {
	intALU, intMulDiv, fpALU, fpMulDiv, loadPorts, total int
}

func (c *Core) issue() {
	b := fuBudget{
		intALU:    c.cfg.IntALU,
		intMulDiv: c.cfg.IntMulDiv,
		fpALU:     c.cfg.FPALU,
		fpMulDiv:  c.cfg.FPMulDiv,
		loadPorts: c.cfg.LoadPorts,
		total:     c.cfg.Width,
	}
	// Walk the ready set oldest first, under the same per-class and
	// total budgets a scan of the whole queue would apply. An entry
	// still waiting for an operand is not in the set; such an entry
	// could neither issue nor probe, so skipping it changes no decision.
	// The walk reads the ring's slots [head, end) and then [0, head) a
	// word of the set at a time, the head's word twice (high bits first,
	// low bits last), and stops once it has visited every set bit. A
	// mid-walk squash (an insulated/hybrid load-issue search) has
	// already removed the killed entries and ends the cycle.
	searches, waits := c.sq.Searches, c.simple.Waits
	acted := false
	head := c.rob.head
	k0, nw := head>>6, len(c.ready.w)
	left := c.ready.n
	for i := 0; i <= nw && left > 0 && b.total > 0; i++ {
		k := k0 + i
		if k >= nw {
			k -= nw
		}
		w := c.ready.w[k]
		switch i {
		case 0:
			w &= ^uint64(0) << uint(head&63)
		case nw:
			w &= 1<<uint(head&63) - 1
		}
		for ; w != 0 && b.total > 0; w &= w - 1 {
			left--
			c.IssueVisits++
			issued, squashed := c.tryIssue(c.rob.buf[k<<6|bits.TrailingZeros64(w)], &b)
			if squashed {
				return
			}
			if issued {
				acted = true
				b.total--
			}
		}
	}
	// Sleep the stage when this walk provably did nothing and would do
	// nothing else next cycle: nothing issued. Because nothing issued,
	// every per-class budget was still full, so each ready entry failed
	// on a dependence-predictor wait or on a forwarding store's missing
	// data, and every other queued entry still lacks an operand — state
	// only a completion, a dispatch, or a squash can change, and those
	// clear the flag. Until then each cycle's walk would repeat this
	// one's probes, so the probe charge records the lookups they
	// counted and every skipped cycle adds it (chargeProbes). The one
	// exception is a two-level store queue whose searches also counted
	// level-two probes: those depend on the queue's occupancy, which
	// commit changes, so such a walk never sleeps.
	if acted {
		return
	}
	ds := c.sq.Searches - searches
	if ds == 0 || !c.sq.TwoLevel() {
		c.issueQuiet = true
		c.probeSearches, c.probeWaits = ds, c.simple.Waits-waits
	}
}

// leaveIQ takes an issuing entry out of the issue queue.
//
//vbr:hotpath
func (c *Core) leaveIQ(e *entry) {
	e.inIQ = false
	c.iqLen--
	c.ready.remove(e.slot)
}

// chargeProbes adds the probe charge of n skipped issue cycles.
//
//vbr:hotpath
func (c *Core) chargeProbes(n uint64) {
	c.sq.Searches += n * c.probeSearches
	c.simple.Waits += n * c.probeWaits
}

// clearTail nils dropped slots so recycled entries are not pinned by
// the slice's backing array.
func clearTail(s []*entry) {
	for i := range s {
		s[i] = nil
	}
}

// pendPush enters an issued instruction into the pending-completion
// list, lowering the writeback stage's next-wake watermark to cover it.
//
//vbr:hotpath
func (c *Core) pendPush(e *entry) {
	if e.doneCycle < c.wbMinDue {
		c.wbMinDue = e.doneCycle
	}
	c.pend.push(e)
}

// tryIssue attempts to issue one instruction; it reports (issued,
// squashed). A squash can happen when an insulated/hybrid load-issue
// search finds a violation.
func (c *Core) tryIssue(e *entry, b *fuBudget) (bool, bool) {
	switch e.cls {
	case isa.ClassIntALU:
		return c.issueALU(e, &b.intALU, c.cfg.IntLat), false
	case isa.ClassIntMul:
		return c.issueALU(e, &b.intMulDiv, c.cfg.MulLat), false
	case isa.ClassIntDiv:
		return c.issueALU(e, &b.intMulDiv, c.cfg.DivLat), false
	case isa.ClassFPALU:
		return c.issueALU(e, &b.fpALU, c.cfg.FPLat), false
	case isa.ClassFPMul, isa.ClassFPDiv:
		return c.issueALU(e, &b.fpMulDiv, c.cfg.FPLat), false
	case isa.ClassBranch:
		return c.issueBranch(e, &b.intALU), false
	case isa.ClassStore:
		return c.issueStoreAgen(e, &b.intALU), false
	case isa.ClassLoad:
		return c.issueLoad(e, b)
	}
	return false, false
}

func (c *Core) issueALU(e *entry, units *int, lat int) bool {
	if *units == 0 {
		return false
	}
	s1, ok1 := e.srcReady(1)
	s2, ok2 := e.srcReady(2)
	if !ok1 || !ok2 {
		return false
	}
	*units--
	e.issued = true
	c.leaveIQ(e)
	e.result = e.inst.Eval(s1, s2)
	e.doneCycle = c.cycle + int64(lat)
	c.pendPush(e)
	return true
}

func (c *Core) issueBranch(e *entry, units *int) bool {
	if *units == 0 {
		return false
	}
	if _, ok := e.srcReady(1); !ok {
		return false
	}
	*units--
	e.issued = true
	c.leaveIQ(e)
	e.doneCycle = c.cycle + int64(c.cfg.IntLat)
	c.pendPush(e)
	return true
}

func (c *Core) issueStoreAgen(e *entry, units *int) bool {
	if e.agenDone || e.issued {
		return false
	}
	if *units == 0 {
		return false
	}
	s1, ok := e.srcReady(1)
	if !ok {
		return false
	}
	*units--
	e.addr = e.inst.EffAddr(s1)
	// Agen bypass: the resolved address is visible to store-queue
	// searches in the same cycle (loads stop seeing this store as
	// unresolved immediately); the load-queue violation search and the
	// agenDone ordering flag still take effect at writeback.
	c.sq.SetAddr(e.sqHandle, e.tag, e.addr)
	e.issued = true
	c.leaveIQ(e)
	e.doneCycle = c.cycle + int64(c.cfg.IntLat)
	c.pendPush(e)
	return true
}

func (c *Core) issueLoad(e *entry, b *fuBudget) (bool, bool) {
	if b.loadPorts == 0 {
		return false, false
	}
	s1, ok := e.srcReady(1)
	if !ok {
		return false, false
	}
	addr := e.inst.EffAddr(s1)
	// Dependence predictor constraints.
	if e.waitStoreTag >= 0 {
		if se, ok := c.sq.Entry(e.waitStoreTag); ok && !se.AddrValid {
			return false, false // store-set: wait for the store's agen
		}
		e.waitStoreTag = -1
	}
	simpleWait := c.ssets == nil && c.simple.ShouldWait(e.pc)
	if simpleWait && c.sq.UnresolvedBefore(e.sqColour) {
		return false, false // simple predictor: wait for all prior agens
	}
	r := c.sq.Search(addr, e.sqColour)
	if r.Match && !r.DataReady {
		return false, false // forwarding store's data not ready yet
	}
	b.loadPorts--
	e.addr = addr
	e.addrValid = true
	e.issued = true
	c.leaveIQ(e)
	e.forwardTag = -1
	e.nus = r.UnresolvedOlder
	if e.nus && c.flt != nil && c.flt.SuppressNUS(c.ID, c.cycle) {
		e.nus = false // injected fault: blind the RAW filter input
	}
	if e.nus {
		c.Stats.LoadsNUSFlagged++
	}
	e.reordered = c.priorMemIncomplete(e)
	if e.reordered {
		c.Stats.LoadsReordered++
	}
	var lat int
	if r.Match {
		// Store-to-load forwarding: value from the store queue. A
		// hierarchical store queue's level-two matches forward slower.
		if !e.valuePredicted {
			e.value = r.Data
		}
		e.forwardTag = r.MatchTag
		lat = c.cfg.Hier.L1D.Latency
		if r.Latency > lat {
			lat = r.Latency
		}
		c.Stats.ForwardedLoads++
	} else {
		res := c.hier.Read(e.pc, addr, c.cycle)
		c.Stats.DemandLoadAccesses++
		if !e.valuePredicted {
			// A value-predicted load's "premature value" IS the
			// prediction; the cache access warms the block the replay
			// will verify against.
			e.value = c.mem.Read(addr)
			if c.Shadow != nil {
				e.writer = c.Shadow.Read(addr)
			}
		}
		lat = res.Latency
	}
	if c.flt != nil && !e.valuePredicted {
		// A predicted value is not a datapath sample, so it is exempt;
		// forwarded values are LoadValue-eligible only, demand reads may
		// also take a CacheData array fault.
		if v, ok := c.flt.CorruptLoadValue(c.ID, e.tag, e.pc, addr, e.value, !r.Match, c.cycle); ok {
			e.value = v
		}
	}
	e.result = e.value
	e.doneCycle = c.cycle + int64(lat)
	c.pendPush(e)
	if c.trace != nil {
		var flags uint64
		if r.Match {
			flags |= trace.FlagForwarded
		}
		if e.nus {
			flags |= trace.FlagNUS
		}
		if e.reordered {
			flags |= trace.FlagReordered
		}
		if e.valuePredicted {
			flags |= trace.FlagVPred
		}
		c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
			Kind: trace.KLoadIssue, Tag: e.tag, PC: e.pc,
			Addr: e.addr, Value: e.value, Aux: flags})
	}

	if c.eng != nil {
		fe := c.eng.Queue.Find(e.lqHandle, e.tag)
		fe.Addr = e.addr
		fe.Value = e.value
		fe.Issued = true
		fe.Forwarded = r.Match
		fe.NUS = e.nus
		fe.Reordered = e.reordered
		fe.NoReplay = e.noReplay
		fe.ValuePredicted = e.valuePredicted
		return true, false
	}
	if sqz, found := c.alq.OnIssue(e.lqHandle, e.tag, e.addr, e.forwardTag); found {
		// Insulated/hybrid load-issue search found a younger issued
		// load to the same address (Figure 1(c)).
		c.Stats.SquashesLoadIssue++
		if c.trace != nil {
			c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
				Kind: trace.KSquash, Reason: trace.RSquashLoadIssue,
				Tag: sqz.Tag, PC: sqz.PC, Addr: e.addr})
		}
		c.squashFrom(sqz.Tag, sqz.PC, false)
		return true, true
	}
	return true, false
}

// priorMemIncomplete reports whether any older memory operation is
// still incomplete (prior load not done, or prior store address
// unresolved) — the no-reorder filter's issue-time condition. A store
// is incomplete until it commits (writes the cache), and the store
// queue holds exactly the dispatched-uncommitted stores, so its oldest
// tag answers the store half in O(1); the loadTracker's sorted
// incomplete-load tags answer the load half with one comparison. Both
// are exact replacements for the former O(ROB) entry walk, not
// approximations.
//
//vbr:hotpath
func (c *Core) priorMemIncomplete(e *entry) bool {
	return c.sq.HasOlderThan(e.tag) || c.loads.hasBefore(e.tag)
}

// ---------------------------------------------------------------------
// Dispatch.

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.Width; n++ {
		if c.fetchQ.Len() == 0 || c.fetchQ.Front().readyCycle > c.cycle {
			return
		}
		if c.dispatchBarrier >= 0 {
			c.Stats.StallBarrier++
			return
		}
		if c.rob.Len() >= c.cfg.ROBSize {
			c.Stats.StallROB++
			return
		}
		f := c.fetchQ.Front()
		cls := f.cls
		needIQ := cls != isa.ClassNop && cls != isa.ClassMembar
		if needIQ && c.iqLen >= c.cfg.IQSize {
			c.Stats.StallIQ++
			return
		}
		switch cls {
		case isa.ClassLoad:
			if c.lqFull() {
				c.Stats.StallLQ++
				return
			}
		case isa.ClassStore:
			if c.sq.Full() {
				c.Stats.StallSQ++
				return
			}
		}
		c.fetchQ.DropFront()
		c.dispatchOne(f) // f stays valid: the slot is not reused until a push
	}
}

func (c *Core) dispatchOne(f *fetched) {
	e := c.pool.get()
	e.tag = c.nextTag
	c.nextTag++
	e.pc = f.pc
	e.inst = f.inst
	e.cls = f.cls
	e.predTaken = f.predTaken
	e.meta = f.meta
	e.histSnapshot = f.hist
	e.waitStoreTag = -1
	e.forwardTag = -1
	e.doneCycle = -1

	// Rename: bind sources to producers (entry.bind) or architectural
	// values.
	if f.inst.ReadsReg(1) {
		if p := c.renameMap[f.inst.Src1]; p != nil {
			e.bind(1, p)
		} else {
			e.src1Val = c.arch.ReadReg(f.inst.Src1)
		}
	}
	if f.inst.ReadsReg(2) {
		if p := c.renameMap[f.inst.Src2]; p != nil {
			e.bind(2, p)
		} else {
			e.src2Val = c.arch.ReadReg(f.inst.Src2)
		}
	}
	e.writesReg = f.inst.WritesReg()
	if e.writesReg {
		c.renameMap[f.inst.Dst] = e
	}

	switch f.cls {
	case isa.ClassNop:
		e.done = true
		e.doneCycle = c.cycle
	case isa.ClassMembar:
		e.done = true
		e.doneCycle = c.cycle
		c.dispatchBarrier = e.tag
	case isa.ClassBranch:
		e.isBranch = true
		e.inIQ = true
	case isa.ClassLoad:
		e.isLoad = true
		e.inIQ = true
		c.loads.add(e.tag)
		e.sqColour = c.sq.NextHandle()
		if c.vp != nil && !(c.noReplayArmed && e.pc == c.noReplayPC) {
			if v, ok := c.vp.Predict(e.pc); ok {
				// Consumers may use the predicted value immediately;
				// the replay/compare stages verify it before commit.
				e.valuePredicted = true
				e.result = v
				e.value = v
				e.resultReady = true
				c.Stats.ValuePredictedLoads++
			}
		}
		if c.eng != nil {
			e.lqHandle, _ = c.eng.Queue.Insert(e.tag, e.pc)
			if c.noReplayArmed && e.pc == c.noReplayPC {
				// Forward-progress rule 3: the refetched instance of a
				// load that caused a replay squash is not replayed.
				e.noReplay = true
				c.noReplayArmed = false
			}
		} else {
			e.lqHandle, _ = c.alq.Insert(e.tag, e.pc)
			if c.ssets != nil {
				e.waitStoreTag = c.ssets.LoadDispatched(e.pc)
			}
		}
	case isa.ClassStore:
		e.isStore = true
		e.inIQ = true
		e.sqHandle, _ = c.sq.Insert(e.tag, e.pc)
		c.psd = append(c.psd, e)
		c.psdQuiet = false
		if c.ssets != nil {
			c.ssets.StoreDispatched(e.pc, e.tag)
		}
	default:
		e.inIQ = true
	}
	c.rob.Push(e)
	if e.inIQ {
		c.iqLen++
		if e.issueReady() {
			c.ready.add(e.slot)
		}
	}
	// Dispatch wakes the issue stage (a new queue entry) and, when the
	// ROB was empty, commit (the new head may already be done).
	c.issueQuiet = false
	if c.rob.Len() == 1 {
		c.commitQuiet = false
	}
}

// ---------------------------------------------------------------------
// Fetch.

func (c *Core) fetch() {
	if c.cycle < c.fetchStallUntil {
		return
	}
	if c.fetchQ.Len() >= c.cfg.FetchBuf {
		return
	}
	// One instruction-cache access per fetch cycle.
	ifres := c.hier.InstrFetch(c.fetchPC)
	if ifres.Latency > c.cfg.Hier.L1I.Latency {
		c.fetchStallUntil = c.cycle + int64(ifres.Latency)
		return
	}
	ready := c.cycle + int64(c.cfg.FrontEndDepth)
	for n := 0; n < c.cfg.Width && c.fetchQ.Len() < c.cfg.FetchBuf; n++ {
		in, ok := c.prog.Fetch(c.fetchPC)
		if !ok {
			in = isa.Inst{Op: isa.OpNop} // wrong-path filler
		}
		cls := in.Class()
		f := c.fetchQ.PushSlot()
		f.pc = c.fetchPC
		f.inst = in
		f.cls = cls
		f.readyCycle = ready
		f.hist = c.bp.History()
		if cls == isa.ClassBranch {
			f.predTaken, f.meta = c.bp.PredictInst(in, c.fetchPC)
		}
		if cls == isa.ClassBranch && f.predTaken {
			target := c.prog.Target(in, c.fetchPC)
			if _, hit := c.bp.PredictTarget(c.fetchPC); !hit {
				// BTB miss on a predicted-taken branch: one bubble while
				// decode computes the target.
				c.fetchStallUntil = c.cycle + 2
			}
			c.fetchPC = target
			return // fetch stops at the first taken branch (Table 3)
		}
		c.fetchPC += prog.InstBytes
	}
}

// ---------------------------------------------------------------------
// Squash.

// squashFrom kills every instruction with tag >= fromTag, redirects
// fetch to newPC, and repairs rename/predictor state. When
// branchRepair is true the branch's own Update already fixed global
// history; otherwise history is restored from the oldest killed
// instruction's snapshot.
func (c *Core) squashFrom(fromTag int64, newPC uint64, branchRepair bool) {
	if c.flt != nil {
		// Pending injections on killed loads leave the machine with them.
		c.flt.OnSquash(c.ID, fromTag, c.cycle)
	}
	// Find the cut point: ROB tags increase from head to tail, so the
	// first killed entry is a binary search away.
	robLen := c.rob.Len()
	cut, hi := 0, robLen
	for cut < hi {
		mid := int(uint(cut+hi) >> 1)
		if c.rob.At(mid).tag < fromTag {
			cut = mid + 1
		} else {
			hi = mid
		}
	}
	if !branchRepair {
		if cut < robLen {
			c.bp.SetHistory(c.rob.At(cut).histSnapshot)
		} else if c.fetchQ.Len() > 0 {
			// Nothing in the ROB was killed, but the fetch buffer holds
			// speculative predictions that polluted global history.
			c.bp.SetHistory(c.fetchQ.Front().hist)
		}
	}
	c.Stats.SquashedInstrs += uint64(robLen-cut) + uint64(c.fetchQ.Len())
	// Recycle the killed entries (oldest first, matching the old append
	// order) before the ring drops its references. Each killed consumer
	// still waiting on a surviving producer leaves that producer's
	// dependents list, killed queue entries leave the issue queue and
	// its ready set, and killed loads leave the incomplete-load tracker.
	for i := cut; i < robLen; i++ {
		e := c.rob.At(i)
		if p := e.src1; p != nil && p.tag < fromTag {
			p.trimDeps(fromTag)
		}
		if p := e.src2; p != nil && p.tag < fromTag {
			p.trimDeps(fromTag)
		}
		if e.inIQ {
			c.iqLen--
			c.ready.remove(e.slot)
		}
		if e.isLoad {
			c.loads.remove(e.tag)
		}
		c.pool.put(e)
	}
	c.rob.TruncateFrom(cut)
	// Wake every sleeping stage: occupancies and readiness changed. The
	// settled-prefix replay cursor clamps to the surviving prefix.
	c.issueQuiet = false
	c.psdQuiet = false
	c.commitQuiet = false
	c.replayQuiet = false
	if c.replayBase > cut {
		c.replayBase = cut
	}

	// Rebuild the rename map from survivors.
	for i := range c.renameMap {
		c.renameMap[i] = nil
	}
	for i := 0; i < cut; i++ {
		e := c.rob.At(i)
		if e.writesReg {
			c.renameMap[e.inst.Dst] = e
		}
	}

	// Filter the side lists.
	c.pend.filterOlder(fromTag)
	c.psd = filterOlder(c.psd, fromTag)

	c.sq.Squash(fromTag)
	if c.alq != nil {
		c.alq.Squash(fromTag)
	}
	if c.eng != nil {
		c.eng.OnSquash(fromTag)
	}
	if c.ssets != nil {
		c.ssets.SquashTag(fromTag)
	}
	if c.dispatchBarrier >= fromTag {
		c.dispatchBarrier = -1
	}

	c.fetchQ.Clear()
	c.fetchPC = newPC
	// Redirect takes effect next cycle.
	if c.fetchStallUntil <= c.cycle {
		c.fetchStallUntil = c.cycle + 1
	}
}

func filterOlder(s []*entry, fromTag int64) []*entry {
	out := s[:0]
	for _, e := range s {
		if e.tag < fromTag {
			out = append(out, e)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// External events (wired by the system package).

// HandleExternalInvalidation processes an invalidation (or castout)
// observed by this core: baseline snooping/hybrid load queues search and
// possibly squash; the no-recent-snoop filter opens its replay window.
func (c *Core) HandleExternalInvalidation(block uint64) {
	if c.trace != nil {
		c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
			Kind: trace.KSnoopInval, Addr: block})
	}
	if c.alq != nil {
		commitTag := int64(-1)
		if c.rob.Len() > 0 {
			commitTag = c.rob.At(0).tag
		}
		sqz, found := c.alq.OnInvalidation(block, commitTag)
		if found {
			c.Stats.SquashesInval++
			if c.trace != nil {
				c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
					Kind: trace.KSquash, Reason: trace.RSquashInval,
					Tag: sqz.Tag, PC: sqz.PC, Addr: block})
			}
			c.squashFrom(sqz.Tag, sqz.PC, false)
		}
		return
	}
	if c.eng.Filter.NeedsSnoopEvents() {
		if c.flt != nil && c.flt.SuppressWindow(c.ID, c.cycle) {
			return // injected fault: the NRS window never opens
		}
		c.eng.NoteExternalEvent(c.eng.Queue.YoungestTag())
	}
}

// HandleExternalFill feeds the no-recent-miss filter: a block entered
// the local hierarchy from an external source.
func (c *Core) HandleExternalFill(block uint64) {
	if c.trace != nil {
		c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
			Kind: trace.KExtFill, Addr: block})
	}
	if c.eng != nil && c.eng.Filter.NeedsMissEvents() {
		if c.flt != nil && c.flt.SuppressWindow(c.ID, c.cycle) {
			return // injected fault: the NRM window never opens
		}
		c.eng.NoteExternalEvent(c.eng.Queue.YoungestTag())
	}
}

// portCap returns the commit-stage cache port count (1 in the paper).
func (c *Core) portCap() int {
	if c.cfg.ReplayPerCycle > 1 {
		return c.cfg.ReplayPerCycle
	}
	return 1
}

// ResetStats zeroes every statistics counter on the core and its
// attached structures (used after cache warmup so measurements reflect
// steady state). Architectural and microarchitectural state persist.
func (c *Core) ResetStats() {
	c.Stats = Stats{}
	c.Skip = SkipStats{}
	c.IssueVisits = 0
	c.hier.Stats = cache.Stats{}
	c.bp.Lookups, c.bp.Mispredicts = 0, 0
	if c.eng != nil {
		c.eng.Stats = core.Stats{}
	}
	if c.alq != nil {
		c.alq.Searches = 0
		c.alq.SearchedEntries = 0
		c.alq.RAWSquashes = 0
		c.alq.InvalSquashes = 0
		c.alq.IssueSquashes = 0
	}
	c.sq.Searches = 0
	c.simple.Trainings, c.simple.Waits = 0, 0
	if c.ssets != nil {
		c.ssets.Violations, c.ssets.Dependences = 0, 0
	}
}

// ArchState returns a copy of the committed architectural state.
func (c *Core) ArchState() prog.ArchState { return c.arch }
