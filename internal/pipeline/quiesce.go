// Quiescence detection for the system's cycle-skipping fast-forward
// (DESIGN.md §12). A core is quiescent when stepping it one cycle would
// change nothing observable except the deterministic per-cycle
// accounting: the cycle counter, the ROB-occupancy integral, at most
// one dispatch stall counter, and the sleeping issue stage's probe
// charge (the store-queue searches and predictor waits of loads that
// re-probe every cycle). Quiescent reads that answer from the
// stage-skip readiness state (stageskip.go, DESIGN.md §14) — the same
// watermark and quiet flags Step consults — plus O(1) dispatch and
// fetch checks, so it walks no queue; FastForward then replicates the
// per-cycle accounting for a whole window of such cycles at once. The
// system composes the per-core predicate with the machine-level wake
// sources (DMA, deferred fault deliveries, watchdog deadlines,
// snapshot boundaries) in internal/system.

package pipeline

import "vbmo/internal/isa"

// stallKind identifies which dispatch stall counter accrues once per
// cycle while the core is quiescent (stallNone when dispatch is idle:
// fetch buffer empty or its front not yet through the front end).
type stallKind uint8

const (
	stallNone stallKind = iota
	stallBarrier
	stallROB
	stallIQ
	stallLQ
	stallSQ
)

// Quiescent reports whether stepping the core this cycle would be a
// no-op apart from the deterministic per-cycle accounting FastForward
// replicates. When quiescent, wake is the earliest future cycle, on
// the core's own clock (Cycle), at which the core might act again
// (math.MaxInt64 when it is inert until an external event), and the
// dispatch stall kind of the window is recorded for FastForward.
//
// The back-end stages are quiet exactly when the readiness layer would
// skip them: no pending completion due, store-data capture and commit
// and issue flagged quiet, and (value-replay machines) the replay scan
// flagged quiet before its next compare completion. The layer keeps
// that state in every Options combination, so the answer does not
// depend on whether Step reads it.
//
//vbr:hotpath
func (c *Core) Quiescent() (wake int64, ok bool) {
	now := c.cycle
	if now >= c.wbMinDue || !c.commitQuiet || !c.issueQuiet ||
		(len(c.psd) > 0 && !c.psdQuiet) ||
		(c.eng != nil && (!c.replayQuiet || now >= c.replayWake)) {
		return noDue, false
	}
	wake = c.wbMinDue
	if c.eng != nil && c.replayWake < wake {
		wake = c.replayWake
	}

	// Dispatch: either idle (front-end empty or front not ready, with
	// its ready cycle as wake), deterministically stalled (one stall
	// counter accrues per cycle; record which), or it would dispatch.
	c.ffStall = stallNone
	if c.fetchQ.Len() > 0 {
		f := c.fetchQ.Front()
		if f.readyCycle > now {
			if f.readyCycle < wake {
				wake = f.readyCycle
			}
		} else {
			needIQ := f.cls != isa.ClassNop && f.cls != isa.ClassMembar
			switch {
			case c.dispatchBarrier >= 0:
				c.ffStall = stallBarrier
			case c.rob.Len() >= c.cfg.ROBSize:
				c.ffStall = stallROB
			case needIQ && c.iqLen >= c.cfg.IQSize:
				c.ffStall = stallIQ
			case f.cls == isa.ClassLoad && c.lqFull():
				c.ffStall = stallLQ
			case f.cls == isa.ClassStore && c.sq.Full():
				c.ffStall = stallSQ
			default:
				return noDue, false // the front instruction would dispatch
			}
		}
	}

	// Fetch: stalled-with-deadline wakes at the deadline; a non-full
	// fetch buffer means an instruction-cache access (which mutates
	// cache state and counters) would happen.
	if now < c.fetchStallUntil {
		if c.fetchStallUntil < wake {
			wake = c.fetchStallUntil
		}
	} else if c.fetchQ.Len() < c.cfg.FetchBuf {
		return noDue, false
	}
	return wake, true
}

// lqFull reports whether the load queue (FIFO on replay machines,
// associative on baselines) is at capacity.
func (c *Core) lqFull() bool {
	if c.eng != nil {
		return c.eng.Queue.Full()
	}
	return c.alq.Full()
}

// FastForward advances the core n cycles without stepping it. The
// caller must have established via Quiescent (with no intervening
// Step or external event) that every skipped cycle is a no-op apart
// from the deterministic per-cycle accounting replicated here: the
// cycle counter, the ROB-occupancy integral, the dispatch stall
// counter Quiescent recorded, and the issue stage's probe charge.
//
//vbr:hotpath
func (c *Core) FastForward(n int64) {
	c.cycle += n
	c.Stats.Cycles += n
	c.Stats.ROBOccupancySum += uint64(n) * uint64(c.rob.Len())
	k := uint64(n)
	c.chargeProbes(k)
	switch c.ffStall {
	case stallBarrier:
		c.Stats.StallBarrier += k
	case stallROB:
		c.Stats.StallROB += k
	case stallIQ:
		c.Stats.StallIQ += k
	case stallLQ:
		c.Stats.StallLQ += k
	case stallSQ:
		c.Stats.StallSQ += k
	}
}
