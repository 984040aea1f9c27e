// The quiescence fast-forward (DESIGN.md §12): when every unfinished
// core is quiescent and no machine-level event is due, Advance jumps
// the cycle counter to the earliest scheduled wake event instead of
// stepping through dead cycles one by one. A core is quiescent when
// its stage-skip readiness state (DESIGN.md §14) proves every back-end
// stage idle and its dispatch and fetch are idle or deterministically
// stalled (pipeline.Core.Quiescent, an O(1) read). The skip is
// bit-identical to plain stepping: the per-core predicate vetoes any
// cycle that would mutate anything beyond the deterministic per-cycle
// accounting, and the window is capped by every machine-level wake
// source — the next DMA burst, the next deferred fault delivery, the
// watchdog's deadlock and storm-scan deadlines, the next metrics
// snapshot, and the run's cycle bound. The probe is cheap enough to
// run on every cycle.

package system

// FFStats reports fast-forward activity over a run's lifetime.
type FFStats struct {
	// Windows is the number of quiescent windows skipped.
	Windows int64 `json:"windows"`
	// SkippedCycles is the total cycles fast-forwarded (already included
	// in CycleNum and every core's Stats.Cycles).
	SkippedCycles int64 `json:"skipped_cycles"`
	// SkippedCoreCycles is the total core-cycles fast-forwarded: each
	// window adds its length once per core it advanced. Cores that had
	// already finished sit a window out, so this can be less than
	// SkippedCycles times the core count.
	SkippedCoreCycles int64 `json:"skipped_core_cycles"`
}

// FastForwardStats returns the run's fast-forward accounting (zero when
// the skip never engaged or was disabled).
func (s *System) FastForwardStats() FFStats { return s.ff }

// tryFastForward attempts one quiescence skip. It returns true after
// jumping the machine (cores fast-forwarded, CycleNum advanced) to the
// earliest wake event, and false when any unfinished core is not
// quiescent or an event is due this cycle. Finished cores (committed
// past target) are not stepped by Advance and are likewise neither
// consulted nor advanced here.
//
//vbr:hotpath
func (s *System) tryFastForward(target uint64, maxCycles int64) bool {
	now := s.CycleNum
	w := maxCycles
	// Cores first: on a busy machine the first core vetoes the skip
	// before any machine-level source is consulted.
	for _, c := range s.Cores {
		if c.Stats.Committed >= target {
			continue
		}
		wake, ok := c.Quiescent()
		if !ok {
			return false
		}
		// A core that reached an earlier Advance target sat out the
		// cycles until this call, so its clock trails the machine's:
		// its wake counts from its own cycle.
		if d := wake - c.Cycle(); d < w-now {
			w = now + d
		}
	}
	if s.DMA != nil && s.DMA.Interval > 0 {
		next := s.DMA.NextAt()
		if next <= now {
			return false // a DMA burst fires this cycle
		}
		if next < w {
			w = next
		}
	}
	if s.Faults != nil {
		if due, ok := s.Faults.NextDue(); ok {
			if due <= now {
				return false // a deferred message delivers this cycle
			}
			if due < w {
				w = due
			}
		}
	}
	if s.wd != nil {
		// The watchdog's deadlock check and storm scan run on exact
		// cycles and mutate its state; skip to just before each so the
		// normal loop executes them at the same cycle it always would.
		if d := s.wd.lastCommit + s.wd.window - 1; d < w {
			w = d
		}
		if d := s.wd.nextStormScan - 1; d < w {
			w = d
		}
	}
	if s.snapInterval > 0 {
		// The next snapshot fires when the post-increment cycle count
		// reaches a multiple of the interval; stop one short so the
		// normal loop takes the sample.
		next := (now/s.snapInterval+1)*s.snapInterval - 1
		if next < w {
			w = next
		}
	}
	n := w - now
	if n <= 0 {
		return false
	}
	for _, c := range s.Cores {
		if c.Stats.Committed < target {
			c.FastForward(n)
			s.ff.SkippedCoreCycles += n
		}
	}
	s.CycleNum = w
	s.ff.Windows++
	s.ff.SkippedCycles += n
	return true
}
