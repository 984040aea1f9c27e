package pipeline

import (
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/workload"
)

// TestIssueQueueOccupancyAfterLoadIssueSquash runs the insulated
// baseline, whose load-issue search squashes in the middle of an issue
// walk, and checks after every cycle that the issue bookkeeping matches
// the full scan of FuzzIssueWakeup (the occupancy count is the number
// of distinct unissued entries), and that dispatch never stalls on a
// full queue holding fewer than IQSize of them. A whole-queue scan that
// returned with its in-place compaction half done once left survivors
// in the queue twice, inflating occupancy and stalling dispatch early.
func TestIssueQueueOccupancyAfterLoadIssueSquash(t *testing.T) {
	cfg, _ := config.ByName("baseline-insulated")
	for _, name := range []string{"parser", "vortex"} {
		t.Run(name, func(t *testing.T) {
			work, _ := workload.ByName(name)
			c, _ := mkCore(cfg, workload.Generate(work, 42), workload.InitState(work, 0, 42))
			const n = 40000
			for cyc := 0; c.Stats.Committed < n; cyc++ {
				if cyc > 40*n {
					t.Fatalf("core stalled at %d committed", c.Stats.Committed)
				}
				stalls := c.Stats.StallIQ
				c.Step()
				if err := checkIssueState(c); err != nil {
					t.Fatalf("cycle %d: %v", c.cycle, err)
				}
				if c.Stats.StallIQ > stalls && c.IQLen() < cfg.IQSize {
					t.Fatalf("cycle %d: IQ-full dispatch stall with %d distinct unissued entries (IQSize %d)",
						c.cycle, c.IQLen(), cfg.IQSize)
				}
			}
			if c.Stats.SquashesLoadIssue == 0 {
				t.Fatal("no load-issue squash happened; the test no longer reaches the mid-walk squash")
			}
		})
	}
}
