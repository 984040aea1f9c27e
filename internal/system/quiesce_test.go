// Fast-forward specific tests (DESIGN.md §12): engagement on the
// stall-bound shapes the skip exists for, suspension under a per-cycle
// hook, and the machine-level wake caps. Bit-identity against plain
// stepping is the shared harness's job (identity_test.go).

package system

import (
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/fault"
	"vbmo/internal/workload"
)

// ffEngageFloor is the least share of cycles the engagement cases must
// fast-forward.
const ffEngageFloor = 0.6

// TestFastForwardEngagesOnSpin asserts the skip actually fires on the
// latency-bound workloads it was built for, on baseline and on
// value-replay machines — a guard against the predicate silently
// degrading into "never quiescent". On replay machines every spin
// load waits for its replay compare, so this also pins that the replay
// stage's quiet flag carries its share of the predicate.
func TestFastForwardEngagesOnSpin(t *testing.T) {
	cases := []identityCase{
		{"baseline", "baseline", "spin", 1, 3000, 0, 1},
		{"no-recent-snoop", "no-recent-snoop", "spin", 1, 3000, 0, 1},
		{"replay-all", "replay-all", "spin", 1, 3000, 0, 1},
		{"spin-mp-16", "baseline", "spin-mp", 16, 600, 0, 1},
		{"spin-mp-16-replay", "replay-all", "spin-mp", 16, 600, 0, 1},
		{"spin-mp-16-windows", "baseline", "spin-mp", 16, 600, 0, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := runLayers(t, tc, 42, layers{}).s
			ff := s.FastForwardStats()
			frac := float64(ff.SkippedCycles) / float64(s.CycleNum)
			t.Logf("skipped %.1f%% of cycles (%d of %d) in %d windows",
				100*frac, ff.SkippedCycles, s.CycleNum, ff.Windows)
			if frac < ffEngageFloor {
				t.Errorf("fast-forward skipped only %.1f%% of cycles (%d of %d), floor %.0f%%",
					100*frac, ff.SkippedCycles, s.CycleNum, 100*ffEngageFloor)
			}
		})
	}
}

// TestFastForwardDisabledByHook asserts the per-cycle perturbation hook
// suspends skipping entirely (fault campaigns observe every cycle).
func TestFastForwardDisabledByHook(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("spin")
	opt := Options{Cores: 1, Seed: 42, OnCycle: func(int64) {}}
	s := New(cfg, work, opt)
	s.Run(500, opt)
	if s.FastForwardStats() != (FFStats{}) {
		t.Errorf("fast-forward engaged with OnCycle set: %+v", s.FastForwardStats())
	}
}

// findQuiescent steps the system cycle by cycle (mirroring Advance's
// order: DMA tick, core steps, cycle increment) until every core's
// readiness state reports it quiescent and no machine event is due,
// then returns.
func findQuiescent(t *testing.T, s *System) {
	t.Helper()
	for i := 0; i < 200000; i++ {
		quiet := true
		for _, c := range s.Cores {
			if _, ok := c.Quiescent(); !ok {
				quiet = false
				break
			}
		}
		if quiet && (s.DMA == nil || s.DMA.NextAt() > s.CycleNum) {
			return
		}
		if s.DMA != nil {
			s.DMA.Tick(s.CycleNum)
		}
		for _, c := range s.Cores {
			c.Step()
		}
		s.CycleNum++
	}
	t.Fatal("no quiescent instant found in 200000 cycles")
}

// TestFastForwardNeverCrossesFaultDelivery asserts tryFastForward's
// wake-event caps directly: a deferred fault message bounds the skip,
// and a message due this cycle vetoes it outright.
func TestFastForwardNeverCrossesFaultDelivery(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("spin")
	opt := Options{Cores: 1, Seed: 42}
	s := New(cfg, work, opt)
	s.Faults = fault.NewInjector(fault.Config{}, nil)
	findQuiescent(t, s)

	start := s.CycleNum
	due := start + 7
	s.Faults.Defer(due, func() {})
	if !s.tryFastForward(^uint64(0), start+1_000_000) {
		t.Fatal("expected a skip from a quiescent instant")
	}
	if s.CycleNum > due {
		t.Fatalf("skip crossed a deferred fault delivery: now=%d due=%d", s.CycleNum, due)
	}
	if s.CycleNum <= start {
		t.Fatalf("skip did not advance: now=%d start=%d", s.CycleNum, start)
	}

	// A delivery due this cycle must veto the skip entirely.
	s.Faults.Defer(s.CycleNum, func() {})
	at := s.CycleNum
	if s.tryFastForward(^uint64(0), at+1_000_000) {
		t.Fatalf("skipped across a delivery due this cycle (now=%d)", s.CycleNum)
	}
	if s.CycleNum != at {
		t.Fatalf("vetoed skip still moved the clock: %d -> %d", at, s.CycleNum)
	}
}

// benchSpin measures simulated instructions per wall-second on the
// latency-bound spin workload with or without fast-forward. The pair
// is for profiling by hand; the gate on the same shape counts work
// instead (TestWorkPerInstr's spin cell).
func benchSpin(b *testing.B, noFF bool) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("spin")
	const insts = 20000
	for i := 0; i < b.N; i++ {
		opt := Options{Cores: 1, Seed: 42, DMAInterval: 4000, DMABurst: 2, NoFastForward: noFF}
		s := New(cfg, work, opt)
		s.Run(insts, opt)
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkSpinFastForward(b *testing.B) { benchSpin(b, false) }
func BenchmarkSpinPlain(b *testing.B)       { benchSpin(b, true) }

// TestFastForwardNeverCrossesDMABurst asserts the DMA agent's schedule
// bounds the skip the same way.
func TestFastForwardNeverCrossesDMABurst(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("spin")
	opt := Options{Cores: 1, Seed: 42, DMAInterval: 4000, DMABurst: 2}
	s := New(cfg, work, opt)
	findQuiescent(t, s)

	next := s.DMA.NextAt()
	if next <= s.CycleNum {
		t.Fatalf("findQuiescent returned with a due burst: next=%d now=%d", next, s.CycleNum)
	}
	if !s.tryFastForward(^uint64(0), s.CycleNum+1_000_000) {
		t.Fatal("expected a skip from a quiescent instant")
	}
	if s.CycleNum > next {
		t.Fatalf("skip crossed a scheduled DMA burst: now=%d next=%d", s.CycleNum, next)
	}
}
