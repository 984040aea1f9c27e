// The work-count gate for the two skip layers (DESIGN.md §12, §14):
// simulator speed measured as deterministic work per committed
// instruction instead of wall-clock time, so it reads the same on every
// host and needs no repeats.

package system

import (
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/workload"
)

// workCell is one steady-state window: warm the machine, reset its
// statistics, then measure a fixed committed-instruction window.
type workCell struct {
	name, machine, work string
	cores               int
	warm, window        uint64
	// ceiling bounds the default combination's work per instruction.
	ceiling float64
	// noFFCeiling, when nonzero, bounds the combination with
	// fast-forward off and stage skip on: the stall-bound regime where
	// stage skipping carries the run alone, as it does whenever a
	// per-cycle hook or a fault campaign suspends fast-forward.
	noFFCeiling float64
	// visitCeiling bounds the issue-queue entries the default
	// combination's issue stage visits per committed instruction.
	visitCeiling float64
}

// workCells are the steady-state windows the simulator-speed gates
// have always measured: three uniprocessor replay machines on busy
// gzip, sharing-heavy ocean at 4 and 16 ways, and the stall-bound spin
// shapes on one core and sixteen. Each ceiling is the value measured
// when it was pinned plus 25%; the comment holds the current
// measurements (work, then the no-fast-forward work where gated, then
// issue visits).
var workCells = []workCell{
	{"baseline-gzip-1", "baseline", "gzip", 1, 10000, 40000, 3.875, 0, 1.699},               // 3.100; 1.359
	{"no-recent-snoop-gzip-1", "no-recent-snoop", "gzip", 1, 10000, 40000, 4.396, 0, 1.699}, // 3.517; 1.359
	{"replay-all-gzip-1", "replay-all", "gzip", 1, 10000, 40000, 5.753, 0, 1.695},           // 4.602; 1.356
	{"baseline-ocean-4", "baseline", "ocean", 4, 2000, 6000, 3.825, 0, 1.620},               // 3.079; 1.296
	{"baseline-ocean-16", "baseline", "ocean", 16, 2000, 6000, 5.811, 0, 1.590},             // 4.661; 1.272
	{"baseline-spin-1", "baseline", "spin", 1, 2000, 20000, 10.439, 199.630, 1.254},         // 8.351; 159.704; 1.003
	{"baseline-spin-mp-16", "baseline", "spin-mp", 16, 300, 1200, 27.515, 0, 1.246},         // 22.946; 0.997
}

// windowWork runs one cell under one layer combination and returns its
// work per committed instruction in the window, and the issue-queue
// entries its issue stage visited per committed instruction
// (pipeline.Core.IssueVisits). Work counts:
//
//   - stepped core-cycles: core-cycles minus the fast-forwarded ones,
//     counted per core a window advanced;
//   - stage walks: fetch, dispatch and each back-end stage (four, or
//     five with the replay stage) per stepped core-cycle, less the
//     scans the stage-skip layer elided;
//   - fast-forward probes: one tryFastForward call per stepped machine
//     cycle and per window taken, when fast-forward is on.
func windowWork(t *testing.T, c workCell, l layers) (perInstr, visitsPerInstr float64) {
	t.Helper()
	mc, ok := config.ByName(c.machine)
	if !ok {
		t.Fatalf("unknown machine %q", c.machine)
	}
	work, ok := workload.ByName(c.work)
	if !ok {
		t.Fatalf("unknown workload %q", c.work)
	}
	opt := Options{Cores: c.cores, Seed: 1, DMAInterval: 4000, DMABurst: 2,
		NoFastForward: l.noFF, NoStageSkip: l.noSkip}
	s := New(mc, work, opt)
	s.Advance(c.warm, opt)
	s.ResetStats()
	ff0, cycle0 := s.FastForwardStats(), s.CycleNum
	s.Advance(c.window, opt)
	r := s.Result()
	ff := s.FastForwardStats()
	skipped := float64(ff.SkippedCycles - ff0.SkippedCycles)
	stepped := float64(r.Pipe.Cycles - (ff.SkippedCoreCycles - ff0.SkippedCoreCycles))
	stages := 4.0
	if mc.Scheme == config.ValueReplay {
		stages = 5
	}
	skip := s.StageSkipStats()
	walks := (stages+2)*stepped - float64(skip.Total())
	var probes float64
	if !l.noFF {
		probes = float64(s.CycleNum-cycle0) - skipped + float64(ff.Windows-ff0.Windows)
	}
	n := float64(r.Pipe.Committed)
	return (stepped + walks + probes) / n, float64(s.IssueVisits()) / n
}

// TestWorkPerInstr gates simulator speed as work: on every cell the
// default combination must do no more work per instruction than any
// of its escape hatches, and must stay under its pinned ceilings for
// work and for issue visits. The visit ceiling holds the issue stage to
// walking its ready list: a scan of the whole issue queue visits every
// waiting entry each awake cycle (32.4 visits per instruction on
// spin-mp/16, 3.0 on gzip). The
// counts are deterministic, so the gate needs no repeats and no host
// scaling; wall-clock cost per unit of work is perfbench's to measure.
func TestWorkPerInstr(t *testing.T) {
	hatches := []layers{{noSkip: true}, {noFF: true}, reference}
	for _, c := range workCells {
		t.Run(c.name, func(t *testing.T) {
			def, visits := windowWork(t, c, layers{})
			t.Logf("%v: %.3f work/instr (ceiling %.3f), %.3f issue visits/instr (ceiling %.3f)",
				layers{}, def, c.ceiling, visits, c.visitCeiling)
			if def > c.ceiling {
				t.Errorf("default does %.3f work/instr, ceiling %.3f", def, c.ceiling)
			}
			if visits > c.visitCeiling {
				t.Errorf("default's issue stage visits %.3f entries/instr, ceiling %.3f", visits, c.visitCeiling)
			}
			for _, l := range hatches {
				w, _ := windowWork(t, c, l)
				t.Logf("%v: %.3f work/instr", l, w)
				if def > w {
					t.Errorf("default does more work than the %v escape hatch: %.3f > %.3f work/instr", l, def, w)
				}
				if l == (layers{noFF: true}) && c.noFFCeiling > 0 && w > c.noFFCeiling {
					t.Errorf("%v does %.3f work/instr, ceiling %.3f", l, w, c.noFFCeiling)
				}
			}
		})
	}
}
