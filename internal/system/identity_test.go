// The bit-identity harness for the two skip layers: the quiescence
// fast-forward (DESIGN.md §12) and the per-stage readiness skip
// (DESIGN.md §14). Both layers read one readiness state, so the
// harness runs every NoFastForward×NoStageSkip combination against
// the run with both layers off and requires exactly the same Result —
// counters, pipeline statistics, cycle count, trace event counts,
// metrics snapshots — across the whole machine registry, 4- and 16-way
// multiprocessors, and snapshot sampling.

package system

import (
	"fmt"
	"reflect"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/pipeline"
	"vbmo/internal/trace"
	"vbmo/internal/workload"
)

// layers is one NoFastForward×NoStageSkip combination.
type layers struct{ noFF, noSkip bool }

func (l layers) String() string {
	on := func(off bool) string {
		if off {
			return "off"
		}
		return "on"
	}
	return fmt.Sprintf("ff=%s/skip=%s", on(l.noFF), on(l.noSkip))
}

// reference is the combination every other one must reproduce: plain
// stepping with every stage scanned every cycle.
var reference = layers{noFF: true, noSkip: true}

// combos are the combinations compared against the reference. The
// readiness state is kept in all of them; NoStageSkip only stops Step
// from reading it, which leaves fast-forward on with stage-skip off
// as the combination that leans on the state hardest.
var combos = []layers{{}, {noSkip: true}, {noFF: true}}

// identityCase is one (machine, workload, cores, budget) run shape.
// A run with windows > 1 reaches its budget in that many Advance calls,
// as steady-state measurements do: cores that reach a window's target
// early sit out the rest of it, so their clocks trail the machine's.
type identityCase struct {
	name, machine, work string
	cores               int
	insts               uint64
	snapshot            int64
	windows             int
}

// registryCases runs work on every registered machine.
func registryCases(work string, insts uint64) []identityCase {
	var cs []identityCase
	for _, name := range config.Names() {
		cs = append(cs, identityCase{name: name, machine: name, work: work, cores: 1, insts: insts, windows: 1})
	}
	return cs
}

// multiCases covers the lock-step multiprocessor at 4 and at the full
// 16-way configuration (baseline and value replay, in one run and in
// windows), snapshot sampling, and the fast-forward-heavy spin shape
// where both layers interleave.
var multiCases = []identityCase{
	{"ocean-4", "baseline", "ocean", 4, 1500, 0, 1},
	{"ocean-snoop-4", "no-recent-snoop", "ocean", 4, 1500, 0, 1},
	{"spin-mp-16", "baseline", "spin-mp", 16, 600, 0, 1},
	{"spin-mp-16-replay", "replay-all", "spin-mp", 16, 600, 0, 1},
	{"spin-mp-16-windows", "baseline", "spin-mp", 16, 600, 0, 6},
	{"ocean-snoop-16-windows", "no-recent-snoop", "ocean", 16, 1200, 0, 4},
	{"gzip-snapshots", "baseline", "gzip", 1, 6000, 512, 1},
	{"spin-ff-interleaved", "baseline", "spin", 1, 3000, 0, 1},
}

// abRun is one traced run of a case under one layer combination.
type abRun struct {
	s   *System
	res Result
	cs  *trace.CountSink
}

func runLayers(t *testing.T, tc identityCase, seed uint64, l layers) abRun {
	t.Helper()
	cfg, ok := config.ByName(tc.machine)
	if !ok {
		t.Fatalf("unknown machine %q", tc.machine)
	}
	work, ok := workload.ByName(tc.work)
	if !ok {
		t.Fatalf("unknown workload %q", tc.work)
	}
	cs := &trace.CountSink{}
	opt := Options{
		Cores: tc.cores, Seed: seed,
		DMAInterval: 4000, DMABurst: 2,
		SnapshotInterval: tc.snapshot,
		NoFastForward:    l.noFF,
		NoStageSkip:      l.noSkip,
		Trace:            trace.New(cs),
	}
	s := New(cfg, work, opt)
	for w := 1; w <= tc.windows; w++ {
		s.Advance(tc.insts*uint64(w)/uint64(tc.windows), opt)
	}
	res := s.Result()
	if l.noFF && s.FastForwardStats() != (FFStats{}) {
		t.Errorf("%v: disabled fast-forward reports activity: %+v", l, s.FastForwardStats())
	}
	if l.noSkip && s.StageSkipStats() != (pipeline.SkipStats{}) {
		t.Errorf("%v: disabled stage skip reports activity: %+v", l, s.StageSkipStats())
	}
	return abRun{s, res, cs}
}

// assertIdentical asserts got reproduces the reference run bit for bit.
func assertIdentical(t *testing.T, l layers, got, ref abRun) {
	t.Helper()
	if got.s.CycleNum != ref.s.CycleNum {
		t.Errorf("%v: CycleNum diverged: %d, reference %d", l, got.s.CycleNum, ref.s.CycleNum)
	}
	if !reflect.DeepEqual(got.res, ref.res) {
		t.Errorf("%v: Result diverged:\n got:       %+v\n reference: %+v", l, got.res, ref.res)
	}
	if got.cs.Total() != ref.cs.Total() {
		t.Errorf("%v: trace event totals diverged: %d, reference %d", l, got.cs.Total(), ref.cs.Total())
	}
	for _, k := range []trace.Kind{
		trace.KLoadIssue, trace.KFilterDecision, trace.KReplay,
		trace.KValueMismatch, trace.KSquash, trace.KSnoopInval,
		trace.KExtFill, trace.KDMAWrite, trace.KROBOcc, trace.KWatchdog,
	} {
		if a, b := got.cs.Count(k), ref.cs.Count(k); a != b {
			t.Errorf("%v: trace kind %v count diverged: %d, reference %d", l, k, a, b)
		}
	}
	if !reflect.DeepEqual(got.s.Metrics, ref.s.Metrics) {
		t.Errorf("%v: metrics snapshots diverged", l)
	}
	// The simple dependence predictor's wait count is part of the issue
	// stage's probe charge but not of Result; compare it per core.
	for i, c := range got.s.Cores {
		g, r := c.SimplePredictor(), ref.s.Cores[i].SimplePredictor()
		if g.Waits != r.Waits || g.Trainings != r.Trainings {
			t.Errorf("%v: core %d simple predictor diverged: waits %d trainings %d, reference %d %d",
				l, i, g.Waits, g.Trainings, r.Waits, r.Trainings)
		}
	}
}

// runIdentity runs every case under every combination and checks each
// against the reference.
func runIdentity(t *testing.T, cases []identityCase, seed uint64) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runLayers(t, tc, seed, reference)
			for _, l := range combos {
				assertIdentical(t, l, runLayers(t, tc, seed, l), ref)
			}
		})
	}
}

// The registry table runs three times and the multiprocessor table
// twice, with different shapes so none repeats another: the registry
// on spin (the fast-forward's stall-bound regime), on mcf (a mix of
// loads, stores and branches that exercises every stage, the replay
// cursor included) and on parser (forwarding-heavy: loads that wait on
// a forwarding store's data re-probe the store queue every cycle, so
// the issue stage sleeps with a probe charge), the multiprocessor
// table under two seeds (data placement, registers and image
// background differ).

func TestFastForwardBitIdenticalRegistry(t *testing.T) {
	runIdentity(t, registryCases("spin", 3000), 42)
}

func TestStageSkipBitIdenticalRegistry(t *testing.T) {
	runIdentity(t, registryCases("mcf", 4000), 42)
}

func TestProbeChargeBitIdenticalRegistry(t *testing.T) {
	runIdentity(t, registryCases("parser", 8000), 42)
}

func TestFastForwardBitIdenticalMulti(t *testing.T) {
	runIdentity(t, multiCases, 42)
}

func TestStageSkipBitIdenticalMulti(t *testing.T) {
	runIdentity(t, multiCases, 7)
}
