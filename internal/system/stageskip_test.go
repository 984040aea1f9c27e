// Stage-skip specific tests (DESIGN.md §14): the readiness layer must
// actually elide scans on the busy workloads it was built for, while
// staying bit-identical to full stepping. The registry-wide identity
// sweep is the shared harness's job (identity_test.go).

package system

import (
	"reflect"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/core"
	"vbmo/internal/isa"
	"vbmo/internal/prog"
)

// TestStageSkipEngagesOnGzip asserts the readiness layer actually
// elides scans on the busy high-IPC workload it was built for — a
// guard against the quiet flags silently degrading into "never set".
func TestStageSkipEngagesOnGzip(t *testing.T) {
	tc := identityCase{"gzip", "baseline", "gzip", 1, 20000, 0, 1}
	on := runLayers(t, tc, 42, layers{})
	assertIdentical(t, layers{}, on, runLayers(t, tc, 42, reference))
	sk := on.s.StageSkipStats()
	if sk.Total() == 0 {
		t.Fatalf("stage skip never engaged on gzip: %+v", sk)
	}
	cc := uint64(on.s.CycleNum)
	for _, st := range []struct {
		name string
		n    uint64
	}{
		{"writeback", sk.Writeback},
		{"capture", sk.Capture},
		{"commit", sk.Commit},
		{"issue", sk.Issue},
	} {
		if st.n == 0 {
			t.Errorf("stage %s never skipped on gzip", st.name)
		}
		if st.n >= cc {
			t.Errorf("stage %s skip count %d exceeds cycles %d", st.name, st.n, cc)
		}
	}
}

// TestStageSkipReplayCursor asserts the replay stage's quiet flag
// fires: on a replay-all machine every committed load replays, and the
// scan must still be skipped between bursts.
func TestStageSkipReplayCursor(t *testing.T) {
	tc := identityCase{"gzip", "replay-all", "gzip", 1, 20000, 0, 1}
	on := runLayers(t, tc, 42, layers{})
	assertIdentical(t, layers{}, on, runLayers(t, tc, 42, reference))
	if sk := on.s.StageSkipStats(); sk.Replay == 0 {
		t.Errorf("replay scan never skipped on replay-all/gzip: %+v", sk)
	}
}

// forwardStallProgram is a forwarding-blocked kernel: each iteration
// stores a divide's result to a fixed, immediately resolved address
// and loads it straight back, and the next divide consumes the load.
// Every load finds its store's address at once but not its data, so
// while the divide runs the only issue-stage work is loads re-probing
// the store queue. (The store commits in the cycle its data arrives,
// before the load's next probe, so the load then reads the cache.)
func forwardStallProgram() *prog.Program {
	b := prog.NewBuilder(0x1000)
	top := b.Here()
	b.Emit(isa.Inst{Op: isa.OpDiv, Dst: 20, Src1: 21, Src2: 9})
	b.Emit(isa.Inst{Op: isa.OpAddI, Dst: 20, Src1: 20, Imm: 7})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: 1, Src2: 20})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 21, Src1: 1})
	b.Branch(isa.OpJump, 0, top)
	return b.Build()
}

// TestProbeChargeEngagesOnForwardingStall asserts that loads waiting on
// a forwarding store's data no longer keep the core awake: the issue
// stage sleeps through their re-probes and the fast-forward skips the
// stall, while the probe charge keeps sq.searches (and the rest of the
// Result) equal to plain stepping's.
func TestProbeChargeEngagesOnForwardingStall(t *testing.T) {
	for _, cfg := range []config.Machine{config.Baseline(), config.Replay(core.NoRecentSnoop)} {
		t.Run(cfg.Name, func(t *testing.T) {
			run := func(l layers) *System {
				opt := Options{Cores: 1, Seed: 42, NoFastForward: l.noFF, NoStageSkip: l.noSkip}
				s := NewCustom(cfg, forwardStallProgram(), []prog.ArchState{scenInit()}, opt)
				s.Run(3000, opt)
				return s
			}
			ref := run(reference)
			refRes := ref.Result()
			searches := refRes.Counters.Get("sq.searches")
			if searches < 2*refRes.Pipe.CommittedLoads {
				t.Fatalf("loads did not re-probe: %d searches for %d loads", searches, refRes.Pipe.CommittedLoads)
			}
			for _, l := range combos {
				s := run(l)
				res := s.Result()
				if !reflect.DeepEqual(res, refRes) {
					t.Errorf("%v: Result diverged:\n got:       %+v\n reference: %+v", l, res, refRes)
				}
				if got := res.Counters.Get("sq.searches"); got != searches {
					t.Errorf("%v: sq.searches = %d, plain stepping %d", l, got, searches)
				}
				ff, sk := s.FastForwardStats(), s.StageSkipStats()
				t.Logf("%v: skipped %d of %d cycles, issue skips %d", l, ff.SkippedCycles, s.CycleNum, sk.Issue)
				if !l.noFF && ff.SkippedCycles*2 < s.CycleNum {
					t.Errorf("%v: fast-forward skipped %d of %d cycles, want at least half", l, ff.SkippedCycles, s.CycleNum)
				}
				if !l.noSkip && l.noFF && sk.Issue*2 < uint64(s.CycleNum) {
					t.Errorf("%v: issue stage skipped %d of %d cycles, want at least half", l, sk.Issue, s.CycleNum)
				}
			}
		})
	}
}
