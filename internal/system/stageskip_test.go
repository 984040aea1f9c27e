// Stage-skip specific tests (DESIGN.md §14): the readiness layer must
// actually elide scans on the busy workloads it was built for, while
// staying bit-identical to full stepping. The registry-wide identity
// sweep is the shared harness's job (identity_test.go).

package system

import "testing"

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
