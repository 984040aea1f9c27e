package farm

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vbmo/internal/litmus"
)

func testSpec() JobSpec {
	return JobSpec{
		Litmus: &LitmusSpec{
			Tests:   []string{"SB", "MP"},
			Configs: []string{"baseline", "nus-only"},
			Runs:    2, Seed: 7,
		},
		Bench: &BenchSpec{
			Machines: []string{"baseline"}, Workloads: []string{"gzip"},
			Cores: 1, Warm: 1000, Window: 4000, Seed: 1,
		},
	}
}

// TestCellsExpansionDeterministic: the same spec always expands to the
// same cell list with the same keys — expansion order is part of the
// job's result contract.
func TestCellsExpansionDeterministic(t *testing.T) {
	a, err := testSpec().Cells()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSpec().Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	if len(a) != 5 { // 2 tests × 2 configs + 1 bench
		t.Fatalf("expanded to %d cells, want 5", len(a))
	}
	for i := range a {
		ka, err := a[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		kb, _ := b[i].Key()
		if ka != kb {
			t.Fatalf("cell %d key unstable: %s vs %s", i, ka, kb)
		}
	}
}

// TestCellKeySensitivity: changing any execution-relevant parameter
// changes the cache key, so stale results can never be served.
func TestCellKeySensitivity(t *testing.T) {
	base := Cell{Kind: KindLitmus, Test: "SB", Config: "baseline", Runs: 2, Seed: 7}
	ref, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []Cell{
		{Kind: KindLitmus, Test: "SB", Config: "baseline", Runs: 3, Seed: 7},
		{Kind: KindLitmus, Test: "SB", Config: "baseline", Runs: 2, Seed: 8},
		{Kind: KindLitmus, Test: "SB", Config: "nus-only", Runs: 2, Seed: 7},
		{Kind: KindLitmus, Test: "MP", Config: "baseline", Runs: 2, Seed: 7},
		{Kind: KindLitmus, Test: "SB", Config: "baseline", Runs: 2, Seed: 7, Cores: 4},
	} {
		k, err := mod.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k == ref {
			t.Fatalf("cell %+v collides with base", mod)
		}
	}
	bb := Cell{Kind: KindBench, Machine: "baseline", Workload: "gzip",
		Cores: 1, Warm: 1000, Instr: 4000, Seed: 1}
	bref, err := bb.Key()
	if err != nil {
		t.Fatal(err)
	}
	bm := bb
	bm.Machine = "replay-all"
	if k, _ := bm.Key(); k == bref {
		t.Fatal("machine change did not change the bench key")
	}
	bw := bb
	bw.Warm = 2000
	if k, _ := bw.Key(); k == bref {
		t.Fatal("warmup change did not change the bench key")
	}
	mx := bb
	mx.Kind = KindMatrix
	if k, _ := mx.Key(); k == bref {
		t.Fatal("matrix and bench cells with equal params collide")
	}
}

// TestLitmusCellMatchesSweep: a farm litmus cell must reproduce
// litmus.Sweep bit-identically — the farm expands in Sweep's battery
// order (tests outer, configs inner) with Sweep's per-cell seeds, so
// verdicts compare index for index.
func TestLitmusCellMatchesSweep(t *testing.T) {
	spec := JobSpec{Litmus: &LitmusSpec{
		Tests:   []string{"SB", "MP"},
		Configs: []string{"baseline", "nus-only"},
		Runs:    3, Seed: 11,
	}}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var tests []*litmus.Test
	for _, name := range spec.Litmus.Tests {
		tt, ok := litmus.ByName(name)
		if !ok {
			t.Fatalf("unknown test %s", name)
		}
		tests = append(tests, tt)
	}
	var cfgs []litmus.Config
	for _, name := range spec.Litmus.Configs {
		c, ok := litmus.ConfigByName(name)
		if !ok {
			t.Fatalf("unknown config %s", name)
		}
		cfgs = append(cfgs, c)
	}
	want, err := litmus.Sweep(litmus.SweepOptions{
		Tests: tests, Configs: cfgs, Runs: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Fatalf("sweep has %d verdicts, farm %d cells", len(want), len(cells))
	}
	for i, c := range cells {
		raw, err := c.Execute()
		if err != nil {
			t.Fatal(err)
		}
		var got litmus.Verdict
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("cell %d (%s/%s):\nfarm  %+v\nsweep %+v",
				i, c.Test, c.Config, got, want[i])
		}
	}
}

// TestBenchCellDeterministic: a bench cell carries no wall-clock term,
// so two executions produce byte-identical observations.
func TestBenchCellDeterministic(t *testing.T) {
	c := Cell{Kind: KindBench, Machine: "baseline", Workload: "gzip",
		Cores: 1, Warm: 1000, Instr: 4000, Seed: 1}
	a, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("bench cell not deterministic:\n%s\n%s", a, b)
	}
	var obs BenchObs
	if err := json.Unmarshal(a, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Cycles <= 0 || obs.Committed == 0 || obs.IPC <= 0 {
		t.Fatalf("degenerate observation %+v", obs)
	}
}

// TestValidateRejects: bad specs fail at submission, not in a worker.
func TestValidateRejects(t *testing.T) {
	for _, spec := range []JobSpec{
		{},
		{Litmus: &LitmusSpec{Runs: 0}},
		{Litmus: &LitmusSpec{Runs: 1, Tests: []string{"no-such-test"}}},
		{Litmus: &LitmusSpec{Runs: 1, Configs: []string{"no-such-config"}}},
		{Matrix: &MatrixSpec{}},
		{Matrix: &MatrixSpec{UniInstr: 100, Machines: []string{"no-such-machine"}}},
		{Bench: &BenchSpec{Window: 100, Cores: 1}},
		{Bench: &BenchSpec{Window: 100, Cores: 1,
			Machines: []string{"baseline"}, Workloads: []string{"no-such-workload"}}},
	} {
		if err := spec.Validate(); err == nil {
			t.Fatalf("spec %+v validated", spec)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

// TestValidateBoundsCellCount: a short spec whose expansion would be
// huge is rejected before any cell is built, and the bound is exact.
func TestValidateBoundsCellCount(t *testing.T) {
	huge := JobSpec{Matrix: &MatrixSpec{Workloads: []string{"ocean"}, MPInstr: 1, Samples: 1 << 62}}
	if err := huge.Validate(); err == nil {
		t.Fatal("Validate accepted a matrix of 2^62 samples")
	}
	// One machine, one multiprocessor workload: exactly Samples cells.
	at := JobSpec{Matrix: &MatrixSpec{Machines: []string{"baseline"}, Workloads: []string{"ocean"},
		MPInstr: 1, Samples: maxJobCells}}
	if err := at.Validate(); err != nil {
		t.Fatalf("Validate rejected a job of exactly %d cells: %v", maxJobCells, err)
	}
	at.Matrix.Samples++
	if err := at.Validate(); err == nil {
		t.Fatalf("Validate accepted a job of %d cells", maxJobCells+1)
	}
}
