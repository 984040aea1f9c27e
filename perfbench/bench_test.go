package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestSeedDeterminesInputs(t *testing.T) {
	for i := 0; i < 20; i++ {
		if !reflect.DeepEqual(jobSpec(5, i), jobSpec(5, i)) {
			t.Fatalf("job %d differs between two expansions of one seed", i)
		}
	}
	differs := func(a, b uint64) bool {
		for i := 0; i < 20; i++ {
			if !reflect.DeepEqual(jobSpec(a, i), jobSpec(b, i)) {
				return true
			}
		}
		return false
	}
	if !differs(5, 6) {
		t.Fatal("seeds 5 and 6 give the same job sequence")
	}
	seen := map[uint64]bool{}
	for i, c := range mpCells {
		for k := 0; k < c.layouts; k++ {
			if dataSeed(5, i, k, 0) != dataSeed(5, i, k, 0) {
				t.Fatal("cell seed is not a function of the seed")
			}
			if dataSeed(5, i, k, 0) == dataSeed(6, i, k, 0) {
				t.Fatalf("cell %d layout %d gets the same seed under seeds 5 and 6", i, k)
			}
			for rep := 0; rep < setupReps; rep++ {
				s := dataSeed(5, i, k, rep)
				if seen[s] {
					t.Fatalf("cell %d layout %d rep %d repeats another seed", i, k, rep)
				}
				seen[s] = true
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, ok := percentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it but was reported")
	}
	v, ok := percentile(seq(100), 90)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(seq(1), 50); !ok || v != 1 {
		t.Errorf("median of one sample = %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("median of no samples was reported")
	}
	if v := median(seq(4)); v != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", v)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		j := bf.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, program declares %+v", i, j, m)
		}
	}
	for i, m := range perLayer {
		j := bf.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || m.moves == "" || m.on == "" {
			t.Errorf("per_layer[%d] = %+v, program declares %+v", i, j, m)
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program or has no reason", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "bench.round", start: ms(0), end: ms(10), parent: -1},
		{name: "system.Advance", start: ms(1), end: ms(4), parent: 0},
		{name: "system.Advance", start: ms(3), end: ms(6), parent: 0}, // overlaps its sibling
		{name: "farm.Client.Wait", start: ms(8), end: ms(12), parent: 0},
		{name: "workload.Generate", start: ms(2), end: ms(3), parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":    ms(10 - 5 - 2), // [1,6] and [8,10] are covered
		"system":   ms(3 - 1 + 3),
		"farm":     ms(4),
		"workload": ms(1),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	tr := newTracer()
	outer := tr.begin("litmus.Sweep", "s")
	inner := tr.begin("par.Journal.Record", "c")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 {
		t.Errorf("parents %d, %d; want %d, -1", tr.spans[inner].parent, tr.spans[outer].parent, outer)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x.y", "")) // untraced runs must not panic
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.funcs {
			found = found || (s.nanos > 0 && strings.HasSuffix(f, ".spinForProfile"))
		}
	}
	if !found {
		t.Fatalf("no sample names spinForProfile among %d samples", len(samples))
	}

	shares := profileShares([]profSample{
		{funcs: []string{"vbmo/internal/cache.(*Hierarchy).Access", "vbmo/internal/pipeline.(*Core).issue", advanceFunc}, nanos: 3},
		{funcs: []string{"runtime.memmove", "vbmo/internal/lsq.(*StoreQueue).Search", "vbmo/internal/pipeline.(*Core).commit", advanceFunc}, nanos: 1},
		{funcs: []string{"runtime.gcBgMarkWorker"}, nanos: 4},
	})
	for k, want := range map[string]float64{
		"pipeline.issue_share": 0.75, "pipeline.commit_share": 0.25, "pipeline.fetch_share": 0,
		"cache.host_share": 0.75, "lsq.host_share": 0.25, "runtime.gc_share": 0.5,
	} {
		if shares[k] != want {
			t.Errorf("%s = %v, want %v", k, shares[k], want)
		}
	}
}

// TestTracedRunEmitsEveryLayer runs farm-jobs traced for its minimum
// sample count; its probes cover the other workloads, so the report
// must carry every declared per-layer metric and pass its checks.
func TestTracedRunEmitsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	chdirRepoRoot(t)
	r, err := measure(options{workload: "farm-jobs", seed: defaultSeed, seconds: 0.01, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || len(r.Metrics) != len(perLayer) {
		t.Fatalf("correct=%v failed=%d metrics=%d of %d", r.Correct, r.Failed, len(r.Metrics), len(perLayer))
	}
}

// TestUntracedRunOtherSeed runs the seed-independent checks end to end.
func TestUntracedRunOtherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	chdirRepoRoot(t)
	for _, w := range []string{"litmus-sweep", "farm-jobs"} {
		r, err := measure(options{workload: w, seed: 12345, seconds: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || len(r.Metrics) != len(endToEnd) {
			t.Fatalf("%s: correct=%v failed=%d metrics=%d", w, r.Correct, r.Failed, len(r.Metrics))
		}
	}
}

// chdirRepoRoot runs the test from the repository root, where the
// benchmark runs, restoring the directory afterwards.
func chdirRepoRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}
