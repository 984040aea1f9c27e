package system

import (
	"runtime"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/workload"
)

// steadyAllocsPerInstr builds the named machine on the given workload,
// warms it past cold misses and workload generation, then measures
// allocations per committed instruction over repeated Advance windows.
func steadyAllocsPerInstr(t *testing.T, machine string, window uint64) float64 {
	t.Helper()
	mc, ok := config.ByName(machine)
	if !ok {
		t.Fatalf("unknown machine %q", machine)
	}
	var work workload.Params
	for _, w := range workload.Catalog() {
		if w.Name == "gzip" {
			work = w
		}
	}
	opt := Options{Cores: 1, Seed: 42, DMAInterval: 4000, DMABurst: 2}
	s := New(mc, work, opt)
	s.Advance(10000, opt) // warmup: caches, predictors, pool slabs

	base := s.Cores[0].Stats.Committed
	runs := 0
	allocs := testing.AllocsPerRun(5, func() {
		runs++
		s.Advance(base+uint64(runs)*window, opt)
	})
	return allocs / float64(window)
}

// windowAllocs warms the named machine on the named workload, resets
// its statistics, and returns heap allocations and bytes per committed
// instruction over the next window, read from the allocator's counters
// on both sides of it.
func windowAllocs(t *testing.T, machine, work string, warm, window uint64) (allocs, bytes float64) {
	t.Helper()
	mc, ok := config.ByName(machine)
	if !ok {
		t.Fatalf("unknown machine %q", machine)
	}
	w, ok := workload.ByName(work)
	if !ok {
		t.Fatalf("unknown workload %q", work)
	}
	opt := Options{Cores: 1, Seed: 1, DMAInterval: 4000, DMABurst: 2}
	s := New(mc, w, opt)
	s.Advance(warm, opt)
	s.ResetStats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s.Advance(window, opt)
	runtime.ReadMemStats(&m1)
	committed := float64(s.Cores[0].Stats.Committed)
	return float64(m1.Mallocs-m0.Mallocs) / committed, float64(m1.TotalAlloc-m0.TotalAlloc) / committed
}

// TestSteadyStateAllocs guards the tentpole claim of this layer: once
// warmed, the cycle loop — ring-buffered ROB/fetch queue, slab-pooled
// entries, preallocated side lists — commits instructions without
// heap-allocating. The bound is deliberately far below the pre-ring
// figure (~0.05 allocs/instr) so a reintroduced per-instruction or
// per-window allocation fails loudly, while the rare residual (a cache
// set touched for the first time, an MSHR growth) stays within it.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	for _, machine := range []string{"baseline", "no-recent-snoop"} {
		got := steadyAllocsPerInstr(t, machine, 4000)
		t.Logf("%s: %.5f allocs/committed instr", machine, got)
		if got > 0.005 {
			t.Errorf("%s: steady-state allocations regressed: %.5f allocs/instr (want <= 0.005)",
				machine, got)
		}
	}
	// The spin workload once allocated 0.037 times and 186 bytes per
	// instruction: every first write to a fresh image page materialized
	// the whole page (DESIGN.md §14). The bytes ceiling is looser than
	// the long-run figure because a short window amortizes the sparse
	// overlay's map growth poorly.
	allocs, bytes := windowAllocs(t, "baseline", "spin", 2000, 20000)
	t.Logf("spin: %.5f allocs and %.1f bytes/committed instr", allocs, bytes)
	if allocs > 0.005 || bytes > 80 {
		t.Errorf("spin: allocations regressed: %.5f allocs and %.1f bytes/instr (want <= 0.005 and <= 80)",
			allocs, bytes)
	}
}
