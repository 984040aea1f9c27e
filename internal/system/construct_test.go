package system_test

import (
	"runtime"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/litmus"
	"vbmo/internal/prog"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// constructionBytes returns the heap bytes one NewCustom call allocates
// (a TotalAlloc delta, exact and host-independent). The program and
// initial states are built beforehand, so only the machine is counted.
// The minimum over a few builds discards any stray runtime allocation.
func constructionBytes(mc config.Machine, program *prog.Program, inits []prog.ArchState, opt system.Options) uint64 {
	best := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s := system.NewCustom(mc, program, inits, opt)
		runtime.ReadMemStats(&ms)
		if d := ms.TotalAlloc - before; d < best {
			best = d
		}
		runtime.KeepAlive(s)
	}
	return best
}

func catalogWorkload(t *testing.T, name string) workload.Params {
	t.Helper()
	for _, w := range workload.Catalog() {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("unknown workload %q", name)
	return workload.Params{}
}

func workloadMachine(t *testing.T, name string, cores int) (*prog.Program, []prog.ArchState, system.Options) {
	t.Helper()
	w := catalogWorkload(t, name)
	opt := system.Options{Cores: cores, Seed: 1, DMAInterval: 4000, DMABurst: 2}
	inits := make([]prog.ArchState, cores)
	for c := range inits {
		inits[c] = workload.InitState(w, c, opt.Seed)
	}
	return workload.Generate(w, opt.Seed), inits, opt
}

// TestConstructionBytes gates what building a machine costs. Machine
// state materializes as a run touches it (cache and BTB sets on first
// fill, ROB entries in chunks on demand), so construction scales with
// the configured structures' index sizes rather than their capacity.
// Each ceiling is the measured value plus 25%; the two default-machine
// ceilings sit below 40% of the dense layout's bytes (12.3 MB for
// 16-core ocean, 771 KB for 1-core gzip).
func TestConstructionBytes(t *testing.T) {
	sb, ok := litmus.ByName("SB")
	if !ok {
		t.Fatal("litmus battery has no SB test")
	}
	comp := litmus.Compile(sb, make([]int, len(sb.Threads)))
	sbOpt := system.Options{Cores: len(comp.Inits), Seed: 1, TrackConsistency: true}
	oceanProg, oceanInits, oceanOpt := workloadMachine(t, "ocean", 16)
	gzipProg, gzipInits, gzipOpt := workloadMachine(t, "gzip", 1)
	cases := []struct {
		name    string
		machine config.Machine
		program *prog.Program
		inits   []prog.ArchState
		opt     system.Options
		ceiling uint64 // measured value + 25%
	}{
		{"default 16-core ocean", config.Baseline(), oceanProg, oceanInits, oceanOpt, 3_891_150},
		{"default 1-core gzip", config.Baseline(), gzipProg, gzipInits, gzipOpt, 244_950},
		{"litmus-tuned 2-core SB", litmus.Configs()[0].Machine, comp.Prog, comp.Inits, sbOpt, 151_500},
	}
	for _, c := range cases {
		got := constructionBytes(c.machine, c.program, c.inits, c.opt)
		t.Logf("%s: %d bytes per NewCustom (ceiling %d)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: construction allocated %d bytes, ceiling %d", c.name, got, c.ceiling)
		}
	}
}
