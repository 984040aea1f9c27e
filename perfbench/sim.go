package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"vbmo/internal/config"
	"vbmo/internal/prog"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// simCell is one steady-state simulator cell. warm and window are
// committed instructions per core. A request is one round that
// advances every cell of the workload by one window; windows are sized
// so a round takes under 100 ms on a 2-vCPU host. A cell runs layouts
// instances, each with its own seed-drawn data placement, and round r
// advances instance r mod layouts: spin-mp's host cost per simulated
// cycle depends on placement (up to 1.6x between seeds, through the
// number of failed fast-forward probes), so a run averages several.
type simCell struct {
	machine, work string
	cores         int
	warm, window  uint64
	layouts       int
}

func (c simCell) name() string { return fmt.Sprintf("%s/%s/%d", c.machine, c.work, c.cores) }

// uniCells are busy dataflow workloads on the §5.1 uniprocessor
// machines: pipeline, LSQ, replay engine and caches do the work.
var uniCells = cross([]string{"baseline", "no-recent-snoop", "replay-all"},
	[]simCell{
		{work: "gzip", cores: 1, warm: 10000, window: 12000, layouts: 1},
		{work: "vortex", cores: 1, warm: 10000, window: 12000, layouts: 1},
		{work: "parser", cores: 1, warm: 10000, window: 12000, layouts: 1},
	})

// mpCells are the 16-way SMP: stall-bound contended spin-mp, where the
// fast-forward and stage-skip scheduler carries the run, and busy
// sharing-heavy ocean, where the coherence bus does. spin-mp's 16 MB
// pointer chase never warms the caches, so its warm-up only fills the
// pipelines.
var mpCells = cross([]string{"baseline", "no-recent-snoop"},
	[]simCell{
		{work: "spin-mp", cores: 16, warm: 300, window: 100, layouts: 4},
		{work: "ocean", cores: 16, warm: 2000, window: 1000, layouts: 2},
	})

func cross(machines []string, works []simCell) []simCell {
	var out []simCell
	for _, m := range machines {
		for _, w := range works {
			w.machine = m
			out = append(out, w)
		}
	}
	return out
}

// simBench times steady-state windows: every cell is built and warmed
// in set-up, then the timed loop advances each cell by one window per
// round, so the systems stay in steady state across the whole run.
type simBench struct {
	cells  []simCell
	live   [][]*simLive // [cell][layout]
	rounds int

	// Set-up repeat totals, ms.
	genMs, buildMs, warmMs []float64
	// Traced-phase window times (ms), allocator deltas inside Advance,
	// and instructions committed there.
	windowMs                         []float64
	mallocs, allocBytes, tracedInstr float64
}

type simLive struct {
	cell   simCell
	tag    string // cell name and layout
	opt    system.Options
	sys    *system.System
	rounds uint64
	ff0    system.FFStats // fast-forward totals when stats were reset
	cycle0 int64
}

func newSimBench(cells []simCell) *simBench { return &simBench{cells: cells} }

func (c simCell) params() (config.Machine, workload.Params) {
	mc, ok := config.ByName(c.machine)
	if !ok {
		panic("perfbench: unknown machine " + c.machine)
	}
	wp, ok := workload.ByName(c.work)
	if !ok {
		panic("perfbench: unknown workload " + c.work)
	}
	return mc, wp
}

// programSeed seeds the cells' program text. It is fixed rather than
// drawn from --seed: across generation seeds one workload's CPI varies
// up to 2.4x (16-way ocean), which no run-to-run bound could absorb.
// --seed draws each cell's data placement, initial registers and
// memory-image background instead, which vary the run without changing
// what the program is.
const programSeed = 0x5eed

// dataSeed draws the data placement of layout k of cell i in set-up
// repeat rep from the run's seed.
func dataSeed(seed uint64, i, k, rep int) uint64 {
	return mix(seed, uint64(i), uint64(k), uint64(rep))
}

// build constructs layout k of cell i for set-up repeat rep with the
// given escape hatches, timing generation, build and warm-up into the
// span tracer. Each repeat generates fresh programs (the generator
// memoizes per seed), so every repeat pays the full set-up.
func (b *simBench) build(e *env, i, k, rep int, noFF, noSkip bool) (*system.System, system.Options, [3]time.Duration) {
	c := b.cells[i]
	mc, wp := c.params()
	data := dataSeed(e.opt.seed, i, k, rep)
	opt := system.Options{Cores: c.cores, Seed: data, DMAInterval: 4000, DMABurst: 2,
		NoFastForward: noFF, NoStageSkip: noSkip}
	var d [3]time.Duration

	t0 := time.Now()
	id := e.tr.begin("workload.Generate", c.name())
	program := workload.Generate(wp, mix(programSeed, uint64(rep)))
	inits := make([]prog.ArchState, c.cores)
	for core := range inits {
		inits[core] = workload.InitState(wp, core, data)
	}
	e.tr.end(id)
	t1 := time.Now()
	id = e.tr.begin("system.NewCustom", c.name())
	s := system.NewCustom(mc, program, inits, opt)
	e.tr.end(id)
	t2 := time.Now()
	id = e.tr.begin("system.Advance", c.name()+" warm")
	s.Advance(c.warm, opt)
	s.ResetStats()
	e.tr.end(id)
	d[0], d[1], d[2] = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return s, opt, d
}

func (b *simBench) setup(e *env, rep int) error {
	var total [3]time.Duration
	b.live, b.rounds = make([][]*simLive, len(b.cells)), 0
	for i, c := range b.cells {
		for k := 0; k < c.layouts; k++ {
			s, opt, d := b.build(e, i, k, rep, false, false)
			for j := range total {
				total[j] += d[j]
			}
			b.live[i] = append(b.live[i], &simLive{cell: c, tag: fmt.Sprintf("%s#%d", c.name(), k),
				opt: opt, sys: s, ff0: s.FastForwardStats(), cycle0: s.CycleNum})
		}
	}
	b.genMs = append(b.genMs, ms(total[0]))
	b.buildMs = append(b.buildMs, ms(total[1]))
	b.warmMs = append(b.warmMs, ms(total[2]))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// committed sums the cores' committed instructions since the reset.
func committed(s *system.System) uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Stats.Committed
	}
	return n
}

// step advances every cell by one window: one request.
func (b *simBench) step(e *env) {
	round := e.tr.begin("bench.round", "")
	var roundTime time.Duration
	var roundWork float64
	for _, layouts := range b.live {
		l := layouts[b.rounds%len(layouts)]
		l.rounds++
		target := l.rounds * l.cell.window
		before := committed(l.sys)
		var m0, m1 runtime.MemStats
		if e.tr != nil {
			runtime.ReadMemStats(&m0)
		}
		id := e.tr.begin("system.Advance", l.tag)
		d := timed(func() { l.sys.Advance(target, l.opt) })
		e.tr.end(id)
		done := committed(l.sys) - before
		if e.tr != nil {
			runtime.ReadMemStats(&m1)
			b.mallocs += float64(m1.Mallocs - m0.Mallocs)
			b.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
			b.tracedInstr += float64(done)
			b.windowMs = append(b.windowMs, ms(d))
		}
		roundTime += d
		roundWork += float64(done)
		e.attempt(1)
		for _, c := range l.sys.Cores {
			if c.Stats.Committed < target {
				e.fail("%s window %d stopped by MaxCycles", l.tag, l.rounds)
				break
			}
		}
		if l.rounds == 1 {
			id := e.tr.begin("system.Result", l.tag)
			e.record("cell/"+l.tag, resultDigest(l.sys))
			e.tr.end(id)
		}
	}
	b.rounds++
	e.lat = append(e.lat, ms(roundTime))
	e.done(roundWork, roundTime)
	e.tr.end(round)
}

// resultDigest is the simulated outcome the golden digest covers.
func resultDigest(s *system.System) any {
	r := s.Result()
	counters := map[string]uint64{}
	for _, n := range r.Counters.Names() {
		counters[n] = r.Counters.Get(n)
	}
	return struct {
		Cycles   int64
		Pipe     any
		Counters map[string]uint64
	}{r.Cycles, r.Pipe, counters}
}

// layers reads the public counters of every cell (cumulative since the
// post-warm reset) and the traced phase's window timings.
func (b *simBench) layers(e *env) map[string]float64 {
	var (
		instr, stepped, squashed                          float64
		ffSkipped, ffWindows, lifeCycles                  float64
		walks, skipWB, skipCap, skipCom, skipRep, skipIss float64
		replaySeen, replays, filtered, mismatches         float64
		sqSearches, lqSearches, lqEntries                 float64
		accesses, l1dHits, memFills                       float64
		busTx, invals, filteredProbes                     float64
		bpLookups, bpMiss                                 float64
	)
	var all []*simLive
	for _, layouts := range b.live {
		all = append(all, layouts...)
	}
	for _, l := range all {
		s := l.sys
		id := e.tr.begin("system.Result", l.tag)
		r := s.Result()
		e.tr.end(id)
		ff := s.FastForwardStats()
		skip := s.StageSkipStats()
		n := float64(len(s.Cores))
		skippedCycles := float64(ff.SkippedCycles - l.ff0.SkippedCycles)
		// Core-cycles actually stepped: fast-forwarded cycles advance
		// every unfinished core at once, so they are removed per core.
		st := float64(r.Pipe.Cycles) - skippedCycles*n
		stages := 4.0
		mc, _ := l.cell.params()
		if mc.Scheme == config.ValueReplay {
			stages = 5
		}
		instr += float64(r.Pipe.Committed)
		stepped += st
		squashed += float64(r.Pipe.SquashedInstrs)
		ffSkipped += skippedCycles
		ffWindows += float64(ff.Windows - l.ff0.Windows)
		lifeCycles += float64(s.CycleNum - l.cycle0)
		// Back-end scans not skipped, plus dispatch and fetch.
		walks += (stages+2)*st - float64(skip.Total())
		skipWB += float64(skip.Writeback)
		skipCap += float64(skip.Capture)
		skipCom += float64(skip.Commit)
		skipRep += float64(skip.Replay)
		skipIss += float64(skip.Issue)
		replaySeen += float64(r.Counters.Get("replay.loads_seen"))
		replays += float64(r.Counters.Get("replay.replays"))
		filtered += float64(r.Counters.Get("replay.filtered"))
		mismatches += float64(r.Counters.Get("replay.mismatches"))
		sqSearches += float64(r.Counters.Get("sq.searches"))
		lqSearches += float64(r.Counters.Get("lq.searches"))
		lqEntries += float64(r.Counters.Get("lq.searched_entries"))
		bpLookups += float64(r.Counters.Get("bp.lookups"))
		bpMiss += float64(r.Counters.Get("bp.mispredicts"))
		for _, c := range s.Cores {
			hs := c.Hierarchy().Stats
			accesses += float64(hs.Reads + hs.Writes)
			l1dHits += float64(hs.L1DHits)
			memFills += float64(hs.MemFills)
		}
		bs := s.Bus.Stats
		busTx += float64(bs.Reads + bs.Upgrades + bs.Exclusives + bs.DMAWrites)
		invals += float64(bs.Invalidations)
		filteredProbes += float64(bs.FilteredProbes)
	}
	kinstr := instr / 1000
	p50, _ := percentile(b.windowMs, 50)
	p90, _ := percentile(b.windowMs, 90)
	out := map[string]float64{
		"workload.generate_ms":               median(b.genMs),
		"system.build_ms":                    median(b.buildMs),
		"system.warm_ms":                     median(b.warmMs),
		"system.window_ms_p50":               p50,
		"system.window_ms_p90":               p90,
		"system.stepped_cycles_per_instr":    ratio(stepped, instr),
		"system.ff_skipped_frac":             ratio(ffSkipped, lifeCycles),
		"system.ff_windows_per_kinstr":       ratio(ffWindows, kinstr),
		"system.allocs_per_instr":            ratio(b.mallocs, b.tracedInstr),
		"system.bytes_per_instr":             ratio(b.allocBytes, b.tracedInstr),
		"pipeline.stage_walks_per_cycle":     ratio(walks, stepped),
		"pipeline.skip_frac.writeback":       ratio(skipWB, stepped),
		"pipeline.skip_frac.capture":         ratio(skipCap, stepped),
		"pipeline.skip_frac.commit":          ratio(skipCom, stepped),
		"pipeline.skip_frac.replay":          ratio(skipRep, stepped),
		"pipeline.skip_frac.issue":           ratio(skipIss, stepped),
		"pipeline.useful_frac":               ratio(instr, instr+squashed),
		"core.replays_per_instr":             ratio(replays, instr),
		"core.filtered_frac":                 ratio(filtered, replaySeen),
		"core.mismatch_per_kreplay":          ratio(mismatches*1000, replays),
		"lsq.sq_searches_per_instr":          ratio(sqSearches, instr),
		"lsq.lq_entries_per_search":          ratio(lqEntries, lqSearches),
		"cache.l1d_hit_frac":                 ratio(l1dHits, accesses),
		"cache.mem_fills_per_kinstr":         ratio(memFills, kinstr),
		"coherence.bus_tx_per_kinstr":        ratio(busTx, kinstr),
		"coherence.invalidations_per_kinstr": ratio(invals, kinstr),
		"coherence.filtered_probe_frac":      ratio(filteredProbes, filteredProbes+invals),
		"bpred.mispredict_frac":              ratio(bpMiss, bpLookups),
	}
	if b.cells[0].cores > 1 {
		out["system.default_vs_best_hatch"] = b.defaultVsBestHatch(e)
	}
	return out
}

// hatches are the escape-hatch configurations the default must not
// fall behind (DESIGN.md §12, §14).
var hatches = []struct {
	name         string
	noFF, noSkip bool
}{
	{"default", false, false},
	{"no-fastforward", true, false},
	{"no-stageskip", false, true},
	{"no-fastforward+no-stageskip", true, true},
}

// hatchWindows is how many windows, each hatchScale cell windows long,
// each configuration times; the fastest stands for the configuration.
const (
	hatchWindows = 3
	hatchScale   = 4
)

// defaultVsBestHatch builds each cell fresh under every escape-hatch
// combination, times warmed windows, and returns the minimum over cells
// of default speed ÷ the best hatch's speed.
func (b *simBench) defaultVsBestHatch(e *env) float64 {
	worst := 0.0
	for i, c := range b.cells {
		speed := make([]float64, len(hatches))
		for h, hc := range hatches {
			s, opt, _ := b.build(e, i, 0, 0, hc.noFF, hc.noSkip)
			for w := uint64(1); w <= hatchWindows; w++ {
				before := committed(s)
				id := e.tr.begin("system.Advance", c.name()+" "+hc.name)
				d := timed(func() { s.Advance(w*hatchScale*c.window, opt) })
				e.tr.end(id)
				speed[h] = max(speed[h], ratio(float64(committed(s)-before), d.Seconds()))
			}
		}
		best := max(speed[1], speed[2], speed[3])
		r := ratio(speed[0], best)
		if i == 0 || r < worst {
			worst = r
		}
	}
	return worst
}

// check runs, on any seed but the default, the bit-identity contract:
// a prefix of each cell's first layout (its warm-up and one window)
// with both skip layers on equals the same prefix with both escape
// hatches set.
func (b *simBench) check(e *env) {
	if e.opt.seed == defaultSeed {
		return
	}
	for i, c := range b.cells {
		var res [2]any
		var cyc [2]int64
		for k, hatch := range []bool{false, true} {
			s, opt, _ := b.build(e, i, 0, 0, hatch, hatch)
			s.Advance(c.window, opt)
			res[k], cyc[k] = s.Result(), s.CycleNum
		}
		e.expect(cyc[0] == cyc[1] && reflect.DeepEqual(res[0], res[1]),
			"%s: default and escape-hatch prefixes differ (cycles %d vs %d)", c.name(), cyc[0], cyc[1])
	}
}

func (b *simBench) close() { b.live = nil }
