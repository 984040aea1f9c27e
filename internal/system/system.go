// Package system assembles complete machines: one or more pipeline
// cores over a shared memory image, a coherence bus with a DMA agent,
// and the lock-step cycle loop. It also hosts the machine-equivalence
// oracle used by the uniprocessor tests and the hooks the
// constraint-graph checker consumes.
package system

import (
	"fmt"
	"sort"

	"vbmo/internal/cache"
	"vbmo/internal/coherence"
	"vbmo/internal/config"
	"vbmo/internal/consistency"
	"vbmo/internal/fault"
	"vbmo/internal/isa"
	"vbmo/internal/pipeline"
	"vbmo/internal/prog"
	"vbmo/internal/stats"
	"vbmo/internal/trace"
	"vbmo/internal/workload"
)

// Options configure a system build.
type Options struct {
	// Cores is the processor count (1 = uniprocessor).
	Cores int
	// Seed drives workload generation, data placement and the memory
	// image background.
	Seed uint64
	// DMAInterval enables the coherent DMA agent (0 disables). The
	// paper's uniprocessor observes snoops only from coherent I/O.
	DMAInterval int64
	// DMABurst is blocks per DMA burst.
	DMABurst int
	// MaxCycles bounds the run (0 = no bound).
	MaxCycles int64
	// RecordCommits retains every core's committed records (needed by
	// the consistency checker; costs memory).
	RecordCommits bool
	// TrackConsistency enables the shadow image and per-word version
	// chains so CheckSC can build the constraint graph. Implies
	// RecordCommits.
	TrackConsistency bool
	// Trace, when non-nil, is threaded through every core, the bus, and
	// the checker: the machine emits the DESIGN.md §6 event stream into
	// it. Nil (the default) keeps every hot path on its zero-cost
	// disabled branch.
	Trace *trace.Tracer
	// SnapshotInterval, when positive, samples per-core metrics
	// snapshots (counter deltas + ROB/LQ/SQ occupancy histograms) every
	// SnapshotInterval cycles into System.Metrics.
	SnapshotInterval int64
	// OnCycle, when non-nil, is invoked once per cycle before the cores
	// step — the perturbation hook litmus sweeps use to inject coherence
	// contention (Bus.Probe) or other timing noise mid-run.
	OnCycle func(cycle int64)
	// Fault, when enabled, builds a deterministic fault injector
	// (internal/fault) and threads it through every core and the
	// snoop/fill delivery paths. Nil or zero-rate keeps every hook on
	// its zero-cost disabled branch (DESIGN.md §10).
	Fault *fault.Config
	// NoFastForward disables the quiescence cycle-skipping fast-forward
	// (DESIGN.md §12). The skip is bit-identical to plain stepping, so
	// this exists for A/B equivalence tests and measurement, not for
	// correctness. Fast-forward is also suspended automatically whenever
	// OnCycle is set: a per-cycle hook must observe every cycle.
	NoFastForward bool
	// NoStageSkip disables the intra-cycle stage-skip readiness layer
	// (DESIGN.md §14): every core runs every stage scan every cycle.
	// Like NoFastForward this is an A/B escape hatch — skipping is
	// bit-identical to full stepping — not a correctness switch.
	NoStageSkip bool
	// WatchdogCycles, when positive, arms the forward-progress watchdog:
	// if no core commits an instruction for this many consecutive
	// cycles, the run stops and System.Deadlock holds a structured
	// report with per-core ROB/LSQ dumps. It also arms the
	// replay-squash-storm detector (exponential-backoff fetch
	// throttling). 0 (the default) disables both and leaves the cycle
	// loop untouched.
	WatchdogCycles int64
}

// System is a built machine: cores in lock-step over a shared image.
type System struct {
	Cfg      config.Machine
	Work     workload.Params
	Cores    []*pipeline.Core
	Image    *prog.Image
	Bus      *coherence.Bus
	DMA      *coherence.DMA
	Program  *prog.Program
	Shadow   *consistency.Shadow
	CycleNum int64
	// Commits[c] holds core c's committed records when RecordCommits
	// was set.
	Commits [][]prog.Committed
	// Trace is the event tracer the machine was built with (nil when
	// tracing is disabled).
	Trace *trace.Tracer
	// Metrics accumulates interval snapshots when Options.SnapshotInterval
	// was positive (nil otherwise).
	Metrics *trace.MetricsLog
	// snapInterval is the snapshot period in cycles (0 = disabled).
	snapInterval int64
	// onCycle is the per-cycle perturbation hook (nil = disabled).
	onCycle func(cycle int64)
	// Faults is the fault injector the machine was built with (nil when
	// fault injection is disabled).
	Faults *fault.Injector
	// Deadlock holds the watchdog's report when a run was stopped for
	// lack of forward progress (nil otherwise).
	Deadlock *DeadlockReport
	// wd is the armed watchdog (nil when disabled).
	wd *watchdog
	// ff accumulates quiescence fast-forward accounting (quiesce.go).
	ff FFStats
}

// New builds a system running the given workload on the given machine
// configuration.
func New(cfg config.Machine, work workload.Params, opt Options) *System {
	if opt.Cores <= 0 {
		opt.Cores = 1
	}
	if workload.IOBase != coherence.IOBase {
		panic("system: workload and coherence IOBase constants diverged")
	}
	program := workload.Generate(work, opt.Seed)
	inits := make([]prog.ArchState, opt.Cores)
	for c := range inits {
		inits[c] = workload.InitState(work, c, opt.Seed)
	}
	s := NewCustom(cfg, program, inits, opt)
	s.Work = work
	return s
}

// NewCustom builds a system running a hand-built program with explicit
// per-core initial states (one per core). Tests use this to reproduce
// the paper's Figure 1 scenarios exactly.
func NewCustom(cfg config.Machine, program *prog.Program, inits []prog.ArchState, opt Options) *System {
	if opt.Cores <= 0 {
		opt.Cores = len(inits)
	}
	if opt.Cores > config.MaxCores {
		panic(fmt.Sprintf("system: %d cores exceeds config.MaxCores (%d)",
			opt.Cores, config.MaxCores))
	}
	img := prog.NewImage(opt.Seed)
	bus := coherence.NewBus(opt.Cores, cfg.MemLatency)
	s := &System{
		Cfg:          cfg,
		Image:        img,
		Bus:          bus,
		Program:      program,
		Commits:      make([][]prog.Committed, opt.Cores),
		Trace:        opt.Trace,
		snapInterval: opt.SnapshotInterval,
		onCycle:      opt.OnCycle,
	}
	bus.Trace = opt.Trace
	bus.Now = func() int64 { return s.CycleNum }
	if opt.SnapshotInterval > 0 {
		s.Metrics = trace.NewMetricsLog(opt.Cores, opt.SnapshotInterval,
			cfg.ROBSize, cfg.LQSize, cfg.SQSize)
	}
	if opt.TrackConsistency {
		opt.RecordCommits = true
		s.Shadow = consistency.NewShadow(true)
	}
	if opt.Fault.Enabled() {
		s.Faults = fault.NewInjector(*opt.Fault, opt.Trace)
	}
	if opt.WatchdogCycles > 0 {
		s.wd = newWatchdog(opt.WatchdogCycles, opt.Cores)
	}
	for c := 0; c < opt.Cores; c++ {
		hier := cache.NewHierarchy(c, cfg.Hier, bus)
		bus.AttachPeer(c, hier)
		core := pipeline.New(c, cfg, program, img, hier, inits[c])
		core.SetStageSkip(!opt.NoStageSkip)
		// External invalidations reach the load queue (baseline) or the
		// no-recent-snoop filter; castouts must be treated identically
		// so snoop visibility is never lost (paper §3.1).
		onInval := core.HandleExternalInvalidation
		onFill := core.HandleExternalFill
		if s.Faults != nil && s.Faults.MessageFaults() {
			// Message faults interpose between delivery and the core's
			// ordering machinery: the cache state change already happened
			// (SnoopInvalidate / the fill itself), only the notification
			// is dropped or deferred. Deferred deliveries drain at the
			// top of each cycle (Advance), in jittered-due order, which
			// is what reorders back-to-back messages.
			onInval, onFill = s.wrapMessageFaults(core)
		}
		bus.OnInvalidation(c, onInval)
		hier.OnL3Evict = onInval
		hier.OnFill = onFill
		core.SetFaults(s.Faults)
		core.Shadow = s.Shadow
		core.SetTracer(opt.Trace)
		if opt.RecordCommits {
			idx := c
			core.CommitHook = func(r prog.Committed) {
				s.Commits[idx] = append(s.Commits[idx], r)
			}
		}
		s.Cores = append(s.Cores, core)
	}
	if opt.DMAInterval > 0 {
		burst := opt.DMABurst
		if burst <= 0 {
			burst = 2
		}
		s.DMA = &coherence.DMA{
			Bus: bus, Image: img, Blocks: workload.IOBlocks,
			Interval: opt.DMAInterval, Burst: burst,
		}
		if s.Shadow != nil {
			var dmaSeq uint64
			s.DMA.ShadowWrite = func(addr, value uint64) {
				dmaSeq++
				s.Shadow.Write(addr, consistency.MakeWriter(consistency.DMAProc, dmaSeq), value)
			}
		}
	}
	return s
}

// wrapMessageFaults returns invalidation/fill delivery callbacks for one
// core that route through the fault injector: a message may be dropped,
// deferred (redelivered by Advance at its jittered due cycle), or passed
// through untouched.
func (s *System) wrapMessageFaults(core *pipeline.Core) (onInval, onFill func(block uint64)) {
	id := core.ID
	flt := s.Faults
	if flt == nil {
		// Only reachable if a caller ever bypasses the install-site
		// check; the returned closures must still be safe to invoke.
		return core.HandleExternalInvalidation, core.HandleExternalFill
	}
	onInval = func(block uint64) {
		if dropped, extra := flt.SnoopFate(id, s.CycleNum); dropped {
			return
		} else if extra > 0 {
			flt.Defer(s.CycleNum+extra, func() { core.HandleExternalInvalidation(block) })
			return
		}
		core.HandleExternalInvalidation(block)
	}
	onFill = func(block uint64) {
		if dropped, extra := flt.FillFate(id, s.CycleNum); dropped {
			return
		} else if extra > 0 {
			flt.Defer(s.CycleNum+extra, func() { core.HandleExternalFill(block) })
			return
		}
		core.HandleExternalFill(block)
	}
	return onInval, onFill
}

// CheckSC builds the constraint graph over the recorded committed
// memory operations and tests it for a cycle. It requires
// TrackConsistency. It returns the offending operation when the
// execution is not sequentially consistent.
func (s *System) CheckSC() (consistency.Op, bool, *consistency.Graph) {
	procs, chains := s.buildOps()
	var onEdge func(from, to int32, kind consistency.EdgeKind)
	var g *consistency.Graph
	if s.Trace != nil {
		// Edge-insertion events make the checker's verdict auditable:
		// each edge lands in the trace as a KGraphEdge whose Tag/Aux are
		// the endpoint node indices and whose Reason names the dependence
		// order (DESIGN.md §6).
		onEdge = func(from, to int32, kind consistency.EdgeKind) {
			why := trace.REdgePO
			switch kind {
			case consistency.EdgeRAW:
				why = trace.REdgeRAW
			case consistency.EdgeWAW:
				why = trace.REdgeWAW
			case consistency.EdgeWAR:
				why = trace.REdgeWAR
			}
			s.Trace.Emit(trace.Event{Cycle: s.CycleNum, Core: -1,
				Kind: trace.KGraphEdge, Reason: why,
				Tag: int64(from), Aux: uint64(to)})
		}
	}
	g = consistency.BuildWith(procs, chains, s.Image.Background, onEdge)
	op, cyc := g.FindCycle()
	return op, cyc, g
}

// CheckCoherence verifies per-location sequential consistency (cache
// coherence) — the guarantee the insulated and hybrid load-queue
// designs provide on weakly-ordered machines (paper §2.1).
func (s *System) CheckCoherence() (consistency.Op, bool, *consistency.Graph) {
	procs, chains := s.buildOps()
	g := consistency.BuildPerLocation(procs, chains, s.Image.Background)
	op, cyc := g.FindCycle()
	return op, cyc, g
}

// Ops exposes the recorded committed memory operations and per-word
// version chains in the constraint checker's input form, so callers
// (the litmus subsystem) can build graphs with their own background
// content — litmus tests pre-initialize shared memory, so the initial
// value of a tested word is the test's, not the image hash's. Requires
// TrackConsistency.
func (s *System) Ops() ([][]consistency.Op, map[uint64][]consistency.Versioned) {
	return s.buildOps()
}

// Prewarm establishes a read copy of addr's block in core's hierarchy
// through the normal fill path (the bus directory registers the sharer,
// so later invalidations are still delivered). Litmus sweeps use it to
// start runs from a warmed-cache state.
func (s *System) Prewarm(core int, addr uint64) {
	s.Cores[core].Hierarchy().Prewarm(addr)
}

func (s *System) buildOps() ([][]consistency.Op, map[uint64][]consistency.Versioned) {
	if s.Shadow == nil {
		panic("system: consistency checks require Options.TrackConsistency")
	}
	procs := make([][]consistency.Op, len(s.Cores))
	for c, stream := range s.Commits {
		idx := 0
		for _, rec := range stream {
			switch rec.Op.Class() {
			case isa.ClassLoad:
				procs[c] = append(procs[c], consistency.Op{
					Proc: c, Index: idx, Kind: consistency.OpLoad,
					Addr: rec.Addr &^ 7, Value: rec.Result,
					ReadsFrom: consistency.Writer(rec.Writer),
				})
				idx++
			case isa.ClassStore:
				procs[c] = append(procs[c], consistency.Op{
					Proc: c, Index: idx, Kind: consistency.OpStore,
					Addr: rec.Addr &^ 7, Value: rec.Result,
					Self: consistency.Writer(rec.Writer),
				})
				idx++
			}
		}
	}
	chains := make(map[uint64][]consistency.Versioned)
	for _, addr := range allAddrs(procs) {
		if ch := s.Shadow.Chain(addr); len(ch) > 0 {
			chains[addr] = ch
		}
	}
	return procs, chains
}

// allAddrs returns the distinct word addresses touched by any stream,
// in ascending order, so downstream consumers never see map order.
func allAddrs(procs [][]consistency.Op) []uint64 {
	seen := make(map[uint64]struct{})
	for _, stream := range procs {
		for _, op := range stream {
			seen[op.Addr] = struct{}{}
		}
	}
	out := make([]uint64, 0, len(seen))
	for addr := range seen {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StageSkipStats sums the per-core stage-skip counters (DESIGN.md §14).
// Like FFStats they live outside Result, so skipping stays invisible to
// the bit-identity contract while its rates remain observable.
func (s *System) StageSkipStats() pipeline.SkipStats {
	var t pipeline.SkipStats
	for _, c := range s.Cores {
		t.Add(c.Skip)
	}
	return t
}

// IssueVisits sums the issue-queue entries every core's issue stage has
// visited (pipeline.Core.IssueVisits); like StageSkipStats it lives
// outside Result.
func (s *System) IssueVisits() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.IssueVisits
	}
	return n
}

// ResetStats zeroes all statistics (pipeline, caches, predictors, bus)
// after a warmup period; microarchitectural state is preserved.
func (s *System) ResetStats() {
	for _, c := range s.Cores {
		c.ResetStats()
	}
	s.Bus.Stats = coherence.Stats{}
	for i := range s.Commits {
		s.Commits[i] = nil
	}
}

// Run advances the system until every core has committed at least
// target instructions (or MaxCycles elapses). It returns the aggregate
// result.
func (s *System) Run(target uint64, opt Options) Result {
	s.Advance(target, opt)
	return s.Result()
}

// Advance is Run's cycle loop without the summary: it steps the system
// — per-cycle hook, DMA tick, lock-step core stepping, snapshot
// sampling — until every core has committed at least target
// instructions (cumulative since the last ResetStats) or MaxCycles
// elapses. Benchmarks and the allocation-regression tests use it to
// measure steady-state windows without Result's allocations.
//
//vbr:hotpath
func (s *System) Advance(target uint64, opt Options) {
	maxCycles := opt.MaxCycles
	if maxCycles == 0 {
		maxCycles = int64(target)*200 + 1_000_000
	}
	// The quiescence fast-forward (quiesce.go) is on by default — it is
	// bit-identical to plain stepping — but yields to the per-cycle hook,
	// which must observe every cycle.
	ff := !opt.NoFastForward && s.onCycle == nil
	for {
		done := true
		for _, c := range s.Cores {
			if c.Stats.Committed < target {
				done = false
				break
			}
		}
		if done || s.CycleNum >= maxCycles {
			break
		}
		if ff && s.tryFastForward(target, maxCycles) {
			continue
		}
		if s.onCycle != nil {
			s.onCycle(s.CycleNum)
		}
		if s.Faults != nil {
			s.Faults.DeliverDue(s.CycleNum)
		}
		if s.DMA != nil {
			s.DMA.Tick(s.CycleNum)
		}
		for _, c := range s.Cores {
			if c.Stats.Committed < target {
				c.Step()
			}
		}
		s.CycleNum++
		if s.wd != nil && s.wd.check(s) {
			break // no forward progress: s.Deadlock holds the report
		}
		if s.snapInterval > 0 && s.CycleNum%s.snapInterval == 0 {
			s.sample()
		}
	}
}

// sample records one metrics snapshot per core (occupancies observed
// now, counter deltas since the previous snapshot) and, when a tracer
// is attached, mirrors the occupancies into the event stream as
// counter-track events so timeline viewers can plot them.
func (s *System) sample() {
	for i, c := range s.Cores {
		rob, lq, sq := c.ROBLen(), c.LQLen(), c.SQLen()
		if s.Metrics != nil {
			s.Metrics.Record(s.CycleNum, i, rob, lq, sq, coreTotals(c))
		}
		if s.Trace != nil {
			s.Trace.Emit(trace.Event{Cycle: s.CycleNum, Core: int32(i),
				Kind: trace.KROBOcc, Value: uint64(rob)})
			s.Trace.Emit(trace.Event{Cycle: s.CycleNum, Core: int32(i),
				Kind: trace.KLQOcc, Value: uint64(lq)})
			s.Trace.Emit(trace.Event{Cycle: s.CycleNum, Core: int32(i),
				Kind: trace.KSQOcc, Value: uint64(sq)})
		}
	}
}

// coreTotals collects the cumulative counters whose interval deltas the
// metrics log reports (EXPERIMENTS.md "Metrics snapshots").
func coreTotals(c *pipeline.Core) map[string]uint64 {
	ps := &c.Stats
	m := map[string]uint64{
		"committed":  ps.Committed,
		"loads":      ps.CommittedLoads,
		"stores":     ps.CommittedStores,
		"replays":    ps.ReplayAccesses,
		"mismatches": 0,
		"squashes": ps.SquashesMispredict + ps.SquashesRAW +
			ps.SquashesInval + ps.SquashesLoadIssue +
			ps.SquashesReplayRAW + ps.SquashesReplayCons + ps.SquashesVPred,
	}
	if eng := c.Engine(); eng != nil {
		m["mismatches"] = eng.Stats.Mismatches
	}
	return m
}

// Result summarizes a run.
type Result struct {
	Machine  string
	Workload string
	Cores    int
	Cycles   int64
	// IPC is the mean per-core IPC.
	IPC float64
	// Aggregated pipeline statistics (summed over cores).
	Pipe pipeline.Stats
	// Counters carries auxiliary named statistics.
	Counters *stats.Counters
}

// Result computes the current summary without advancing the system.
func (s *System) Result() Result {
	r := Result{
		Machine:  s.Cfg.Name,
		Workload: s.Work.Name,
		Cores:    len(s.Cores),
		Cycles:   s.CycleNum,
		Counters: stats.NewCounters(),
	}
	var ipcSum float64
	for _, c := range s.Cores {
		ps := &c.Stats
		ipcSum += ps.IPC()
		agg := &r.Pipe
		agg.Cycles += ps.Cycles
		agg.Committed += ps.Committed
		agg.CommittedLoads += ps.CommittedLoads
		agg.CommittedStores += ps.CommittedStores
		agg.CommittedBranches += ps.CommittedBranches
		agg.SilentStores += ps.SilentStores
		agg.DemandLoadAccesses += ps.DemandLoadAccesses
		agg.ForwardedLoads += ps.ForwardedLoads
		agg.ReplayAccesses += ps.ReplayAccesses
		agg.StoreAccesses += ps.StoreAccesses
		agg.SquashesMispredict += ps.SquashesMispredict
		agg.SquashesRAW += ps.SquashesRAW
		agg.SquashesInval += ps.SquashesInval
		agg.SquashesLoadIssue += ps.SquashesLoadIssue
		agg.SquashesReplayRAW += ps.SquashesReplayRAW
		agg.SquashesReplayCons += ps.SquashesReplayCons
		agg.SquashedInstrs += ps.SquashedInstrs
		agg.LoadsNUSFlagged += ps.LoadsNUSFlagged
		agg.LoadsReordered += ps.LoadsReordered
		agg.ValuePredictedLoads += ps.ValuePredictedLoads
		agg.ValuePredictedCommitted += ps.ValuePredictedCommitted
		agg.SquashesVPred += ps.SquashesVPred
		agg.ROBOccupancySum += ps.ROBOccupancySum
		agg.StallROB += ps.StallROB
		agg.StallIQ += ps.StallIQ
		agg.StallLQ += ps.StallLQ
		agg.StallSQ += ps.StallSQ
		agg.StallBarrier += ps.StallBarrier

		if eng := c.Engine(); eng != nil {
			r.Counters.Add("replay.loads_seen", eng.Stats.LoadsSeen)
			r.Counters.Add("replay.replays", eng.Stats.Replays)
			r.Counters.Add("replay.replays_nus", eng.Stats.ReplaysNUS)
			r.Counters.Add("replay.filtered", eng.Stats.Filtered)
			r.Counters.Add("replay.mismatches", eng.Stats.Mismatches)
			r.Counters.Add("replay.window_events", eng.Stats.WindowEvents)
		}
		if lq := c.LoadQueue(); lq != nil {
			r.Counters.Add("lq.searches", lq.Searches)
			r.Counters.Add("lq.searched_entries", lq.SearchedEntries)
			r.Counters.Add("lq.raw_squashes", lq.RAWSquashes)
			r.Counters.Add("lq.inval_squashes", lq.InvalSquashes)
			r.Counters.Add("lq.bloom_filtered", lq.BloomFiltered)
		}
		r.Counters.Add("sq.searches", c.StoreQueue().Searches)
		r.Counters.Add("sq.l2_searches", c.StoreQueue().L2Searches)
		r.Counters.Add("sq.l2_filtered", c.StoreQueue().L2Filtered)
		hs := c.Hierarchy().Stats
		r.Counters.Add("cache.remote_fills", hs.RemoteFills)
		r.Counters.Add("cache.snoop_invalidations", hs.SnoopInvalidations)
		if tlb := c.Hierarchy().DataTLB(); tlb != nil {
			r.Counters.Add("tlb.accesses", tlb.Accesses)
			r.Counters.Add("tlb.misses", tlb.Misses)
		}
		r.Counters.Add("bp.lookups", c.Predictor().Lookups)
		r.Counters.Add("bp.mispredicts", c.Predictor().Mispredicts)
		if vp := c.ValuePredictor(); vp != nil {
			r.Counters.Add("vpred.predictions", vp.Predictions)
			r.Counters.Add("vpred.correct", vp.Correct)
			r.Counters.Add("vpred.incorrect", vp.Incorrect)
		}
	}
	r.IPC = ipcSum / float64(len(s.Cores))
	return r
}

// String renders a short human-readable summary.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s cores=%d cycles=%d IPC=%.3f committed=%d",
		r.Machine, r.Workload, r.Cores, r.Cycles, r.IPC, r.Pipe.Committed)
}
