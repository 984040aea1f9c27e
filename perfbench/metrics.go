package main

// metric declares one reported metric. Bound applies to end-to-end
// metrics: the share of the parent commit's median by which a change
// may worsen it. Moves and on record, for a per-layer metric, which
// end-to-end metric it should move and on which workload — the
// attribution a change's claim must show.
type metric struct {
	name, unit, better string
	bound              float64
	moves, on          string
}

// endToEnd metrics apply to every workload. A request is one round of
// steady-state windows over every cell (uni-busy, mp16-contended), one
// full-battery sweep (litmus-sweep), or one cold job and its warm
// resubmit (farm-jobs). throughput_per_s is the median over requests of
// work per CPU second, counting committed simulated instructions,
// litmus runs, or farm cells served. The latencies are of the request,
// except that farm-jobs reports the cold job alone, from POST to
// digest. Set-up and requests are timed on process CPU time (see timed
// in main.go); the farm jobs' wall-clock latencies are the per-layer
// farm.cold_job_ms_* and farm.warm_job_ms_*. The tail is gated at p75:
// on a shared 2-vCPU host, bursts of neighbour load lasting seconds
// moved a run's p90 by up to 45% (uni-busy, 81 to 118 ms) with the
// simulated work unchanged. rss_mb_p90 samples the resident set after
// every request: the peak (VmHWM) moved by a third between runs of
// litmus-sweep on sub-request allocation bursts that the collector
// frees at once.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_ms_p75", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_mb_p90", unit: "MB", better: "lower", bound: 0.15},
}

const (
	sims   = "uni-busy,mp16-contended"
	uni    = "uni-busy"
	mp16   = "mp16-contended"
	lit    = "litmus-sweep"
	farmW  = "farm-jobs"
	thru   = "throughput_per_s"
	setup  = "setup_s"
	lat    = "latency_ms_p50,latency_ms_p75"
	failed = "failed"
)

// perLayer metrics come from a traced run (--trace 1). Two layer
// quantities stay unmeasured because no public API exposes them: fast-forward probes attempted versus succeeded, and a
// farm cell's queue wait versus its execution. Both wait for spans
// inside the program.
var perLayer = []metric{
	{name: "workload.generate_ms", unit: "ms", better: "lower", moves: setup, on: sims},
	{name: "system.build_ms", unit: "ms", better: "lower", moves: setup, on: sims},
	{name: "system.warm_ms", unit: "ms", better: "lower", moves: setup, on: sims},
	{name: "system.window_ms_p50", unit: "ms", better: "lower", moves: thru, on: mp16},
	{name: "system.window_ms_p90", unit: "ms", better: "lower", moves: thru, on: mp16},
	{name: "system.stepped_cycles_per_instr", unit: "ratio", better: "lower", moves: thru, on: mp16},
	{name: "system.ff_skipped_frac", unit: "frac", better: "higher", moves: thru, on: mp16},
	{name: "system.ff_windows_per_kinstr", unit: "count", better: "higher", moves: thru, on: mp16},
	{name: "system.allocs_per_instr", unit: "count", better: "lower", moves: thru + ",rss_mb_p90", on: sims},
	{name: "system.bytes_per_instr", unit: "B", better: "lower", moves: thru + ",rss_mb_p90", on: sims},
	{name: "system.default_vs_best_hatch", unit: "ratio", better: "higher", moves: thru, on: mp16},

	{name: "pipeline.stage_walks_per_cycle", unit: "count", better: "lower", moves: thru, on: sims},
	{name: "pipeline.skip_frac.writeback", unit: "frac", better: "higher", moves: thru, on: sims},
	{name: "pipeline.skip_frac.capture", unit: "frac", better: "higher", moves: thru, on: sims},
	{name: "pipeline.skip_frac.commit", unit: "frac", better: "higher", moves: thru, on: sims},
	{name: "pipeline.skip_frac.replay", unit: "frac", better: "higher", moves: thru, on: sims},
	{name: "pipeline.skip_frac.issue", unit: "frac", better: "higher", moves: thru, on: sims},
	{name: "pipeline.useful_frac", unit: "frac", better: "higher", moves: thru, on: uni},
	{name: "pipeline.fetch_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "pipeline.dispatch_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "pipeline.issue_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "pipeline.writeback_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "pipeline.commit_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "pipeline.replay_share", unit: "frac", better: "lower", moves: thru, on: uni},

	{name: "core.replays_per_instr", unit: "count", better: "lower", moves: thru, on: uni},
	{name: "core.filtered_frac", unit: "frac", better: "higher", moves: thru, on: uni},
	{name: "core.mismatch_per_kreplay", unit: "count", better: "lower", moves: thru, on: uni},
	{name: "core.host_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "lsq.sq_searches_per_instr", unit: "count", better: "lower", moves: thru, on: uni},
	{name: "lsq.lq_entries_per_search", unit: "count", better: "lower", moves: thru, on: uni},
	{name: "lsq.host_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "cache.l1d_hit_frac", unit: "frac", better: "higher", moves: thru, on: uni},
	{name: "cache.mem_fills_per_kinstr", unit: "count", better: "lower", moves: thru, on: uni},
	{name: "cache.host_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "coherence.bus_tx_per_kinstr", unit: "count", better: "lower", moves: thru, on: mp16},
	{name: "coherence.invalidations_per_kinstr", unit: "count", better: "lower", moves: thru, on: mp16},
	{name: "coherence.filtered_probe_frac", unit: "frac", better: "higher", moves: thru, on: mp16},
	{name: "coherence.host_share", unit: "frac", better: "lower", moves: thru, on: mp16},
	{name: "bpred.mispredict_frac", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "bpred.host_share", unit: "frac", better: "lower", moves: thru, on: uni},
	{name: "runtime.gc_share", unit: "frac", better: "lower", moves: thru, on: sims + "," + lit},

	{name: "litmus.oracle_ms", unit: "ms", better: "lower", moves: setup, on: lit},
	{name: "litmus.run_us_p50", unit: "us", better: "lower", moves: thru, on: lit},
	{name: "litmus.run_us_p90", unit: "us", better: "lower", moves: thru, on: lit},
	{name: "litmus.cell_ms_p50", unit: "ms", better: "lower", moves: thru, on: lit},
	{name: "litmus.cell_ms_p90", unit: "ms", better: "lower", moves: thru, on: lit},
	{name: "litmus.incomplete_frac", unit: "frac", better: "lower", moves: failed, on: lit},
	{name: "par.parallel_eff", unit: "frac", better: "higher", moves: thru, on: lit},
	{name: "par.journal_record_ms_p50", unit: "ms", better: "lower", moves: thru + "," + lat, on: lit + "," + farmW},
	{name: "par.journal_record_ms_p90", unit: "ms", better: "lower", moves: thru + "," + lat, on: lit + "," + farmW},
	{name: "par.fsync_share", unit: "frac", better: "lower", moves: thru + "," + lat, on: lit + "," + farmW},

	{name: "farm.server_open_ms", unit: "ms", better: "lower", moves: setup, on: farmW},
	{name: "farm.submit_ms_p50", unit: "ms", better: "lower", moves: lat, on: farmW},
	{name: "farm.submit_ms_p90", unit: "ms", better: "lower", moves: lat, on: farmW},
	{name: "farm.expand_ms", unit: "ms", better: "lower", moves: lat + "," + thru, on: farmW},
	{name: "farm.execute_ms_p50", unit: "ms", better: "lower", moves: lat + "," + thru, on: farmW},
	{name: "farm.cache_put_ms_p50", unit: "ms", better: "lower", moves: lat + "," + thru, on: farmW},
	{name: "farm.steal_frac", unit: "frac", better: "lower", moves: lat + "," + thru, on: farmW},
	{name: "farm.shard_imbalance", unit: "ratio", better: "lower", moves: lat + "," + thru, on: farmW},
	{name: "farm.overhead_ms_per_cell", unit: "ms", better: "lower", moves: lat + "," + thru, on: farmW},
	{name: "farm.key_us", unit: "us", better: "lower", moves: "farm.warm_job_ms_p50", on: farmW},
	{name: "farm.results_ms_p50", unit: "ms", better: "lower", moves: "farm.warm_job_ms_p50", on: farmW},
	{name: "farm.cache_hit_frac", unit: "frac", better: "higher", moves: "farm.warm_job_ms_p50," + thru, on: farmW},
	{name: "farm.cold_job_ms_p50", unit: "ms", better: "lower", moves: lat + "," + thru, on: farmW},
	{name: "farm.cold_job_ms_p90", unit: "ms", better: "lower", moves: lat + "," + thru, on: farmW},
	{name: "farm.warm_job_ms_p50", unit: "ms", better: "lower", moves: thru, on: farmW},
	{name: "farm.warm_job_ms_p90", unit: "ms", better: "lower", moves: thru, on: farmW},

	{name: "span.self_share.bench", unit: "frac", better: "lower", moves: "trace.overhead_frac", on: "all"},
	{name: "span.self_share.workload", unit: "frac", better: "lower", moves: setup, on: sims},
	{name: "span.self_share.system", unit: "frac", better: "lower", moves: thru, on: sims},
	{name: "span.self_share.litmus", unit: "frac", better: "lower", moves: thru, on: lit},
	{name: "span.self_share.par", unit: "frac", better: "lower", moves: thru, on: lit},
	{name: "span.self_share.farm", unit: "frac", better: "lower", moves: lat, on: farmW},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", moves: "none (tracing cost)", on: "all"},
}
