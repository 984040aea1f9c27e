package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vbmo/internal/farm"
	"vbmo/internal/litmus"
)

// jobWait bounds one job's wait; a healthy job takes milliseconds.
const jobWait = time.Minute

// farmBench runs an in-process farm server (default hybrid mode, local
// pool with one shard per CPU) on loopback and one closed-loop client
// that alternates a cold job, whose every cell misses the cache, with a
// warm resubmit of the same spec, whose every cell hits.
type farmBench struct {
	srv    *farm.Server
	client *farm.Client
	dir    string
	shards int
	jobs   int
	traced bool // the traced phase has begun

	openMs []float64
	m0     farm.MetricsSnapshot // metrics at the start of the traced phase
	// Traced-phase measurements.
	coldMs, warmMs, submitMs, expandMs, keyUs, executeMs, putMs, resultsMs, overheadMs []float64
	cache                                                                              *farm.Cache
}

// jobSpec is the i-th cold job of the seeded sequence: three battery
// tests on two configurations plus one small §5.1 matrix cell, all
// under fresh seeds so no cell repeats an earlier job's.
func jobSpec(seed uint64, i int) farm.JobSpec {
	r := mix(seed, uint64(i), 7)
	battery := litmus.Battery()
	cfgs := litmus.Configs()
	first := int(r % uint64(len(battery)))
	var tests []string
	for k := 0; k < 3; k++ {
		tests = append(tests, battery[(first+k*4)%len(battery)].Name)
	}
	c0 := int(r >> 8 % uint64(len(cfgs)))
	c1 := (c0 + 1 + int(r>>16%uint64(len(cfgs)-1))) % len(cfgs)
	machines := []string{"baseline", "replay-all", "no-reorder", "no-recent-miss", "no-recent-snoop"}
	works := []string{"gzip", "parser", "vortex", "twolf", "crafty"}
	return farm.JobSpec{
		Litmus: &farm.LitmusSpec{
			Tests: tests, Configs: []string{cfgs[c0].Name, cfgs[c1].Name},
			Runs: 2, Seed: mix(r, 1),
		},
		Matrix: &farm.MatrixSpec{
			Machines:  []string{machines[r>>24%uint64(len(machines))]},
			Workloads: []string{works[r>>32%uint64(len(works))]},
			UniInstr:  3000, Seed: mix(r, 2),
		},
	}
}

func (b *farmBench) setup(e *env, rep int) error {
	b.close()
	b.jobs = 0
	b.shards = runtime.NumCPU()
	b.dir = filepath.Join(e.tmp, fmt.Sprintf("farm-%d", rep))
	t0 := time.Now()
	id := e.tr.begin("farm.NewServer", "")
	srv, err := farm.NewServer(b.dir, b.shards, nil)
	if err != nil {
		e.tr.end(id)
		return err
	}
	b.srv = srv
	addr, err := srv.Start("127.0.0.1:0")
	e.tr.end(id)
	if err != nil {
		return err
	}
	b.client = &farm.Client{Base: "http://" + addr.String()}
	id = e.tr.begin("farm.Client.Health", "")
	_, err = b.client.Health()
	e.tr.end(id)
	if err != nil {
		return err
	}
	b.openMs = append(b.openMs, ms(time.Since(t0)))
	// One warm-up pair so connection set-up and first-use paths are
	// paid before timing.
	spec := jobSpec(mix(e.opt.seed, 1<<32, uint64(rep)), 0)
	if _, err := b.runJob(e, spec, false); err != nil {
		return err
	}
	_, err = b.runJob(e, spec, true)
	return err
}

// runJob submits spec and waits for its digest.
func (b *farmBench) runJob(e *env, spec farm.JobSpec, fresh bool) (farm.JobStatus, error) {
	id := e.tr.begin("farm.Client.Submit", "")
	t0 := time.Now()
	st, err := b.client.Submit(spec, fresh)
	if e.tr != nil {
		b.submitMs = append(b.submitMs, ms(time.Since(t0)))
	}
	e.tr.end(id)
	if err != nil {
		return st, err
	}
	id = e.tr.begin("farm.Client.Wait", st.ID)
	st, err = b.client.Wait(st.ID, jobWait)
	e.tr.end(id)
	if err == nil && st.State != farm.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, err
}

func (b *farmBench) step(e *env) {
	if e.tr != nil && !b.traced {
		b.traced = true
		b.m0 = b.snapshot(e)
	}
	i := b.jobs
	b.jobs++
	spec := jobSpec(e.opt.seed, i)
	e.attempt(2)

	job := e.tr.begin("bench.job", fmt.Sprintf("cold %d", i))
	var cold farm.JobStatus
	var err error
	wall := time.Now()
	d := timed(func() { cold, err = b.runJob(e, spec, false) })
	coldWall := time.Since(wall)
	e.tr.end(job)
	if err != nil {
		e.fail("cold job %d: %v", i, err)
		return
	}
	e.lat = append(e.lat, ms(d))
	if cold.Executed != cold.Total {
		e.mismatch("cold job %d: %d of %d cells executed, want all", i, cold.Executed, cold.Total)
	}

	job = e.tr.begin("bench.job", fmt.Sprintf("warm %d", i))
	var warm farm.JobStatus
	wall = time.Now()
	dw := timed(func() { warm, err = b.runJob(e, spec, true) })
	warmWall := time.Since(wall)
	e.tr.end(job)
	if err != nil {
		e.fail("warm job %d: %v", i, err)
		return
	}
	e.done(float64(cold.Total+warm.Total), d+dw)
	e.expect(warm.Cached == warm.Total, "warm job %d: %d of %d cells cached", i, warm.Cached, warm.Total)
	e.expect(warm.Digest == cold.Digest, "job %d: warm digest %s, cold %s", i, warm.Digest, cold.Digest)
	if i < 3 {
		e.record(fmt.Sprintf("job/%d", i), cold.Digest)
	}
	if e.tr != nil {
		b.coldMs = append(b.coldMs, ms(coldWall))
		b.warmMs = append(b.warmMs, ms(warmWall))
		b.traceProbe(e, i, spec, cold, coldWall)
	} else if i == 0 && e.opt.seed != defaultSeed {
		b.directCheck(e, i, spec, cold.ID, nil)
	}
}

// traceProbe times the client-side and cell-level calls of one job
// from outside the server: expansion, keys, results, and every cell
// executed directly and put into a side cache.
func (b *farmBench) traceProbe(e *env, i int, spec farm.JobSpec, cold farm.JobStatus, d time.Duration) {
	id := e.tr.begin("farm.JobSpec.Validate", "")
	t0 := time.Now()
	err := spec.Validate()
	var cells []farm.Cell
	if err == nil {
		e.tr.end(id)
		id = e.tr.begin("farm.JobSpec.Cells", "")
		cells, err = spec.Cells()
	}
	b.expandMs = append(b.expandMs, ms(time.Since(t0)))
	e.tr.end(id)
	if err != nil {
		e.fail("job %d: expand: %v", i, err)
		return
	}
	for _, c := range cells {
		id := e.tr.begin("farm.Cell.Key", c.Kind)
		t0 := time.Now()
		_, err := c.Key()
		b.keyUs = append(b.keyUs, float64(time.Since(t0))/1e3)
		e.tr.end(id)
		if err != nil {
			e.fail("job %d: key: %v", i, err)
		}
	}
	if i%4 == 0 {
		// Overhead per cell: the job's time beyond its cells' direct
		// execution time spread over the pool's shards.
		exec := b.directCheck(e, i, spec, cold.ID, cells)
		b.overheadMs = append(b.overheadMs, (ms(d)-exec/float64(min(b.shards, len(cells))))/float64(len(cells)))
	}
}

// directCheck fetches the job's results and executes every cell
// directly: each must equal the farm's bytes. It returns the summed
// direct execution time (ms) and, when traced, times cache puts of
// the results into a side cache.
func (b *farmBench) directCheck(e *env, i int, spec farm.JobSpec, jobID string, cells []farm.Cell) float64 {
	var err error
	if cells == nil {
		if cells, err = spec.Cells(); err != nil {
			e.fail("job %d: expand: %v", i, err)
			return 0
		}
	}
	id := e.tr.begin("farm.Client.Results", jobID)
	t0 := time.Now()
	res, err := b.client.Results(jobID)
	if e.tr != nil {
		b.resultsMs = append(b.resultsMs, ms(time.Since(t0)))
	}
	e.tr.end(id)
	if err != nil || len(res.Results) != len(cells) {
		e.fail("job %d: results: %v (%d results for %d cells)", i, err, len(res.Results), len(cells))
		return 0
	}
	if e.tr != nil && b.cache == nil {
		if b.cache, err = farm.OpenCache(filepath.Join(e.tmp, "side-cache.jsonl")); err != nil {
			e.fail("open side cache: %v", err)
		}
	}
	total := 0.0
	for k, c := range cells {
		id := e.tr.begin("farm.Cell.Execute", c.Kind)
		t0 := time.Now()
		raw, err := c.Execute()
		d := ms(time.Since(t0))
		e.tr.end(id)
		total += d
		if e.tr != nil {
			b.executeMs = append(b.executeMs, d)
		}
		e.expect(err == nil && bytes.Equal(raw, res.Results[k].Result),
			"job %d cell %d: farm result differs from direct Cell.Execute (err %v)", i, k, err)
		if b.cache != nil && err == nil {
			key, _ := c.Key()
			id := e.tr.begin("farm.Cache.Put", c.Kind)
			t0 := time.Now()
			if err := b.cache.Put(fmt.Sprintf("%d|%s", i, key), raw); err != nil {
				e.fail("side cache put: %v", err)
			}
			b.putMs = append(b.putMs, ms(time.Since(t0)))
			e.tr.end(id)
		}
	}
	return total
}

func (b *farmBench) snapshot(e *env) farm.MetricsSnapshot {
	id := e.tr.begin("farm.Client.Metrics", "")
	defer e.tr.end(id)
	m, err := b.client.Metrics()
	if err != nil {
		e.fail("metrics: %v", err)
	}
	return m
}

func (b *farmBench) layers(e *env) map[string]float64 {
	m1 := b.snapshot(e)
	total, top := 0.0, 0.0
	for k, n := range m1.ShardOccupancy {
		v := float64(n)
		if k < len(b.m0.ShardOccupancy) {
			v -= float64(b.m0.ShardOccupancy[k])
		}
		total += v
		top = max(top, v)
	}
	hits := float64(m1.CacheHits - b.m0.CacheHits)
	misses := float64(m1.CacheMisses - b.m0.CacheMisses)
	subP50, _ := percentile(b.submitMs, 50)
	subP90, _ := percentile(b.submitMs, 90)
	coldP50, _ := percentile(b.coldMs, 50)
	coldP90, _ := percentile(b.coldMs, 90)
	warmP50, _ := percentile(b.warmMs, 50)
	warmP90, _ := percentile(b.warmMs, 90)
	return map[string]float64{
		"farm.server_open_ms":       median(b.openMs),
		"farm.submit_ms_p50":        subP50,
		"farm.submit_ms_p90":        subP90,
		"farm.expand_ms":            median(b.expandMs),
		"farm.execute_ms_p50":       median(b.executeMs),
		"farm.cache_put_ms_p50":     median(b.putMs),
		"farm.steal_frac":           ratio(float64(m1.TasksStolen-b.m0.TasksStolen), total),
		"farm.shard_imbalance":      ratio(top*float64(len(m1.ShardOccupancy)), total),
		"farm.overhead_ms_per_cell": median(b.overheadMs),
		"farm.key_us":               median(b.keyUs),
		"farm.results_ms_p50":       median(b.resultsMs),
		"farm.cache_hit_frac":       ratio(hits, hits+misses),
		"farm.cold_job_ms_p50":      coldP50,
		"farm.cold_job_ms_p90":      coldP90,
		"farm.warm_job_ms_p50":      warmP50,
		"farm.warm_job_ms_p90":      warmP90,
	}
}

// check is folded into step: every warm digest is compared with its
// cold run, and a job's cells with direct execution.
func (b *farmBench) check(e *env) {}

func (b *farmBench) close() {
	if b.cache != nil {
		_ = b.cache.Close() // side cache: timing only, nothing to keep
		b.cache = nil
	}
	if b.srv != nil {
		b.srv.Stop()
		b.srv = nil
		_ = os.RemoveAll(b.dir) // scratch state; the run's temp dir is removed too
	}
}
