package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"vbmo/internal/litmus"
	"vbmo/internal/par"
)

// litmusRuns is the perturbed executions per (test, config) cell of one
// sweep: small, so a sweep is one ~50 ms request and a run holds
// hundreds of them.
const litmusRuns = 2

// caughtWithin is how many sweeps a run may take to catch the unsound
// configuration; at litmusRuns per cell one sweep catches it about
// four times in five.
const caughtWithin = 10

// litmusBench runs the full battery at natural width on the standard
// configurations through litmus.Sweep, each sweep with its own seed and
// a fresh checkpoint journal.
type litmusBench struct {
	tests   []*litmus.Test
	cfgs    []litmus.Config
	allowed []*litmus.AllowedSet
	workers int

	sweeps     int
	caughtAt   int // 1-based sweep index that first caught the unsound config
	runs       float64
	incomplete float64
	oracleMs   []float64

	// Traced-phase direct measurements.
	runUs, cellMs, recordMs, syncMs []float64
	serialMs, sweepWallMs           float64
}

func (b *litmusBench) setup(e *env, rep int) error {
	b.sweeps, b.caughtAt = 0, 0
	t0 := time.Now()
	id := e.tr.begin("litmus.Battery", "")
	b.tests, b.cfgs = litmus.Battery(), litmus.Configs()
	e.tr.end(id)
	b.allowed = make([]*litmus.AllowedSet, len(b.tests))
	for i, t := range b.tests {
		id := e.tr.begin("litmus.Allowed", t.Name)
		b.allowed[i] = litmus.Allowed(t)
		e.tr.end(id)
	}
	b.oracleMs = append(b.oracleMs, ms(time.Since(t0)))
	b.workers = runtime.NumCPU()
	// A warm-up sweep lets the allocator and page cache settle before
	// timing, as a user's second sweep would find them.
	_, err := b.sweep(e, mix(e.opt.seed, 1<<32, uint64(rep)), fmt.Sprintf("warm-%d", rep))
	return err
}

func (b *litmusBench) sweep(e *env, seed uint64, name string) ([]litmus.Verdict, error) {
	path := filepath.Join(e.tmp, "sweep-"+name+".jsonl")
	defer os.Remove(path)
	id := e.tr.begin("litmus.Sweep", name)
	defer e.tr.end(id)
	return litmus.Sweep(litmus.SweepOptions{
		Tests: b.tests, Configs: b.cfgs, Runs: litmusRuns,
		Workers: b.workers, Seed: seed, Checkpoint: path,
	})
}

func (b *litmusBench) step(e *env) {
	i := b.sweeps
	b.sweeps++
	seed := mix(e.opt.seed, uint64(i))
	var vs []litmus.Verdict
	var err error
	d := timed(func() { vs, err = b.sweep(e, seed, fmt.Sprint(i)) })
	e.lat = append(e.lat, ms(d))
	cells := len(b.tests) * len(b.cfgs)
	e.attempt(cells * litmusRuns)
	if err != nil {
		e.fail("sweep %d: %v", i, err)
		return
	}
	incomplete := 0
	for _, v := range vs {
		if v.Error != "" {
			e.fail("sweep %d cell %s/%s: %s", i, v.Test, v.Config, v.Error)
		}
		for k := 0; k < v.Incomplete; k++ {
			e.fail("sweep %d cell %s/%s: run hit the cycle bound", i, v.Test, v.Config)
		}
		incomplete += v.Incomplete
	}
	b.runs += float64(cells * litmusRuns)
	b.incomplete += float64(incomplete)
	e.done(float64(cells*litmusRuns-incomplete), d)
	sum := litmus.Summarize(vs)
	e.expect(sum.SoundOK, "sweep %d: sound configs failed: %v", i, sum.FailedCells)
	if sum.UnsoundCaught && b.caughtAt == 0 {
		b.caughtAt = b.sweeps
	}
	if i == 0 {
		e.record("verdicts/sweep0", vs)
	}
	if e.tr != nil {
		b.traceProbe(e, i, seed, vs, d)
	}
}

// traceProbe times the calls Sweep makes internally, from outside:
// single runs, serial cells (which must reproduce the sweep's
// verdicts), and journal records of the sweep's verdicts.
func (b *litmusBench) traceProbe(e *env, i int, seed uint64, vs []litmus.Verdict, sweep time.Duration) {
	// One run per test, rotating through the configurations.
	for ti, t := range b.tests {
		cfg := b.cfgs[(ti+i)%len(b.cfgs)]
		id := e.tr.begin("litmus.RunOne", t.Name+"/"+cfg.Name)
		t0 := time.Now()
		litmus.RunOne(cfg.Machine, t, b.allowed[ti], seed+uint64(ti), nil)
		b.runUs = append(b.runUs, float64(time.Since(t0))/1e3)
		e.tr.end(id)
	}
	if i%4 != 0 {
		return
	}
	// Every fourth sweep: rerun all its cells serially.
	var serial time.Duration
	for ti, t := range b.tests {
		for ci, cfg := range b.cfgs {
			id := e.tr.begin("litmus.RunCell", t.Name+"/"+cfg.Name)
			t0 := time.Now()
			v := litmus.RunCell(t, cfg, b.allowed[ti], litmusRuns, litmus.CellSeed(seed, ti, ci), nil, 0)
			d := time.Since(t0)
			e.tr.end(id)
			serial += d
			b.cellMs = append(b.cellMs, ms(d))
			e.expect(reflect.DeepEqual(v, vs[ti*len(b.cfgs)+ci]),
				"sweep %d cell %s/%s: serial RunCell differs from Sweep", i, t.Name, cfg.Name)
		}
	}
	b.serialMs += ms(serial)
	b.sweepWallMs += ms(sweep)

	// Journal the sweep's verdicts again, timing each record, and time
	// a bare fsync of a same-sized line beside it.
	path := filepath.Join(e.tmp, fmt.Sprintf("journal-%d.jsonl", i))
	defer os.Remove(path)
	id := e.tr.begin("par.OpenJournal", "")
	j, err := par.OpenJournal(path, fmt.Sprintf("perfbench|%d", i))
	e.tr.end(id)
	if err != nil {
		e.fail("open journal: %v", err)
		return
	}
	defer j.Close()
	for k, v := range vs {
		id := e.tr.begin("par.Journal.Record", v.Test+"/"+v.Config)
		t0 := time.Now()
		err := j.Record(fmt.Sprintf("cell-%d", k), v)
		b.recordMs = append(b.recordMs, ms(time.Since(t0)))
		e.tr.end(id)
		if err != nil {
			e.fail("journal record: %v", err)
			return
		}
	}
	b.syncMs = append(b.syncMs, fsyncMs(filepath.Join(e.tmp, "fsync-probe"), 256)...)
}

// fsyncMs appends eight lines of lineBytes to a fresh file, syncing
// after each, and returns the sync durations.
func fsyncMs(path string, lineBytes int) []float64 {
	f, err := os.Create(path)
	if err != nil {
		return nil
	}
	defer os.Remove(path)
	defer f.Close()
	line := make([]byte, lineBytes)
	line[lineBytes-1] = '\n'
	var out []float64
	for k := 0; k < 8; k++ {
		if _, err := f.Write(line); err != nil {
			return out
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return out
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out
}

func (b *litmusBench) layers(e *env) map[string]float64 {
	runP50, _ := percentile(b.runUs, 50)
	runP90, _ := percentile(b.runUs, 90)
	cellP50, _ := percentile(b.cellMs, 50)
	cellP90, _ := percentile(b.cellMs, 90)
	recP50, _ := percentile(b.recordMs, 50)
	recP90, _ := percentile(b.recordMs, 90)
	return map[string]float64{
		"litmus.oracle_ms":          median(b.oracleMs),
		"litmus.run_us_p50":         runP50,
		"litmus.run_us_p90":         runP90,
		"litmus.cell_ms_p50":        cellP50,
		"litmus.cell_ms_p90":        cellP90,
		"litmus.incomplete_frac":    ratio(b.incomplete, b.runs),
		"par.parallel_eff":          ratio(b.serialMs, float64(b.workers)*b.sweepWallMs),
		"par.journal_record_ms_p50": recP50,
		"par.journal_record_ms_p90": recP90,
		"par.fsync_share":           ratio(median(b.syncMs), recP50),
	}
}

// check requires the unsound configuration to be caught within the
// run's first caughtWithin sweeps; sound configurations are checked on
// every sweep.
func (b *litmusBench) check(e *env) {
	if e.opt.seed == defaultSeed {
		return
	}
	e.expect(b.caughtAt > 0 && b.caughtAt <= caughtWithin,
		"unsound config not caught within %d sweeps (first caught at sweep %d)", caughtWithin, b.caughtAt)
}

func (b *litmusBench) close() {}
