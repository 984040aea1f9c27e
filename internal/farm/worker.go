// The remote-worker runtime behind cmd/vbrworker: lease a batch of
// cells, execute them through the exact same litmus.RunCell /
// experiments.MeasureCell paths the server's local executors use, upload
// each result (cache-before-acknowledge on the server side), and
// heartbeat in the background so the leases outlive long cells. The
// worker is deliberately stateless: it holds no journal and no cache,
// so SIGKILL at any instant loses at most the wall-clock time spent on
// the current batch — the server's lease sweeper re-queues the cells,
// and determinism guarantees whoever re-runs them produces the same
// bytes. Transient server unavailability (restart, partition) is ridden
// out with bounded exponential backoff on top of the client's own
// per-request retries.

package farm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vbmo/internal/farm/cachekey"
)

// VersionError reports a worker/server code-fingerprint mismatch. It is
// fatal by design: a mismatched worker would file results computed by
// different code under this server's cache keys.
type VersionError struct {
	Server, Worker string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("farm: server runs code version %q, this worker %q; results would corrupt the content-addressed cache — rebuild the worker",
		e.Server, e.Worker)
}

// Worker pulls cells from a farm server and executes them. Configure
// the fields, then call Run; the zero values mean the defaults.
type Worker struct {
	// Client is the server connection (required). Its retry policy is
	// the inner defense; the worker's own backoff is the outer one.
	Client *Client
	// ID is this worker's stable identity (required).
	ID string
	// Batch is the cells checked out per lease round trip (default 4).
	Batch int
	// Heartbeat overrides the renewal interval (default: a third of the
	// server-announced lease TTL).
	Heartbeat time.Duration
	// Poll is the idle wait between empty lease answers; it backs off
	// exponentially to MaxPoll while there is no work or no server
	// (default 250ms).
	Poll time.Duration
	// MaxPoll caps the idle/unavailable backoff (default 5s).
	MaxPoll time.Duration
	// MaxIdle, when positive, makes Run return nil after this long
	// without obtaining any cell — the batch-job exit for CI and
	// scripts. Zero means run until the context is cancelled.
	MaxIdle time.Duration
	// ExecDelay inserts a pause before each cell's execution. A chaos /
	// test knob: it widens the mid-cell window so kill-tolerance tests
	// (and CI) can SIGKILL a worker that provably holds unfinished
	// leases. Zero for production.
	ExecDelay time.Duration
	// Logf, when set, receives progress lines (e.g. log.Printf).
	Logf func(format string, args ...any)

	completed atomic.Uint64

	hbMu    sync.Mutex
	hbTimer *time.Timer
	hbStop  bool
	ttl     time.Duration
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Completed returns how many cells this worker has successfully
// uploaded.
func (w *Worker) Completed() uint64 { return w.completed.Load() }

// sleepCtx pauses for d or until ctx is cancelled — without a
// multi-way select, which the determinism analyzer bans in this
// package. Two AfterFunc-style triggers race to close one channel; a
// sync.Once makes the race benign.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 || ctx.Err() != nil {
		return
	}
	done := make(chan struct{})
	var once sync.Once
	fire := func() { once.Do(func() { close(done) }) }
	t := time.AfterFunc(d, fire)
	defer t.Stop()
	stop := context.AfterFunc(ctx, fire)
	defer stop()
	<-done
}

// heartbeatInterval derives the renewal period from the override or the
// last server-announced TTL.
func (w *Worker) heartbeatInterval() time.Duration {
	if w.Heartbeat > 0 {
		return w.Heartbeat
	}
	w.hbMu.Lock()
	ttl := w.ttl
	w.hbMu.Unlock()
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	if iv := ttl / 3; iv >= 50*time.Millisecond {
		return iv
	}
	return 50 * time.Millisecond
}

// noteTTL records the server-announced lease TTL for heartbeat pacing.
func (w *Worker) noteTTL(ms int64) {
	if ms <= 0 {
		return
	}
	w.hbMu.Lock()
	w.ttl = time.Duration(ms) * time.Millisecond
	w.hbMu.Unlock()
}

// startHeartbeat arms the self-rescheduling renewal timer. Errors are
// deliberately ignored: a missed heartbeat costs at worst a lease
// expiry and a benign duplicate execution.
func (w *Worker) startHeartbeat(ctx context.Context) {
	var tick func()
	tick = func() {
		if ctx.Err() != nil {
			return
		}
		if _, err := w.Client.Heartbeat(w.ID); err != nil {
			w.logf("vbrworker %s: heartbeat failed (will retry): %v", w.ID, err)
		}
		// Compute the interval before taking hbMu: heartbeatInterval
		// locks it too.
		iv := w.heartbeatInterval()
		w.hbMu.Lock()
		if !w.hbStop {
			w.hbTimer = time.AfterFunc(iv, tick)
		}
		w.hbMu.Unlock()
	}
	iv := w.heartbeatInterval()
	w.hbMu.Lock()
	w.hbTimer = time.AfterFunc(iv, tick)
	w.hbMu.Unlock()
}

func (w *Worker) stopHeartbeat() {
	w.hbMu.Lock()
	w.hbStop = true
	t := w.hbTimer
	w.hbMu.Unlock()
	if t != nil {
		t.Stop()
	}
}

// Run is the worker's main loop: handshake versions, then lease /
// execute / complete until the context is cancelled (or MaxIdle starves
// it). Run returns nil on a clean exit, a *VersionError on a build
// mismatch, and otherwise only context errors — server unavailability
// is never fatal, only backed off.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil || w.ID == "" {
		return fmt.Errorf("farm: worker needs a Client and an ID")
	}
	batch := w.Batch
	if batch <= 0 {
		batch = 4
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	maxPoll := w.MaxPoll
	if maxPoll <= 0 {
		maxPoll = 5 * time.Second
	}

	// Version handshake: keep knocking (bounded backoff) until the
	// server answers, then insist on an identical code fingerprint.
	delay := poll
	for {
		if ctx.Err() != nil {
			return nil
		}
		h, err := w.Client.Health()
		if err == nil {
			if h["version"] != cachekey.Version() {
				return &VersionError{Server: h["version"], Worker: cachekey.Version()}
			}
			break
		}
		w.logf("vbrworker %s: server unreachable (%v); backing off %s", w.ID, err, delay)
		sleepCtx(ctx, delay)
		if delay *= 2; delay > maxPoll {
			delay = maxPoll
		}
	}

	w.startHeartbeat(ctx)
	defer w.stopHeartbeat()
	w.logf("vbrworker %s: connected (batch %d)", w.ID, batch)

	idle := poll
	lastWork := time.Now()
	for ctx.Err() == nil {
		resp, err := w.Client.Lease(LeaseRequest{Worker: w.ID, Max: batch})
		if err != nil {
			w.logf("vbrworker %s: lease failed (%v); backing off %s", w.ID, err, idle)
			sleepCtx(ctx, idle)
			if idle *= 2; idle > maxPoll {
				idle = maxPoll
			}
			continue
		}
		if resp.Version != cachekey.Version() {
			// The server changed underneath us (redeploy): stop rather
			// than file wrong-build results.
			return &VersionError{Server: resp.Version, Worker: cachekey.Version()}
		}
		w.noteTTL(resp.TTLMillis)
		if len(resp.Cells) == 0 {
			if w.MaxIdle > 0 && time.Since(lastWork) > w.MaxIdle {
				w.logf("vbrworker %s: idle for %s; exiting", w.ID, w.MaxIdle)
				return nil
			}
			sleepCtx(ctx, idle)
			if idle *= 2; idle > maxPoll {
				idle = maxPoll
			}
			continue
		}
		idle = poll
		lastWork = time.Now()
		for _, lc := range resp.Cells {
			if ctx.Err() != nil {
				return nil
			}
			sleepCtx(ctx, w.ExecDelay)
			raw, execErr := lc.Cell.Execute()
			req := CompleteRequest{Worker: w.ID, Lease: lc.Lease, Key: lc.Key, Result: raw}
			if execErr != nil {
				req.Result = nil
				req.Error = execErr.Error()
			}
			ack, err := w.Client.Complete(req)
			if err != nil {
				// The server is gone beyond the client's retry budget.
				// Drop the rest of the batch: the leases will expire and
				// the cells re-queue, and re-leasing after the backoff
				// is cheaper than stockpiling results we cannot file.
				w.logf("vbrworker %s: completion failed (%v); dropping batch", w.ID, err)
				break
			}
			w.completed.Add(1)
			if ack.Duplicate {
				w.logf("vbrworker %s: %s was already resolved (benign duplicate)", w.ID, lc.Key)
			}
		}
	}
	return nil
}
