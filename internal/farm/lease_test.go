package farm

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is the lease-test clock: tests advance it explicitly, so
// TTL expiry is exercised without sleeping through real lease windows.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// startLeaseServer runs a coordinator-only server (no local execution,
// so every cell must flow through the lease protocol) on a fake lease
// clock with a fast real-time sweeper.
func startLeaseServer(t *testing.T, clock *fakeClock) (*Server, *Client) {
	t.Helper()
	s, err := NewServerWith(t.TempDir(), ServerOptions{
		NoLocalExec:   true,
		LeaseTTL:      time.Minute,
		SweepInterval: 20 * time.Millisecond,
		Clock:         clock.Now,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		s.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Stop() })
	return s, &Client{Base: "http://" + addr.String(), Retry: RetryPolicy{Attempts: 1}}
}

// waitUntil polls cond (the sweeper runs on real time even when the
// lease clock is fake).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func oneCellSpec() JobSpec {
	return JobSpec{Litmus: &LitmusSpec{
		Tests: []string{"SB"}, Configs: []string{"baseline"}, Runs: 1, Seed: 3}}
}

// TestLeaseExpiryRequeueSecondWorker walks the full failure lifecycle:
// worker A checks a cell out and goes silent, the sweeper expires the
// lease and re-queues the cell, worker B leases the same cell and
// completes it, and A's eventual post-expiry completion is a benign
// duplicate — not an error, and not a second result.
func TestLeaseExpiryRequeueSecondWorker(t *testing.T) {
	clock := newFakeClock()
	srv, c := startLeaseServer(t, clock)

	st, err := c.Submit(oneCellSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 {
		t.Fatalf("spec expands to %d cells, want 1", st.Total)
	}

	// Worker A checks the cell out, then never heartbeats.
	la, err := c.Lease(LeaseRequest{Worker: "worker-a", Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(la.Cells) != 1 {
		t.Fatalf("worker-a leased %d cells, want 1", len(la.Cells))
	}
	if la.TTLMillis != time.Minute.Milliseconds() {
		t.Fatalf("announced TTL %dms, want 60000", la.TTLMillis)
	}

	// Nothing is lease-able while A's lease is live.
	if lb, _ := c.Lease(LeaseRequest{Worker: "worker-b", Max: 4}); len(lb.Cells) != 0 {
		t.Fatalf("leased-out cell handed to a second worker: %d cells", len(lb.Cells))
	}

	// One TTL later the sweeper re-queues the cell.
	clock.Advance(time.Minute + time.Second)
	waitUntil(t, "lease expiry", func() bool {
		return srv.Snapshot().LeasesExpired >= 1
	})
	m := srv.Snapshot()
	if m.LeasesExpired != 1 || m.CellsRequeued != 1 || m.QueuedCells != 1 {
		t.Fatalf("after expiry: expired=%d requeued=%d queued=%d, want 1/1/1",
			m.LeasesExpired, m.CellsRequeued, m.QueuedCells)
	}

	// Worker B picks the same cell up and completes it.
	lb, err := c.Lease(LeaseRequest{Worker: "worker-b", Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Cells) != 1 || lb.Cells[0].Key != la.Cells[0].Key {
		t.Fatalf("worker-b leased %v, want the expired cell %s", lb.Cells, la.Cells[0].Key)
	}
	raw, err := lb.Cells[0].Cell.Execute()
	if err != nil {
		t.Fatal(err)
	}
	ack, err := c.Complete(CompleteRequest{Worker: "worker-b",
		Lease: lb.Cells[0].Lease, Key: lb.Cells[0].Key, Result: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted || ack.Duplicate {
		t.Fatalf("first completion ack %+v, want accepted and not duplicate", ack)
	}
	st, err = c.Wait(st.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Digest == "" {
		t.Fatalf("job %+v, want done with a digest", st)
	}

	// A finally finishes the same cell (it never learned about the
	// expiry): a benign duplicate, resolved through the cache.
	ack, err = c.Complete(CompleteRequest{Worker: "worker-a",
		Lease: la.Cells[0].Lease, Key: la.Cells[0].Key, Result: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted || !ack.Duplicate {
		t.Fatalf("post-expiry completion ack %+v, want accepted duplicate", ack)
	}
	m = srv.Snapshot()
	if m.DuplicateCompletions != 1 || m.RemoteCompletions != 1 {
		t.Fatalf("duplicates=%d remote=%d, want 1/1", m.DuplicateCompletions, m.RemoteCompletions)
	}
	if st2, _ := c.Status(st.ID); st2.Digest != st.Digest {
		t.Fatalf("duplicate completion changed the digest: %s vs %s", st2.Digest, st.Digest)
	}
}

// TestHeartbeatRenewsOnlyOwnLeases: a heartbeat is a liveness claim for
// one worker — it must extend exactly that worker's leases. Worker A
// heartbeats, worker B does not; only B's lease expires.
func TestHeartbeatRenewsOnlyOwnLeases(t *testing.T) {
	clock := newFakeClock()
	srv, c := startLeaseServer(t, clock)

	spec := JobSpec{Litmus: &LitmusSpec{
		Tests: []string{"SB"}, Configs: []string{"baseline", "nus-only"}, Runs: 1, Seed: 3}}
	if _, err := c.Submit(spec, false); err != nil {
		t.Fatal(err)
	}

	la, err := c.Lease(LeaseRequest{Worker: "worker-a", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := c.Lease(LeaseRequest{Worker: "worker-b", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(la.Cells) != 1 || len(lb.Cells) != 1 {
		t.Fatalf("leases a=%d b=%d cells, want 1 each", len(la.Cells), len(lb.Cells))
	}

	// Half a TTL in, A heartbeats; B stays silent.
	clock.Advance(30 * time.Second)
	hb, err := c.Heartbeat("worker-a")
	if err != nil {
		t.Fatal(err)
	}
	if hb.Renewed != 1 {
		t.Fatalf("worker-a heartbeat renewed %d leases, want exactly its own 1", hb.Renewed)
	}
	if hb, _ := c.Heartbeat("worker-nobody"); hb.Renewed != 0 {
		t.Fatalf("stranger's heartbeat renewed %d leases, want 0", hb.Renewed)
	}

	// Past B's deadline but inside A's renewed one: only B expires.
	clock.Advance(31 * time.Second)
	waitUntil(t, "worker-b lease expiry", func() bool {
		return srv.Snapshot().LeasesExpired >= 1
	})
	m := srv.Snapshot()
	if m.LeasesExpired != 1 {
		t.Fatalf("expired %d leases, want only worker-b's 1", m.LeasesExpired)
	}

	// The re-queued cell is B's, not A's.
	lc, err := c.Lease(LeaseRequest{Worker: "worker-c", Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.Cells) != 1 || lc.Cells[0].Key != lb.Cells[0].Key {
		t.Fatalf("re-queued cell %v, want worker-b's %s", lc.Cells, lb.Cells[0].Key)
	}
	for _, w := range m.Workers {
		if w.ID == "worker-a" && w.ActiveLeases != 1 {
			t.Fatalf("worker-a holds %d active leases, want 1 (heartbeat kept it alive)", w.ActiveLeases)
		}
		if w.ID == "worker-b" && w.ActiveLeases != 0 {
			t.Fatalf("worker-b holds %d active leases, want 0 after expiry", w.ActiveLeases)
		}
	}
}

// TestWorkerReportedErrorFailsJob: a worker-side execution error is a
// deterministic verdict (same build, same inputs), so it fails the job
// exactly as a local execution error would.
func TestWorkerReportedErrorFailsJob(t *testing.T) {
	clock := newFakeClock()
	_, c := startLeaseServer(t, clock)

	st, err := c.Submit(oneCellSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	la, err := c.Lease(LeaseRequest{Worker: "worker-a", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(la.Cells) != 1 {
		t.Fatalf("leased %d cells, want 1", len(la.Cells))
	}
	if _, err := c.Complete(CompleteRequest{Worker: "worker-a",
		Lease: la.Cells[0].Lease, Key: la.Cells[0].Key, Error: "simulated wreck"}); err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(st.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("job %+v, want failed with the worker's error", st)
	}
}

// TestLongPollBounded: a ?wait=1 status poll on a job that is not
// finishing answers within the server's long-poll horizon with the
// current (running) status instead of parking the connection forever.
func TestLongPollBounded(t *testing.T) {
	clock := newFakeClock()
	s, err := NewServerWith(t.TempDir(), ServerOptions{
		NoLocalExec: true, // nobody will execute: the job stays running
		LeaseTTL:    time.Minute,
		LongPollMax: 150 * time.Millisecond,
		Clock:       clock.Now,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: "http://" + addr.String(), Retry: RetryPolicy{Attempts: 1}}

	st, err := c.Submit(oneCellSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var got JobStatus
	if err := c.do("GET", "/v1/jobs/"+st.ID+"?wait=1", nil, &got, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("bounded long-poll took %s, want ~150ms", elapsed)
	}
	if got.State != StateRunning {
		t.Fatalf("long-poll state %s, want still running", got.State)
	}

	// The client-side overall deadline also holds: Wait gives up on its
	// own schedule instead of hanging on the unfinishable job.
	if _, err := c.Wait(st.ID, 400*time.Millisecond); err == nil {
		t.Fatal("Wait on an unfinishable job returned without error")
	}
}
