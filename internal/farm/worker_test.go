package farm

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// e2eSpec is the kill-tolerance workload: four litmus cells, enough
// that a worker killed mid-batch provably strands leased work.
func e2eSpec() JobSpec {
	return JobSpec{Litmus: &LitmusSpec{
		Tests: []string{"SB", "MP"}, Configs: []string{"baseline", "nus-only"},
		Runs: 2, Seed: 7}}
}

// controlDigest runs spec to completion on a plain local-only server
// and returns the digest every distributed run must reproduce.
func controlDigest(t *testing.T, spec JobSpec) string {
	t.Helper()
	s, err := NewServer(t.TempDir(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: "http://" + addr.String()}
	st, err := c.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(st.ID, time.Minute); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Digest == "" {
		t.Fatalf("control job %+v, want done with a digest", st)
	}
	return st.Digest
}

// TestWorkerProcessHelper is not a test: it is the body of the worker
// processes the kill-tolerance tests spawn by re-executing the test
// binary. Killing a goroutine is impossible, so a real OS process is
// the only honest way to exercise SIGKILL mid-cell.
func TestWorkerProcessHelper(t *testing.T) {
	if os.Getenv("FARM_WORKER_PROC") != "1" {
		t.Skip("helper body for re-exec; not a test")
	}
	delayMS, _ := strconv.Atoi(os.Getenv("FARM_EXEC_DELAY_MS"))
	batch, _ := strconv.Atoi(os.Getenv("FARM_BATCH"))
	w := &Worker{
		Client: &Client{
			Base:  os.Getenv("FARM_ADDR"),
			Retry: RetryPolicy{Attempts: 2, Base: 20 * time.Millisecond, Max: 100 * time.Millisecond},
		},
		ID:        os.Getenv("FARM_WORKER_ID"),
		Batch:     batch,
		ExecDelay: time.Duration(delayMS) * time.Millisecond,
		Poll:      50 * time.Millisecond,
		MaxPoll:   500 * time.Millisecond,
		Logf:      t.Logf,
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker run: %v", err)
	}
}

// spawnWorker re-execs the test binary as a worker process against
// addr. The caller kills it; cleanup reaps it if the test bails first.
func spawnWorker(t *testing.T, addr, id string, batch, execDelayMS int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWorkerProcessHelper$")
	cmd.Env = append(os.Environ(),
		"FARM_WORKER_PROC=1",
		"FARM_ADDR=http://"+addr,
		"FARM_WORKER_ID="+id,
		fmt.Sprintf("FARM_BATCH=%d", batch),
		fmt.Sprintf("FARM_EXEC_DELAY_MS=%d", execDelayMS),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// waitSnapshot polls the server's metrics until cond holds.
func waitSnapshot(t *testing.T, s *Server, what string, cond func(MetricsSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond(s.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; metrics %+v", what, s.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerSIGKILLMidCell is the headline robustness test: SIGKILL a
// worker while it provably holds unfinished leases, let the sweeper
// re-queue the stranded cells, have a second worker finish the job, and
// demand the digest be bit-identical to an uninterrupted local run.
func TestWorkerSIGKILLMidCell(t *testing.T) {
	spec := e2eSpec()
	want := controlDigest(t, spec)

	s, err := NewServerWith(t.TempDir(), ServerOptions{
		NoLocalExec:   true, // pure coordinator: only workers execute
		LeaseTTL:      400 * time.Millisecond,
		SweepInterval: 50 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: "http://" + addr.String()}
	st, err := c.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}

	// Victim: a 300ms pre-cell delay means that at the moment its first
	// lease appears in the metrics it cannot have completed anything —
	// the kill below lands mid-cell with three leases held.
	victim := spawnWorker(t, addr.String(), "victim", 3, 300)
	waitSnapshot(t, s, "victim's leases", func(m MetricsSnapshot) bool {
		return m.LeasesGranted >= 1
	})
	if err := victim.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	victim.Wait()

	// The sweeper notices the silence one TTL later and re-queues.
	waitSnapshot(t, s, "lease expiry after SIGKILL", func(m MetricsSnapshot) bool {
		return m.LeasesExpired >= 1 && m.CellsRequeued >= 1
	})

	// A second worker drains the re-queued cells.
	spawnWorker(t, addr.String(), "rescuer", 4, 0)
	st, err = c.Wait(st.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job after rescue %+v, want done", st)
	}
	if st.Digest != want {
		t.Fatalf("digest after SIGKILL recovery %s, want the uninterrupted control's %s", st.Digest, want)
	}
	m := s.Snapshot()
	if m.RemoteCompletions == 0 {
		t.Fatalf("metrics %+v: rescue completed no cells remotely", m)
	}
}

// TestExpiredLeaseFallsBackToLocalPool: in hybrid mode a dead worker's
// cells re-enter the queue the local executors drain, so a farm with
// zero live workers still finishes the job. The server starts as a pure
// coordinator, so the worker's lease is the only claim on the cell; once
// the lease expires, one local executor starts — exactly as NewServerWith
// starts them — and runs the re-queued cell. No Complete call arrives.
func TestExpiredLeaseFallsBackToLocalPool(t *testing.T) {
	clock := newFakeClock()
	s, err := NewServerWith(t.TempDir(), ServerOptions{
		NoLocalExec:   true,
		LeaseTTL:      time.Minute,
		SweepInterval: 20 * time.Millisecond,
		Clock:         clock.Now,
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
	la, err := c.Lease(LeaseRequest{Worker: "doomed", Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(la.Cells) != 1 {
		t.Fatalf("leased %d cells, want 1", len(la.Cells))
	}

	// The worker dies without a word; its lease expires.
	clock.Advance(time.Minute + time.Second)
	waitSnapshot(t, s, "lease expiry", func(m MetricsSnapshot) bool {
		return m.LeasesExpired >= 1 && m.QueuedCells == 1
	})

	// A local executor drains the re-queued cell.
	s.startExecutors(1)
	st, err = c.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Digest == "" {
		t.Fatalf("job %+v, want done via local fallback", st)
	}
	m := s.Snapshot()
	if m.RemoteCompletions != 0 {
		t.Fatalf("remote completions %d, want 0 — the local executor must have run the cell", m.RemoteCompletions)
	}
	if len(m.ShardOccupancy) != 1 || m.ShardOccupancy[0] != 1 {
		t.Fatalf("executor occupancy %v, want [1]", m.ShardOccupancy)
	}
}

// TestWorkerSurvivesServerRestart: a running worker rides out a full
// server stop/start on the same address (bounded backoff, then fresh
// leases), the restarted server recovers the job from its journal, and
// the digest still matches the uninterrupted control.
func TestWorkerSurvivesServerRestart(t *testing.T) {
	spec := e2eSpec()
	want := controlDigest(t, spec)
	dir := t.TempDir()

	opts := ServerOptions{NoLocalExec: true,
		LeaseTTL: 2 * time.Second, SweepInterval: 100 * time.Millisecond}
	s1, err := NewServerWith(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Start("127.0.0.1:0")
	if err != nil {
		s1.Stop()
		t.Fatal(err)
	}
	c := &Client{Base: "http://" + addr.String()}
	st, err := c.Submit(spec, false)
	if err != nil {
		s1.Stop()
		t.Fatal(err)
	}

	// Batch 1 + 150ms per cell: the worker completes cells one at a
	// time, so stopping after the first remote completion is guaranteed
	// to leave work for the restarted server.
	worker := spawnWorker(t, addr.String(), "steady", 1, 150)
	waitSnapshot(t, s1, "first remote completion", func(m MetricsSnapshot) bool {
		return m.RemoteCompletions >= 1
	})
	s1.Stop()

	// Same state dir, same address: journal recovery re-enqueues the
	// unfinished job; the worker's backoff finds the new listener.
	s2, err := NewServerWith(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if _, err := s2.Start(addr.String()); err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(st.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job after restart %+v, want done", st)
	}
	if st.Digest != want {
		t.Fatalf("digest across restart %s, want the control's %s", st.Digest, want)
	}
	if m := s2.Snapshot(); m.LeasesGranted == 0 {
		t.Fatalf("restarted server granted no leases: %+v — the worker did not reconnect", m)
	}
	// The worker process itself survived both the outage and the rescue.
	if err := worker.Process.Signal(syscall.Signal(0)); err != nil {
		t.Fatalf("worker process died during the restart: %v", err)
	}
}
