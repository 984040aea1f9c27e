// The cell queue and its executors. The server's local executors and
// remote worker processes drain one FIFO of queued cells: a local
// executor pops the oldest queued cell in-process, while a remote
// worker checks cells out in batches over HTTP, renews them with
// heartbeats, and posts results back through the
// cache-before-acknowledge path. A pending cell is owned by exactly one
// executor at a time — a local executor or one lease — but ownership
// is only an optimization: every completion funnels through the
// content-addressed cache, where equal keys imply equal results, so a
// worker finishing after its lease expired (or two executors racing
// across an expiry window) resolves as a benign duplicate rather than a
// conflict. A lease that outlives its TTL
// without a heartbeat is swept back into the queue, so a SIGKILLed or
// wedged worker strands nothing.

package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"vbmo/internal/farm/cachekey"
	"vbmo/internal/trace"
)

// LeaseRequest is the body of POST /v1/cells/lease: one worker asking
// to check out up to Max cells in a single round trip.
type LeaseRequest struct {
	// Worker is the caller's stable identity; leases, heartbeats, and
	// the registry key off it.
	Worker string `json:"worker"`
	// Max bounds the batch size (<=0 means 1; the server caps it).
	Max int `json:"max"`
}

// LeasedCell is one checked-out cell: the opaque lease token, the
// cell's content-addressed cache key, and the cell itself — everything
// a worker needs to execute and complete it.
type LeasedCell struct {
	Lease uint64 `json:"lease"`
	Key   string `json:"key"`
	Cell  Cell   `json:"cell"`
}

// LeaseResponse answers a lease request. Version is the server's
// code-version fingerprint: a worker built from different code MUST
// refuse the batch, because its results would be filed under this
// build's cache keys. TTLMillis tells the worker how often to
// heartbeat (any interval comfortably under the TTL works).
type LeaseResponse struct {
	Version   string       `json:"version"`
	TTLMillis int64        `json:"ttl_ms"`
	Cells     []LeasedCell `json:"cells"`
}

// HeartbeatRequest renews every lease the named worker holds.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse reports how many leases the heartbeat extended.
// Renewed == 0 with work in flight means the server no longer knows
// these leases (restart, or expiry already swept them); the worker
// should finish and complete its batch anyway — completions are
// idempotent — and lease afresh.
type HeartbeatResponse struct {
	Renewed   int   `json:"renewed"`
	TTLMillis int64 `json:"ttl_ms"`
}

// CompleteRequest is the body of POST /v1/cells/complete: one finished
// cell. Exactly one of Result and Error is set. The key, not the lease
// token, is the real coordinate: a completion for an expired or unknown
// lease is still accepted, cached, and deduped.
type CompleteRequest struct {
	Worker string          `json:"worker"`
	Lease  uint64          `json:"lease,omitempty"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// CompleteResponse acknowledges a completion after the result is
// durably cached. Duplicate means the cell had already been resolved by
// another executor — benign by construction.
type CompleteResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// cellState is a pending cell's executor-ownership state.
type cellState int

const (
	// cellQueued: available for local execution or a worker lease.
	cellQueued cellState = iota
	// cellLocal: a local executor is executing it.
	cellLocal
	// cellLeased: a remote worker holds it under a live (or expired but
	// not yet swept) lease.
	cellLeased
	// cellDone: resolved; kept only transiently before removal.
	cellDone
)

// waiter is one (job, cell index) awaiting a pending cell's result.
// Several jobs sharing a cache key wait on the same pending cell.
type waiter struct {
	j     *job
	index int
}

// pendingCell is one not-yet-resolved unit of work, shared between the
// queue, the by-key index, and any executor that claimed it.
type pendingCell struct {
	key     string
	cell    Cell
	state   cellState
	waiters []waiter

	// Lease fields, meaningful while state == cellLeased.
	worker   string
	lease    uint64
	deadline time.Time
}

// workerInfo is the registry entry for one remote worker identity.
type workerInfo struct {
	active    int    // leases currently held
	leased    uint64 // cells ever checked out
	completed uint64 // completions accepted (including duplicates)
	lastSeen  time.Time
}

// now returns the server's lease clock (real time unless the test seam
// overrides it).
func (s *Server) now() time.Time {
	if s.opt.Clock != nil {
		return s.opt.Clock()
	}
	return time.Now()
}

// dispatch routes one cache-missed cell: join an existing pending cell
// with the same key, or queue a new one and wake an executor. A cell
// that arrives after Stop closed the queue is dropped like any queued
// cell: its job is marked interrupted and recovery re-runs it.
func (s *Server) dispatch(j *job, i int, c Cell, key string) {
	s.leaseMu.Lock()
	if s.closed {
		s.leaseMu.Unlock()
		s.mu.Lock()
		j.interrupted = true
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	if pc, ok := s.pending[key]; ok {
		pc.waiters = append(pc.waiters, waiter{j, i})
		s.leaseMu.Unlock()
		return
	}
	pc := &pendingCell{key: key, cell: c, state: cellQueued,
		waiters: []waiter{{j, i}}}
	s.pending[key] = pc
	s.queue = append(s.queue, pc)
	s.work.Signal()
	s.leaseMu.Unlock()
}

// startExecutors starts n local executors on the cell queue.
func (s *Server) startExecutors(n int) {
	s.leaseMu.Lock()
	first := len(s.executed)
	s.executed = append(s.executed, make([]uint64, n)...)
	s.leaseMu.Unlock()
	for i := first; i < first+n; i++ {
		s.execWG.Add(1)
		go s.execute(i)
	}
}

// execute is local executor i: claim the oldest queued cell, execute
// it, cache before acknowledging, resolve; return once Stop closes the
// queue.
func (s *Server) execute(i int) {
	defer s.execWG.Done()
	for {
		pc := s.claim(i)
		if pc == nil {
			return
		}
		res, err := pc.cell.Execute()
		if err == nil {
			// Cache before acknowledging: once a result is visible it
			// must be durable, or a crash between the two could serve a
			// cell cheaply now and expensively later.
			if cerr := s.cache.Put(pc.key, res); cerr != nil {
				err = cerr
			}
		}
		s.resolve(pc.key, res, err, false)
	}
}

// claim takes the oldest queued cell for executor i, waiting while the
// queue is dry. It returns nil once the queue is closed.
func (s *Server) claim(i int) *pendingCell {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for !s.closed {
		if pc := s.popLocked(); pc != nil {
			pc.state = cellLocal
			s.executed[i]++
			return pc
		}
		s.work.Wait()
	}
	return nil
}

// popLocked removes and returns the oldest queued cell, or nil when none
// is queued. Stale entries ahead of it (resolved by a late completion
// after their lease expired) are dropped on the way. Caller holds
// s.leaseMu.
func (s *Server) popLocked() *pendingCell {
	for len(s.queue) > 0 {
		pc := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		if pc.state == cellQueued {
			return pc
		}
	}
	return nil
}

// resolve marks the pending cell for key done and fans its result out
// to every waiting (job, index). Reports duplicate=true when the key is
// no longer pending — somebody else resolved it first, which the
// content-addressed cache makes benign.
func (s *Server) resolve(key string, raw json.RawMessage, execErr error, remote bool) (duplicate bool) {
	s.leaseMu.Lock()
	pc, ok := s.pending[key]
	if !ok {
		s.leaseMu.Unlock()
		s.metrics.duplicateCompletion()
		return true
	}
	delete(s.pending, key)
	pc.state = cellDone
	if pc.worker != "" {
		if w := s.workers[pc.worker]; w != nil && w.active > 0 {
			w.active--
		}
		pc.worker = ""
	}
	waiters := pc.waiters
	s.leaseMu.Unlock()

	if remote {
		s.metrics.remoteCompletion()
		if s.tr != nil {
			s.tr.Emit(trace.Event{Kind: trace.KFarmCell, Reason: trace.RFarmCellRemote, Core: -1})
		}
	}
	for wi, w := range waiters {
		// The first waiter accounts the execution; further jobs sharing
		// the key were served without a run of their own.
		s.finishCell(w.j, w.index, raw, wi > 0 && execErr == nil, execErr)
	}
	return false
}

// grantLeases checks out up to max of the oldest queued cells to
// worker, stamping each with a fresh lease and the TTL deadline.
func (s *Server) grantLeases(worker string, max int) []LeasedCell {
	if max <= 0 {
		max = 1
	}
	if max > s.opt.MaxLeaseBatch {
		max = s.opt.MaxLeaseBatch
	}
	now := s.now()
	s.leaseMu.Lock()
	w := s.workerLocked(worker, now)
	var out []LeasedCell
	for len(out) < max {
		pc := s.popLocked()
		if pc == nil {
			break
		}
		s.leaseSeq++
		pc.state = cellLeased
		pc.worker = worker
		pc.lease = s.leaseSeq
		pc.deadline = now.Add(s.opt.LeaseTTL)
		w.active++
		w.leased++
		out = append(out, LeasedCell{Lease: pc.lease, Key: pc.key, Cell: pc.cell})
	}
	s.leaseMu.Unlock()

	if len(out) > 0 {
		s.metrics.leasesGranted(uint64(len(out)))
		if s.tr != nil {
			s.tr.Emit(trace.Event{Kind: trace.KFarmLease, Reason: trace.RFarmLeaseGranted,
				Core: -1, Aux: uint64(len(out))})
		}
	}
	return out
}

// renewLeases extends every live lease the worker holds to a fresh TTL
// deadline — and only that worker's: a heartbeat is a claim of
// liveness, not a proxy for anyone else's.
func (s *Server) renewLeases(worker string) int {
	now := s.now()
	s.leaseMu.Lock()
	s.workerLocked(worker, now)
	renewed := 0
	keys := make([]string, 0, len(s.pending))
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pc := s.pending[k]
		if pc.state == cellLeased && pc.worker == worker {
			pc.deadline = now.Add(s.opt.LeaseTTL)
			renewed++
		}
	}
	s.leaseMu.Unlock()

	if renewed > 0 {
		s.metrics.leasesRenewed(uint64(renewed))
		if s.tr != nil {
			s.tr.Emit(trace.Event{Kind: trace.KFarmLease, Reason: trace.RFarmLeaseRenewed,
				Core: -1, Aux: uint64(renewed)})
		}
	}
	return renewed
}

// expireLeases is the sweeper body: every leased cell past its deadline
// goes back to the queue, where whichever executor is free — local or
// remote — picks it up, so a dead worker's checkout strands nothing
// beyond one TTL.
func (s *Server) expireLeases() {
	now := s.now()
	s.leaseMu.Lock()
	var expired []*pendingCell
	keys := make([]string, 0, len(s.pending))
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pc := s.pending[k]
		if pc.state == cellLeased && now.After(pc.deadline) {
			if w := s.workers[pc.worker]; w != nil && w.active > 0 {
				w.active--
			}
			pc.state = cellQueued
			pc.worker = ""
			s.queue = append(s.queue, pc)
			expired = append(expired, pc)
		}
	}
	if len(expired) > 0 {
		s.work.Broadcast()
	}
	s.leaseMu.Unlock()

	if len(expired) == 0 {
		return
	}
	s.metrics.leasesExpired(uint64(len(expired)))
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KFarmLease, Reason: trace.RFarmLeaseExpired,
			Core: -1, Aux: uint64(len(expired))})
	}
}

// scheduleSweep arms the next sweeper tick. A self-rescheduling
// time.AfterFunc stands in for a ticker loop so the farm package stays
// free of multi-way selects (the determinism analyzer's rule).
func (s *Server) scheduleSweep() {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if s.closed {
		return
	}
	s.sweeper = time.AfterFunc(s.opt.SweepInterval, func() {
		s.expireLeases()
		s.scheduleSweep()
	})
}

// closeQueue halts lease expiry and the local executors, waits for
// in-flight cells to finish into the cache, and returns how many queued
// cells it dropped; called once from Stop.
func (s *Server) closeQueue() (dropped int) {
	s.leaseMu.Lock()
	s.closed = true
	t := s.sweeper
	for _, pc := range s.queue {
		if pc.state == cellQueued {
			dropped++
		}
	}
	s.work.Broadcast()
	s.leaseMu.Unlock()
	if t != nil {
		t.Stop()
	}
	s.execWG.Wait()
	return dropped
}

// workerLocked finds or registers the worker's registry entry and
// stamps it seen. Caller holds s.leaseMu.
func (s *Server) workerLocked(id string, now time.Time) *workerInfo {
	w := s.workers[id]
	if w == nil {
		w = &workerInfo{}
		s.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// workerSnapshots renders the registry for /v1/metrics, sorted by ID.
func (s *Server) workerSnapshots() []WorkerSnapshot {
	now := s.now()
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]WorkerSnapshot, 0, len(ids))
	for _, id := range ids {
		w := s.workers[id]
		out = append(out, WorkerSnapshot{
			ID: id, ActiveLeases: w.active, CellsLeased: w.leased,
			Completions: w.completed, LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	return out
}

// queueSnapshot reports, for the metrics snapshot, the cells each local
// executor has run, the genuinely queued cells, and all pending cells.
func (s *Server) queueSnapshot() (executed []uint64, queued, pending int) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for _, pc := range s.queue {
		if pc.state == cellQueued {
			queued++
		}
	}
	return append([]uint64{}, s.executed...), queued, len(s.pending)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req, "farm: bad lease request (worker required): ") {
		return
	}
	if req.Worker == "" {
		http.Error(w, "farm: bad lease request (worker required)", http.StatusBadRequest)
		return
	}
	cells := s.grantLeases(req.Worker, req.Max)
	writeJSON(w, http.StatusOK, LeaseResponse{
		Version:   cachekey.Version(),
		TTLMillis: s.opt.LeaseTTL.Milliseconds(),
		Cells:     cells,
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req, "farm: bad heartbeat (worker required): ") {
		return
	}
	if req.Worker == "" {
		http.Error(w, "farm: bad heartbeat (worker required)", http.StatusBadRequest)
		return
	}
	renewed := s.renewLeases(req.Worker)
	writeJSON(w, http.StatusOK, HeartbeatResponse{
		Renewed: renewed, TTLMillis: s.opt.LeaseTTL.Milliseconds(),
	})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req, "farm: bad completion (key required): ") {
		return
	}
	if req.Key == "" {
		http.Error(w, "farm: bad completion (key required)", http.StatusBadRequest)
		return
	}
	if req.Error == "" && len(req.Result) == 0 {
		http.Error(w, "farm: completion carries neither result nor error", http.StatusBadRequest)
		return
	}

	var execErr error
	if req.Error != "" {
		execErr = errors.New(req.Error)
	} else {
		// Cache before acknowledging. A put failure is the one
		// non-acknowledgeable outcome: answer 500 and leave the lease
		// standing — the worker retries, or expiry re-queues the cell.
		if err := s.cache.Put(req.Key, req.Result); err != nil {
			http.Error(w, fmt.Sprintf("farm: caching result: %v", err), http.StatusInternalServerError)
			return
		}
	}
	dup := s.resolve(req.Key, req.Result, execErr, true)

	now := s.now()
	s.leaseMu.Lock()
	s.workerLocked(req.Worker, now).completed++
	s.leaseMu.Unlock()
	writeJSON(w, http.StatusOK, CompleteResponse{Accepted: true, Duplicate: dup})
}
