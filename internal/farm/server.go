// The farm server: HTTP/JSON job intake, in-memory job state, and the
// durability story. Every accepted job spec is journaled before any
// cell runs, every finished cell is fsynced into the content-addressed
// result cache, and a completion marker closes the job out — so a
// server killed at any instant loses at worst the cells that were still
// queued. The next start replays the jobs journal: specs without a
// completion marker are re-enqueued, their already-cached cells hit,
// and only the genuinely lost cells are re-simulated. Determinism makes
// this exact: a recovered job's results (and digest) are bit-identical
// to an uninterrupted run's.

package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vbmo/internal/farm/cachekey"
	"vbmo/internal/par"
	"vbmo/internal/trace"
)

// Job states reported by the status endpoint.
const (
	StateRunning     = "running"
	StateDone        = "done"
	StateInterrupted = "interrupted"
	StateFailed      = "failed"
)

// JobID derives a job's content-addressed identity: the digest of its
// spec joined with the code-version fingerprint, truncated for
// readability (64 bits of collision resistance is ample for a job
// registry). Equal specs on equal code get equal IDs — resubmission is
// idempotent by construction.
func JobID(spec JobSpec) string {
	type identity struct {
		Spec JobSpec `json:"spec"`
		Code string  `json:"code"`
	}
	return cachekey.Hash(identity{Spec: spec, Code: cachekey.Version()})[:16]
}

// CellResult is one cell's terminal record in a job's result list.
type CellResult struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"`
	Key   string `json:"key"`
	// Cached reports whether this run served the cell from the result
	// cache. It is execution metadata, not part of the result digest —
	// the same job is bit-identical whether its cells hit or ran.
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// JobStatus is the status endpoint's JSON shape.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Executed int    `json:"executed"`
	Cached   int    `json:"cached"`
	Digest   string `json:"digest,omitempty"`
	Error    string `json:"error,omitempty"`
}

// JobResults is the results endpoint's JSON shape. Digest is the
// content hash of the ordered result values alone (no cache metadata),
// so two runs of the same job can be compared for bit-identity by
// digest.
type JobResults struct {
	ID      string       `json:"id"`
	Digest  string       `json:"digest"`
	Results []CellResult `json:"results"`
}

// job is the in-memory state of one accepted job.
type job struct {
	id      string
	spec    JobSpec
	cells   []Cell
	keys    []string
	results []CellResult

	done, executed, cached int
	interrupted            bool
	failure                string
	digest                 string
}

func (j *job) state() string {
	switch {
	case j.failure != "":
		return StateFailed
	case j.done == len(j.cells):
		return StateDone
	case j.interrupted:
		return StateInterrupted
	default:
		return StateRunning
	}
}

func (j *job) status() JobStatus {
	return JobStatus{
		ID: j.id, State: j.state(), Total: len(j.cells),
		Done: j.done, Executed: j.executed, Cached: j.cached,
		Digest: j.digest, Error: j.failure,
	}
}

// ServerOptions tunes the farm service beyond its defaults. The zero
// value of every field means "use the default".
type ServerOptions struct {
	// Executors is the number of in-process executors draining the
	// cell queue (minimum 1).
	Executors int
	// NoLocalExec turns the server into a pure coordinator: no
	// executors start, and cache misses wait for remote workers. The
	// default (false) is hybrid execution — the local executors and
	// worker leases drain one queue, so a job finishes even if every
	// worker dies.
	NoLocalExec bool
	// LeaseTTL is how long a checked-out cell survives without a
	// heartbeat before the sweeper re-queues it (default 10s).
	LeaseTTL time.Duration
	// SweepInterval is the expiry sweeper's period (default LeaseTTL/4,
	// floored at 10ms).
	SweepInterval time.Duration
	// LongPollMax bounds a ?wait=1 status long-poll: the server answers
	// with the current status at this horizon even if the job is still
	// running (default 30s).
	LongPollMax time.Duration
	// MaxLeaseBatch caps the cells one lease request may check out
	// (default 64).
	MaxLeaseBatch int
	// Clock overrides the lease clock (nil = time.Now). A test seam:
	// lease-lifecycle tests advance a fake clock instead of sleeping
	// through real TTLs.
	Clock func() time.Time
}

// withDefaults fills unset options.
func (o ServerOptions) withDefaults() ServerOptions {
	if o.Executors < 1 {
		o.Executors = 1
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = o.LeaseTTL / 4
	}
	if o.SweepInterval < 10*time.Millisecond {
		o.SweepInterval = 10 * time.Millisecond
	}
	if o.LongPollMax <= 0 {
		o.LongPollMax = 30 * time.Second
	}
	if o.MaxLeaseBatch <= 0 {
		o.MaxLeaseBatch = 64
	}
	return o
}

// Server is the farm service. Create with NewServer (or NewServerWith
// for tuned options), serve with Start, shut down with Stop.
type Server struct {
	dir     string
	opt     ServerOptions
	cache   *Cache
	jobs    *par.Journal
	tr      *trace.Tracer
	metrics *Metrics

	mu   sync.Mutex
	cond *sync.Cond
	byID map[string]*job

	// Queue state: pending cells by cache key, the FIFO that local
	// executors and worker leases both drain, the condition executors
	// wait on, cells run per executor, the worker registry, and the
	// expiry sweeper.
	leaseMu  sync.Mutex
	work     *sync.Cond
	pending  map[string]*pendingCell
	queue    []*pendingCell
	executed []uint64
	execWG   sync.WaitGroup
	workers  map[string]*workerInfo
	leaseSeq uint64
	sweeper  *time.Timer
	closed   bool

	ln   net.Listener
	http *http.Server
}

// NewServer opens the farm's state directory with default options and
// n local executors. See NewServerWith.
func NewServer(dir string, n int, tr *trace.Tracer) (*Server, error) {
	return NewServerWith(dir, ServerOptions{Executors: n}, tr)
}

// NewServerWith opens the farm's state directory (results.jsonl: the
// content-addressed cache; jobs.jsonl: accepted specs and completion
// markers), starts the local executors and the lease-expiry sweeper, and
// re-enqueues any job the previous process accepted but never
// completed.
func NewServerWith(dir string, opt ServerOptions, tr *trace.Tracer) (*Server, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cache, err := OpenCache(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, err
	}
	jobs, err := par.OpenJournal(filepath.Join(dir, "jobs.jsonl"), cachekey.Version())
	if err != nil {
		_ = cache.Close() // the journal error is the one worth reporting
		return nil, err
	}
	s := &Server{
		dir:     dir,
		opt:     opt,
		cache:   cache,
		jobs:    jobs,
		tr:      tr,
		metrics: &Metrics{},
		byID:    make(map[string]*job),
		pending: make(map[string]*pendingCell),
		workers: make(map[string]*workerInfo),
	}
	s.cond = sync.NewCond(&s.mu)
	s.work = sync.NewCond(&s.leaseMu)
	if !opt.NoLocalExec {
		s.startExecutors(opt.Executors)
	}
	if err := s.recover(); err != nil {
		s.Stop()
		return nil, err
	}
	s.scheduleSweep()
	return s, nil
}

// recover replays the jobs journal: every spec record without a
// matching done marker is an interrupted job; re-enqueue it. Cells the
// dead process finished are in the result cache and hit immediately;
// only the lost tail re-executes.
func (s *Server) recover() error {
	keys := s.jobs.Keys()
	done := make(map[string]bool)
	for _, k := range keys {
		if id, ok := strings.CutPrefix(k, "done|"); ok {
			done[id] = true
		}
	}
	for _, k := range keys {
		id, ok := strings.CutPrefix(k, "spec|")
		if !ok || done[id] {
			continue
		}
		var spec JobSpec
		if !s.jobs.Lookup(k, &spec) {
			return fmt.Errorf("farm: unreadable spec for interrupted job %s", id)
		}
		if _, err := s.enqueue(spec, false); err != nil {
			return fmt.Errorf("farm: re-enqueueing interrupted job %s: %w", id, err)
		}
	}
	return nil
}

// enqueue registers the job and dispatches its cells: cache hits are
// filled synchronously, misses join the cell queue. Resubmitting an ID
// already known to this process returns the existing state unless
// fresh is set, which re-runs the job through the cache (the cells
// still hit; fresh forces re-counting, not re-simulation).
func (s *Server) enqueue(spec JobSpec, fresh bool) (*job, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	id := JobID(spec)
	keys := make([]string, len(cells))
	for i, c := range cells {
		if keys[i], err = c.Key(); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	if existing, ok := s.byID[id]; ok {
		if !fresh || existing.state() == StateRunning {
			s.mu.Unlock()
			return existing, nil
		}
	}
	j := &job{id: id, spec: spec, cells: cells, keys: keys,
		results: make([]CellResult, len(cells))}
	s.byID[id] = j
	s.mu.Unlock()

	if err := s.jobs.Record("spec|"+id, spec); err != nil {
		return nil, err
	}
	s.metrics.jobAccepted()
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KFarmJob, Reason: trace.RFarmJobAccepted,
			Core: -1, Aux: uint64(len(cells))})
	}

	for i := range cells {
		var raw json.RawMessage
		if s.cache.Get(keys[i], &raw) {
			s.finishCell(j, i, raw, true, nil)
			continue
		}
		// Cache miss: the cell joins the queue that local executors and
		// remote worker leases both drain. Equal keys across jobs share
		// one pending cell and one execution.
		s.dispatch(j, i, cells[i], keys[i])
	}
	return j, nil
}

// finishCell records one cell's terminal state and closes the job out
// when it was the last.
func (s *Server) finishCell(j *job, i int, raw json.RawMessage, cached bool, err error) {
	if cached {
		s.metrics.cellCached()
	} else if err == nil {
		s.metrics.cellExecuted()
	}
	if s.tr != nil {
		reason := trace.RFarmCellExecuted
		if cached {
			reason = trace.RFarmCellCached
		}
		s.tr.Emit(trace.Event{Kind: trace.KFarmCell, Reason: reason, Core: -1})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	cr := CellResult{Index: i, Kind: j.cells[i].Kind, Key: j.keys[i], Cached: cached}
	if err != nil {
		cr.Error = err.Error()
		j.failure = fmt.Sprintf("cell %d (%s): %v", i, j.keys[i], err)
	} else {
		cr.Result = raw
		if cached {
			j.cached++
		} else {
			j.executed++
		}
	}
	j.results[i] = cr
	j.done++
	if j.done == len(j.cells) {
		s.completeLocked(j)
	}
	s.cond.Broadcast()
}

// completeLocked finalizes a job whose last cell just landed: compute
// the result digest, journal the completion marker, count it. Caller
// holds s.mu.
func (s *Server) completeLocked(j *job) {
	if j.failure == "" {
		values := make([]json.RawMessage, len(j.results))
		for i := range j.results {
			values[i] = j.results[i].Result
		}
		j.digest = cachekey.Hash(values)
		// The marker write is fsynced; an error here leaves the job
		// re-enqueueable, which recovery handles idempotently.
		if err := s.jobs.Record("done|"+j.id, j.digest); err != nil {
			j.failure = fmt.Sprintf("recording completion: %v", err)
			return
		}
	}
	s.metrics.jobCompleted()
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KFarmJob, Reason: trace.RFarmJobDone,
			Core: -1, Value: uint64(j.executed), Aux: uint64(j.cached)})
	}
}

// Snapshot returns the current metrics, including executor occupancy,
// cache counters, lease-protocol counters, and the worker registry.
func (s *Server) Snapshot() MetricsSnapshot {
	snap := s.metrics.snapshot()
	snap.CacheEntries = s.cache.Len()
	snap.CacheHits, snap.CacheMisses = s.cache.Stats()
	snap.ShardOccupancy, snap.QueuedCells, snap.PendingCells = s.queueSnapshot()
	snap.Workers = s.workerSnapshots()
	return snap
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("POST /v1/cells/lease", s.handleLease)
	mux.HandleFunc("POST /v1/cells/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/cells/complete", s.handleComplete)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "ok", "version": cachekey.Version(),
		})
	})
	return mux
}

// maxBodyBytes bounds every JSON request body (job specs and the
// lease, heartbeat and completion messages). The largest legitimate
// body, a completion carrying one cell's result, is a few kilobytes.
const maxBodyBytes = 4 << 20

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so slow clients cannot hold connections open.
const readHeaderTimeout = 10 * time.Second

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers the request itself (413 for an oversize body,
// 400 with what prefixed to the decode error otherwise) and reports
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("farm: request body over %d bytes", tooBig.Limit),
			http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, what+err.Error(), http.StatusBadRequest)
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec, "farm: bad job spec: ") {
		return
	}
	j, err := s.enqueue(spec, r.URL.Query().Get("fresh") == "1")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wait := r.URL.Query().Get("wait") == "1"
	// A long-poll is bounded: at the horizon the current status goes
	// back even if the job is still running, so a caller is never
	// parked on a connection indefinitely. Clients loop (Client.Wait).
	poll := s.opt.LongPollMax
	if ms, err := strconv.ParseInt(r.URL.Query().Get("poll_ms"), 10, 64); err == nil && ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < poll {
			poll = d
		}
	}
	s.mu.Lock()
	j, ok := s.byID[id]
	if ok && wait && j.state() == StateRunning {
		deadline := time.Now().Add(poll)
		// sync.Cond has no timed wait; an AfterFunc broadcast bounds it.
		t := time.AfterFunc(poll, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		for j.state() == StateRunning && time.Now().Before(deadline) {
			s.cond.Wait()
		}
		t.Stop()
	}
	var st JobStatus
	if ok {
		st = j.status()
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, "farm: unknown job "+id, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.byID[id]
	var out JobResults
	state := ""
	if ok {
		state = j.state()
		if state == StateDone {
			out = JobResults{ID: j.id, Digest: j.digest,
				Results: append([]CellResult(nil), j.results...)}
		}
	}
	s.mu.Unlock()
	switch {
	case !ok:
		http.Error(w, "farm: unknown job "+id, http.StatusNotFound)
	case state != StateDone:
		http.Error(w, "farm: job "+id+" is "+state, http.StatusConflict)
	default:
		writeJSON(w, http.StatusOK, out)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The connection may already be gone; an encode error has nowhere
	// useful to go.
	_ = json.NewEncoder(w).Encode(v)
}

// Start listens on addr (e.g. ":8373", "127.0.0.1:0") and serves the
// API until Stop. It returns the bound address, so tests and scripts
// can pass port 0.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		// Serve returns on Stop's Close; nothing to report then.
		_ = s.http.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Stop shuts the server down abruptly — the crash analog the journal is
// built for. Queued cells are dropped (recovery re-runs them), in-flight
// cells finish into the cache, leases evaporate with the process's
// memory (a worker's late completion lands in the next incarnation's
// cache benignly), incomplete jobs are marked interrupted, and the
// journals are closed. Stop returns how many queued cells were dropped.
func (s *Server) Stop() int {
	if s.http != nil {
		_ = s.http.Close()
	}
	dropped := s.closeQueue()
	s.mu.Lock()
	ids := make([]string, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if j := s.byID[id]; j.state() == StateRunning {
			j.interrupted = true
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	_ = s.cache.Close()
	_ = s.jobs.Close()
	return dropped
}
