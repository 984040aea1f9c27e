// Farm service metrics: monotonically increasing counters for the
// /v1/metrics endpoint and the trace stream — jobs accepted and
// completed, cells executed versus served from the content-addressed
// cache, cells run per local executor, and the distributed-worker lease
// protocol (grants, renewals, expirations,
// re-queues, remote and duplicate completions).

package farm

import "sync"

// Metrics counts farm activity since the server started.
type Metrics struct {
	mu            sync.Mutex
	jobsAccepted  uint64
	jobsCompleted uint64
	cellsExecuted uint64
	cellsCached   uint64

	leasesGrantedN uint64
	leasesRenewedN uint64
	leasesExpiredN uint64
	remoteDone     uint64
	duplicateDone  uint64
}

// WorkerSnapshot is one remote worker's registry entry in /v1/metrics.
type WorkerSnapshot struct {
	ID string `json:"id"`
	// ActiveLeases is how many cells the worker currently holds under
	// live leases; CellsLeased and Completions are lifetime counts.
	ActiveLeases int    `json:"active_leases"`
	CellsLeased  uint64 `json:"cells_leased"`
	Completions  uint64 `json:"completions"`
	// LastSeenMillis is how long ago the worker last leased,
	// heartbeated, or completed.
	LastSeenMillis int64 `json:"last_seen_ms"`
}

// MetricsSnapshot is the JSON shape of /v1/metrics.
type MetricsSnapshot struct {
	JobsAccepted  uint64 `json:"jobs_accepted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	// CellsExecuted counts cells simulated (locally or by a remote
	// worker); CellsCached counts cells served from the result cache
	// without running the simulator. Their ratio is the farm's dedup
	// win.
	CellsExecuted uint64 `json:"cells_executed"`
	CellsCached   uint64 `json:"cells_cached"`
	// ShardOccupancy is cells executed per local executor. TasksStolen
	// is always 0: every executor drains one shared queue, so no cell
	// has a home shard to be stolen from. Both keep their names for the
	// endpoint's existing readers.
	ShardOccupancy []uint64 `json:"shard_occupancy"`
	TasksStolen    uint64   `json:"tasks_stolen"`
	// CacheEntries is the persistent result-cache size; CacheHits and
	// CacheMisses are this process's lookup outcomes.
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	// Lease protocol: cells checked out to remote workers, heartbeat
	// renewals, TTL expirations, and cells re-queued by the sweeper
	// (equal to expirations — every expired cell is re-queued).
	LeasesGranted uint64 `json:"leases_granted"`
	LeasesRenewed uint64 `json:"leases_renewed"`
	LeasesExpired uint64 `json:"leases_expired"`
	CellsRequeued uint64 `json:"cells_requeued"`
	// RemoteCompletions counts cells a remote worker finished;
	// DuplicateCompletions counts completions for cells somebody else
	// had already resolved — benign by content-addressing, tracked
	// because a high rate means leases are expiring under live workers.
	RemoteCompletions    uint64 `json:"remote_completions"`
	DuplicateCompletions uint64 `json:"duplicate_completions"`
	// QueuedCells is how many cells wait in the queue for a local
	// executor or a lease;
	// PendingCells additionally counts cells claimed by an executor but
	// not yet resolved.
	QueuedCells  int `json:"queued_cells"`
	PendingCells int `json:"pending_cells"`
	// Workers is the remote-worker registry, sorted by ID.
	Workers []WorkerSnapshot `json:"workers,omitempty"`
}

func (m *Metrics) jobAccepted() {
	m.mu.Lock()
	m.jobsAccepted++
	m.mu.Unlock()
}

func (m *Metrics) jobCompleted() {
	m.mu.Lock()
	m.jobsCompleted++
	m.mu.Unlock()
}

func (m *Metrics) cellExecuted() {
	m.mu.Lock()
	m.cellsExecuted++
	m.mu.Unlock()
}

func (m *Metrics) cellCached() {
	m.mu.Lock()
	m.cellsCached++
	m.mu.Unlock()
}

func (m *Metrics) leasesGranted(n uint64) {
	m.mu.Lock()
	m.leasesGrantedN += n
	m.mu.Unlock()
}

func (m *Metrics) leasesRenewed(n uint64) {
	m.mu.Lock()
	m.leasesRenewedN += n
	m.mu.Unlock()
}

func (m *Metrics) leasesExpired(n uint64) {
	m.mu.Lock()
	m.leasesExpiredN += n
	m.mu.Unlock()
}

func (m *Metrics) remoteCompletion() {
	m.mu.Lock()
	m.remoteDone++
	m.mu.Unlock()
}

func (m *Metrics) duplicateCompletion() {
	m.mu.Lock()
	m.duplicateDone++
	m.mu.Unlock()
}

// snapshot captures the counters; executor, cache, queue, and worker
// fields are filled by the server, which owns those objects.
func (m *Metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetricsSnapshot{
		JobsAccepted:         m.jobsAccepted,
		JobsCompleted:        m.jobsCompleted,
		CellsExecuted:        m.cellsExecuted,
		CellsCached:          m.cellsCached,
		LeasesGranted:        m.leasesGrantedN,
		LeasesRenewed:        m.leasesRenewedN,
		LeasesExpired:        m.leasesExpiredN,
		CellsRequeued:        m.leasesExpiredN,
		RemoteCompletions:    m.remoteDone,
		DuplicateCompletions: m.duplicateDone,
	}
}
