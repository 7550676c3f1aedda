// Package service turns the streaming partitioner into a serving system:
// long-lived push sessions with TTL eviction, per-session turns that
// run each session's jobs in arrival order on the requests' own
// goroutines, a pool bounding how many jobs run at once, and the HTTP
// surface the omsd daemon mounts. The paper's algorithm assigns each
// node its permanent block the moment it arrives; this package is the
// machinery that lets remote clients deliver those moments over the
// network.
package service

import (
	"oms/internal/promtext"
	"oms/internal/store"
)

// Bridge aliases for the ledger harness under benchmark/, which names
// these types through this package. They are its only users; ROADMAP
// item 1A moves the harness onto the new homes and deletes this block.
type (
	Registry          = promtext.Registry
	HistogramSnapshot = promtext.HistogramSnapshot
	PushNode          = store.PushNode
	CreateSpec        = store.CreateSpec
)

// NewRegistry is promtext.NewRegistry, bridged like the types above.
func NewRegistry() *promtext.Registry { return promtext.NewRegistry() }

// serviceMetrics bundles the counters the session subsystem maintains.
type serviceMetrics struct {
	sessionsCreated  *promtext.Counter
	sessionsFinished *promtext.Counter
	sessionsEvicted  *promtext.Counter
	sessionsDeleted  *promtext.Counter
	sessionsActive   *promtext.Counter // gauge
	nodesIngested    *promtext.Counter
	edgesIngested    *promtext.Counter
	chunksIngested   *promtext.Counter
	streamChunks     *promtext.Counter
	batchesIngested  *promtext.Counter
	pushErrors       *promtext.Counter
	backpressure     *promtext.Counter
	adaptiveSessions *promtext.Counter

	sessionsRecovered *promtext.Counter
	walRecords        *promtext.Counter
	walErrors         *promtext.Counter

	refineJobs     *promtext.Counter
	refineFailed   *promtext.Counter
	refineCanceled *promtext.Counter
	refineActive   *promtext.Counter // gauge
	refinePasses   *promtext.Counter
	refineVersions *promtext.Counter

	// Per-stage latency histograms: where a push's time goes between
	// the HTTP ack and the engine. queueWait is arrival→start time of a
	// job, turn plus slot (backpressure made visible as a distribution),
	// assign the engine time of one chunk or batch, walAppend/walFsync
	// the durable-log encode+write and fsync stall (observed inside
	// internal/wal via the store hooks; the series exist even without a
	// store so dashboards keep a stable schema).
	queueWait *promtext.Histogram
	assign    *promtext.Histogram
	walAppend *promtext.Histogram
	walFsync  *promtext.Histogram
}

func newServiceMetrics(r *promtext.Registry) *serviceMetrics {
	return &serviceMetrics{
		sessionsCreated:  r.Counter("omsd_sessions_created_total", "push sessions opened"),
		sessionsFinished: r.Counter("omsd_sessions_finished_total", "push sessions finished"),
		sessionsEvicted:  r.Counter("omsd_sessions_evicted_total", "push sessions evicted by TTL"),
		sessionsDeleted:  r.Counter("omsd_sessions_deleted_total", "push sessions deleted by clients"),
		sessionsActive:   r.Gauge("omsd_sessions_active", "currently live push sessions"),
		nodesIngested:    r.Counter("omsd_nodes_ingested_total", "nodes assigned across all sessions"),
		edgesIngested:    r.Counter("omsd_edges_ingested_total", "adjacency entries ingested across all sessions"),
		chunksIngested:   r.Counter("omsd_chunks_ingested_total", "ingest chunks processed across all sessions"),
		streamChunks:     r.Counter("omsd_push_stream_chunks_total", "binary /nodes chunks answered on an open stream (a connection upgraded to oms-stream) as soon as it held no further byte"),
		batchesIngested:  r.Counter("omsd_batches_ingested_total", "parallel ingest batches processed across all sessions"),
		pushErrors:       r.Counter("omsd_push_errors_total", "rejected node pushes (range, weights, budget, after-finish)"),
		backpressure:     r.Counter("omsd_backpressure_waits_total", "ingest/finish jobs that found their session busy and waited for its turn"),
		adaptiveSessions: r.Counter("omsd_adaptive_sessions_total", "open-ended (adaptive) push sessions opened"),

		sessionsRecovered: r.Counter("omsd_sessions_recovered_total", "push sessions rebuilt from the store at startup"),
		walRecords:        r.Counter("omsd_wal_records_total", "node records appended to session logs"),
		walErrors:         r.Counter("omsd_wal_errors_total", "session log append/flush/seal failures"),

		refineJobs:     r.Counter("omsd_refine_jobs_total", "background refinement jobs accepted"),
		refineFailed:   r.Counter("omsd_refine_jobs_failed_total", "background refinement jobs that ended in error"),
		refineCanceled: r.Counter("omsd_refine_jobs_canceled_total", "background refinement jobs canceled by delete, eviction, or shutdown"),
		refineActive:   r.Gauge("omsd_refine_jobs_active", "refinement jobs currently queued or running"),
		refinePasses:   r.Counter("omsd_refine_passes_total", "restream passes completed across all refinement jobs"),
		refineVersions: r.Counter("omsd_refine_versions_total", "refined result versions published"),

		queueWait: r.Histogram("omsd_queue_wait_seconds", "time from an ingest/finish job's arrival to its start: its session's turn plus a pool slot"),
		assign:    r.Histogram("omsd_assign_seconds", "engine assignment time of one ingest chunk or batch"),
		walAppend: r.Histogram(WALAppendHistogram, "WAL record encode+write time per append"),
		walFsync:  r.Histogram(WALFsyncHistogram, "WAL fsync stall per forced or batched sync"),
	}
}

// Histogram names the WAL store observes into (omsd wires the store's
// observer hooks to these registry entries).
const (
	WALAppendHistogram = "omsd_wal_append_seconds"
	WALFsyncHistogram  = "omsd_wal_fsync_seconds"
)
