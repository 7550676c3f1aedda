// Package service turns the streaming partitioner into a serving system:
// long-lived push sessions with TTL eviction, per-session turns that
// run each session's jobs in arrival order on the requests' own
// goroutines, a pool bounding how many jobs run at once, an
// operational counter registry, and the HTTP surface the omsd daemon
// mounts. The paper's algorithm assigns each node its permanent block the
// moment it arrives; this package is the machinery that lets remote
// clients deliver those moments over the network.
package service

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered export: a counter, gauge, gauge function, or
// histogram. Implementations write their own exposition block and
// contribute to Snapshot.
type metric interface {
	metricName() string
	writeText(w io.Writer) error
	snapshotInto(into map[string]int64)
}

// Counter is one monotonically increasing (or gauge-style add/sub)
// operational counter.
type Counter struct {
	name string
	help string
	kind string // Prometheus metric type: "counter" or "gauge"
	v    atomic.Int64
}

// Add increments the counter by d (negative d for gauge decrements).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) snapshotInto(into map[string]int64) { into[c.name] = c.v.Load() }

func (c *Counter) writeText(w io.Writer) error {
	kind := c.kind
	if kind == "" {
		kind = "counter"
	}
	return writeScalar(w, c.name, c.help, kind, fmt.Sprintf("%d", c.v.Load()))
}

// gaugeFunc is a gauge whose value is computed at scrape time (queue
// backlog, goroutine count, heap bytes — facts that live elsewhere and
// would go stale as stored values).
type gaugeFunc struct {
	name string
	help string
	fn   func() int64
}

func (g *gaugeFunc) metricName() string { return g.name }

func (g *gaugeFunc) snapshotInto(into map[string]int64) { into[g.name] = g.fn() }

func (g *gaugeFunc) writeText(w io.Writer) error {
	return writeScalar(w, g.name, g.help, "gauge", fmt.Sprintf("%d", g.fn()))
}

func writeScalar(w io.Writer, name, help, kind, value string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, value)
	return err
}

// escapeHelp sanitizes HELP text per the Prometheus exposition format:
// backslashes and line feeds must be escaped or a single help string
// with a newline would corrupt every series after it.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Registry is a named-metric registry with deterministic export order.
// Metrics are registered once (usually at Manager construction) and
// updated lock-free on the hot ingest path.
type Registry struct {
	mu      sync.Mutex
	order   []metric
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Counter returns the counter registered under name, creating it with
// the given help text on first use. The metric is exported as a
// Prometheus counter (monotonically increasing).
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{name: name, help: help, kind: "counter"} })
	c, ok := m.(*Counter)
	if !ok || c.kind != "counter" {
		panic(fmt.Sprintf("service: metric %s already registered as a different type", name))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it with the
// given help text on first use. Gauges may go up and down (Add with a
// negative delta) and are exported with the Prometheus gauge type.
func (r *Registry) Gauge(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{name: name, help: help, kind: "gauge"} })
	c, ok := m.(*Counter)
	if !ok || c.kind != "gauge" {
		panic(fmt.Sprintf("service: metric %s already registered as a different type", name))
	}
	return c
}

// GaugeFunc registers a gauge evaluated at scrape time. Re-registering
// the same name keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	m := r.register(name, func() metric { return &gaugeFunc{name: name, help: help, fn: fn} })
	if _, ok := m.(*gaugeFunc); !ok {
		panic(fmt.Sprintf("service: metric %s already registered as a different type", name))
	}
}

// Histogram returns the latency histogram registered under name,
// creating it with the given help text on first use. All histograms
// share the registry's fixed log-spaced bucket layout (BucketBounds)
// and are exported as Prometheus histograms.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.register(name, func() metric { return newHistogram(name, help) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("service: metric %s already registered as a different type", name))
	}
	return h
}

func (r *Registry) register(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	r.order = append(r.order, m)
	return m
}

// Snapshot returns the current value of every counter and gauge in
// registration order, plus a <name>_count entry per histogram.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	order := append([]metric(nil), r.order...)
	r.mu.Unlock()
	out := make(map[string]int64, len(order))
	for _, m := range order {
		m.snapshotInto(out)
	}
	return out
}

// Histograms returns the registered histograms in registration order
// (omsstat's summary and the e2e checks walk them).
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Histogram
	for _, m := range r.order {
		if h, ok := m.(*Histogram); ok {
			out = append(out, h)
		}
	}
	return out
}

// WriteText writes every metric in Prometheus text exposition format,
// with the # HELP and # TYPE comment lines scrapers use to type each
// series (counters stay counters in dashboards instead of defaulting to
// untyped). An empty registry writes nothing and reports no error, so
// /metrics is scrapeable from the instant the server mounts.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	order := append([]metric(nil), r.order...)
	r.mu.Unlock()
	for _, m := range order {
		if err := m.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteOpenMetrics writes the registry in OpenMetrics text format:
// identical families, but histogram buckets carry trace-id exemplars
// and the exposition ends with the mandatory "# EOF" marker. /metrics
// negotiates into this only when the scraper asks for openmetrics, so
// classic Prometheus scrapes are byte-compatible with before.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	r.mu.Lock()
	order := append([]metric(nil), r.order...)
	r.mu.Unlock()
	for _, m := range order {
		var err error
		if h, ok := m.(*Histogram); ok {
			err = h.writeOpenMetrics(w)
		} else {
			err = m.writeText(w)
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// serviceMetrics bundles the counters the session subsystem maintains.
type serviceMetrics struct {
	sessionsCreated  *Counter
	sessionsFinished *Counter
	sessionsEvicted  *Counter
	sessionsDeleted  *Counter
	sessionsActive   *Counter // gauge
	nodesIngested    *Counter
	edgesIngested    *Counter
	chunksIngested   *Counter
	batchesIngested  *Counter
	pushErrors       *Counter
	backpressure     *Counter
	adaptiveSessions *Counter
	statsRevisions   *Counter

	sessionsRecovered *Counter
	walRecords        *Counter
	walErrors         *Counter

	refineJobs     *Counter
	refineFailed   *Counter
	refineCanceled *Counter
	refineActive   *Counter // gauge
	refinePasses   *Counter
	refineVersions *Counter

	// Per-stage latency histograms: where a push's time goes between
	// the HTTP ack and the engine. queueWait is arrival→start time of a
	// job, turn plus slot (backpressure made visible as a distribution),
	// assign the engine time of one chunk or batch, walAppend/walFsync
	// the durable-log encode+write and fsync stall (observed inside
	// internal/wal via the store hooks; the series exist even without a
	// store so dashboards keep a stable schema).
	queueWait *Histogram
	assign    *Histogram
	walAppend *Histogram
	walFsync  *Histogram
}

func newServiceMetrics(r *Registry) *serviceMetrics {
	// The checkpoint counter outlived the checkpoints: it stays
	// registered, at 0, for readers that look it up by name.
	r.Counter("omsd_wal_snapshots_total", "engine checkpoints written; stays 0, since a session persists only its log")
	return &serviceMetrics{
		sessionsCreated:  r.Counter("omsd_sessions_created_total", "push sessions opened"),
		sessionsFinished: r.Counter("omsd_sessions_finished_total", "push sessions finished"),
		sessionsEvicted:  r.Counter("omsd_sessions_evicted_total", "push sessions evicted by TTL"),
		sessionsDeleted:  r.Counter("omsd_sessions_deleted_total", "push sessions deleted by clients"),
		sessionsActive:   r.Gauge("omsd_sessions_active", "currently live push sessions"),
		nodesIngested:    r.Counter("omsd_nodes_ingested_total", "nodes assigned across all sessions"),
		edgesIngested:    r.Counter("omsd_edges_ingested_total", "adjacency entries ingested across all sessions"),
		chunksIngested:   r.Counter("omsd_chunks_ingested_total", "ingest chunks processed across all sessions"),
		batchesIngested:  r.Counter("omsd_batches_ingested_total", "parallel ingest batches processed across all sessions"),
		pushErrors:       r.Counter("omsd_push_errors_total", "rejected node pushes (range, weights, budget, after-finish)"),
		backpressure:     r.Counter("omsd_backpressure_waits_total", "ingest/finish jobs that found their session busy and waited for its turn"),
		adaptiveSessions: r.Counter("omsd_adaptive_sessions_total", "open-ended (adaptive) push sessions opened"),
		statsRevisions:   r.Counter("omsd_stats_revisions_total", "adaptive stats-revision records logged across all sessions"),

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
