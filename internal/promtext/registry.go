package promtext

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
		panic(fmt.Sprintf("promtext: metric %s already registered as a different type", name))
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
		panic(fmt.Sprintf("promtext: metric %s already registered as a different type", name))
	}
	return c
}

// GaugeFunc registers a gauge evaluated at scrape time. Re-registering
// the same name keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	m := r.register(name, func() metric { return &gaugeFunc{name: name, help: help, fn: fn} })
	if _, ok := m.(*gaugeFunc); !ok {
		panic(fmt.Sprintf("promtext: metric %s already registered as a different type", name))
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
		panic(fmt.Sprintf("promtext: metric %s already registered as a different type", name))
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
// (the benchmark ledger walks them).
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
