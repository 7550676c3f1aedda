package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"oms/internal/service"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the outcome of one run of one workload. With tracing off
// Metrics holds the end-to-end metrics, with tracing on the per-layer
// ones; Samples gives the sample count behind each percentile or median.
type Report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
	Host      Host              `json:"host"`
}

// Options selects one run.
type Options struct {
	Seed    uint64
	Seconds float64 // length of the timed region
	Trace   bool
	Tmp     string // directory the run may write under; everything it creates there is removed
	Out     string // where trace-<workload>.json goes; empty: not written
	Host    Host
}

// setUps is how many times a run sets up: setup_s is their median, so
// that one slow generation or boot does not move it.
const setUps = 3

// Run sets the workload up, drives it for Seconds and checks the
// outputs. The error is for runs that could not be measured at all; a
// measured run with wrong outputs returns a Report with Correct false.
func Run(ctx context.Context, w Workload, opt Options) (*Report, error) {
	rep := &Report{
		Workload: w.Name, Seed: opt.Seed, Traced: opt.Trace, Host: opt.Host,
		Metrics: map[string]Metric{}, Samples: map[string]int{},
	}
	var e *env
	var setupS []float64
	for i := 0; i < setUps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(ctx, w, opt.Seed, opt.Tmp); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	d := time.Duration(opt.Seconds * float64(time.Second))

	if !opt.Trace {
		resetPeakRSS()
		rs := e.runFor(ctx, d, nil, 0)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.endToEnd(e, rs, median(setupS), rss)
		return rep, nil
	}

	// Traced run: the same region twice, a quarter as long each, first with
	// the tracer off and then on, so that the overhead of tracing is a
	// measured ratio; then the ladder.
	plain := e.runFor(ctx, d/4, nil, 0)
	debug.FreeOSMemory()
	tr := newTracer(w.Name)
	root := tr.Start(0, "bench", "workload")
	var reg *service.Registry
	if e.host != nil {
		reg = e.host.mgr.Registry()
	}
	before := snapRegistry(reg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rs := e.runFor(ctx, d/4, tr, root)
	runtime.ReadMemStats(&m1)
	tr.End(root, rs.nodes)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after := snapRegistry(reg)
	rep.account(rs)
	rep.account(plain)
	lrs, lreg, err := runLadder(ctx, w, opt.Seed, opt.Tmp, tr, rep.Metrics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep.account(lrs)
	svc := rs
	if reg == nil {
		// A library workload has no service traffic of its own: its
		// service and client counters are the ladder's deepest rung's.
		svc, after = lrs, snapRegistry(lreg)
	}
	rep.counters(svc, before, after)
	pushes := float64(max(len(rs.pushMS), 1))
	rep.set("go.allocs_per_push", float64(m1.Mallocs-m0.Mallocs)/pushes, "count")
	rep.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	rep.set("trace.overhead_share", plain.nodesPerS(e.stats.N)/rs.nodesPerS(e.stats.N), "x")
	spans := tr.Spans()
	rep.set("trace.spans", float64(len(spans)), "count")
	if opt.Out != "" {
		if err := writeTrace(opt.Out, rep, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (r *Report) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// account folds a region's operation counts into the report.
func (r *Report) account(rs *runStats) {
	r.Attempted += rs.attempted
	r.Failed += rs.failed
	if rs.firstErr != "" {
		r.Errors = append(r.Errors, rs.firstErr)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0 && len(r.Errors) == 0
}

// endToEnd fills the metrics a user of the system would see.
func (r *Report) endToEnd(e *env, rs *runStats, setupS, rssMB float64) {
	r.account(rs)
	r.set("nodes_per_s", rs.nodesPerS(e.stats.N), "1/s")
	r.Samples["nodes_per_s"] = max(len(rs.passMS), 1)
	var cut, load, cost []float64
	for _, q := range rs.quality {
		cut, load, cost = append(cut, q.cutFrac), append(load, q.maxLoadRatio), append(cost, q.costPerEdge)
	}
	if len(rs.quality) == 0 {
		r.Errors = append(r.Errors, "no result was verified")
		r.Correct = false
	}
	r.set("edge_cut_frac", median(cut), "ratio")
	r.set("max_load_ratio", median(load), "ratio")
	r.set("mapping_cost_per_edge", median(cost), "cost/edge")
	r.Samples["edge_cut_frac"] = len(cut)
	r.set("push_ms_p50", median(rs.pushMS), "ms")
	r.Samples["push_ms_p50"] = len(rs.pushMS)
	r.set("peak_rss_mb", rssMB, "MiB")
	r.set("setup_s", setupS, "s")
	r.Samples["setup_s"] = setUps
}

// regSnap is a point-in-time copy of a service registry.
type regSnap struct {
	hist  map[string]service.HistogramSnapshot
	count map[string]int64
}

func snapRegistry(reg *service.Registry) regSnap {
	s := regSnap{hist: map[string]service.HistogramSnapshot{}}
	if reg == nil {
		return s
	}
	for _, h := range reg.Histograms() {
		s.hist[h.Name()] = h.Snapshot()
	}
	s.count = reg.Snapshot()
	return s
}

// since returns what histogram name gained after the snapshot before.
func (s regSnap) since(before regSnap, name string) service.HistogramSnapshot {
	d, b := s.hist[name], before.hist[name]
	for i := range d.Buckets {
		d.Buckets[i] -= b.Buckets[i]
	}
	d.Count -= b.Count
	d.SumSec -= b.SumSec
	return d
}

// counters reads what the service's own registry gained between the two
// snapshots and what the client saw of the same traffic.
func (r *Report) counters(rs *runStats, before, after regSnap) {
	qw := after.since(before, "omsd_queue_wait_seconds")
	r.set("service.queue_wait_s", qw.SumSec, "s")
	r.set("service.queue_wait_ms_p95", qw.Quantile(0.95)*1e3, "ms")
	r.set("service.assign_busy_s", after.since(before, "omsd_assign_seconds").SumSec, "s")
	r.set("wal.append_busy_s", after.since(before, service.WALAppendHistogram).SumSec, "s")
	fsync := after.since(before, service.WALFsyncHistogram)
	r.set("wal.fsync_busy_s", fsync.SumSec, "s")
	r.set("wal.fsync_count", float64(fsync.Count), "count")
	for name, counter := range map[string]string{
		"wal.snapshots":              "omsd_wal_snapshots_total",
		"service.backpressure_waits": "omsd_backpressure_waits_total",
		"service.push_errors":        "omsd_push_errors_total",
	} {
		r.set(name, float64(after.count[counter]-before.count[counter]), "count")
	}

	p95, _ := percentile(rs.pushMS, 0.95)
	r.set("client.push_ms_p95", p95, "ms")
	p99, _ := percentile(rs.pushMS, 0.99)
	r.set("client.push_ms_p99", p99, "ms")
	r.set("client.push_ms_max", slices.Max(append(rs.pushMS, 0)), "ms")
	r.set("client.create_ms_p50", median(rs.createMS), "ms")
	r.set("client.finish_ms_p50", median(rs.finishMS), "ms")
	r.set("client.result_ms_p50", median(rs.resultMS), "ms")
	lag, _ := percentile(rs.lagMS, 0.95)
	r.set("client.generator_lag_ms_p95", lag, "ms")
	r.Samples["client.push_ms_p99"] = len(rs.pushMS)
	r.Samples["client.create_ms_p50"] = len(rs.createMS)
	r.Samples["client.generator_lag_ms_p95"] = len(rs.lagMS)
}

// writeTrace writes the spans and the self time each layer accounts for.
func writeTrace(dir string, rep *Report, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Report      *Report          `json:"report"`
		LayerSelfNS map[string]int64 `json:"layer_self_ns"`
		Spans       []Span           `json:"spans"`
	}{rep, layerSelfNS(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+rep.Workload+".json"), b, 0o644)
}
