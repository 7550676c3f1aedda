package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oms/internal/promtext"
	"oms/internal/slo"
)

// syntheticServer serves a registry filled with a known workload: the
// push histogram uniform over (0, 1ms], the fsync histogram with one
// 20ms stall, a backlog gauge, and a counter that grows per scrape.
func syntheticServer(t *testing.T) (*httptest.Server, *promtext.Registry) {
	t.Helper()
	reg := promtext.NewRegistry()
	push := reg.Histogram("omsd_http_push_seconds", "push latency")
	for i := 1; i <= 1000; i++ {
		push.Observe(time.Duration(i) * time.Microsecond)
	}
	fsync := reg.Histogram("omsd_wal_fsync_seconds", "fsync stall")
	fsync.Observe(20 * time.Millisecond)
	reg.Gauge("omsd_queue_backlog", "backlog").Add(7)
	ops := reg.Counter("ops_total", "ops")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ops.Add(10)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WriteText(w)
	}))
	t.Cleanup(srv.Close)
	return srv, reg
}

func runStat(t *testing.T, cfg config) (int, *summary, string) {
	return runStatCtx(t, context.Background(), cfg)
}

func runStatCtx(t *testing.T, ctx context.Context, cfg config) (int, *summary, string) {
	t.Helper()
	dir := t.TempDir()
	var out, errw bytes.Buffer
	cfg.outDir = dir
	cfg.stdout, cfg.stderr = &out, &errw
	if cfg.samples == 0 {
		cfg.samples = 3
	}
	if cfg.interval == 0 {
		cfg.interval = time.Millisecond
	}
	code := run(ctx, cfg)
	var sum *summary
	if raw, err := os.ReadFile(filepath.Join(dir, "summary.json")); err == nil {
		sum = &summary{}
		if err := json.Unmarshal(raw, sum); err != nil {
			t.Fatalf("summary.json does not parse: %v", err)
		}
	}
	t.Logf("stdout:\n%s\nstderr:\n%s", out.String(), errw.String())
	return code, sum, dir
}

func TestQuantilesMatchSnapshot(t *testing.T) {
	srv, reg := syntheticServer(t)
	code, sum, dir := runStat(t, config{url: srv.URL})
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}

	// The summary's quantiles must equal the live snapshot's (the same
	// interpolation over the same buckets, transported through text).
	var snap promtext.HistogramSnapshot
	for _, h := range reg.Histograms() {
		if h.Name() == "omsd_http_push_seconds" {
			snap = h.Snapshot()
		}
	}
	got := sum.Histograms["omsd_http_push_seconds"]
	if got.Count != 1000 {
		t.Fatalf("push count %d, want 1000", got.Count)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50", got.P50, snap.Quantile(0.50)},
		{"p95", got.P95, snap.Quantile(0.95)},
		{"p99", got.P99, snap.Quantile(0.99)},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want snapshot's %v", c.name, c.got, c.want)
		}
	}
	// Uniform (0, 1ms]: the p50 estimate must sit mid-range.
	if got.P50 < 0.3e-3 || got.P50 > 0.7e-3 {
		t.Errorf("p50 %v implausible for uniform (0,1ms]", got.P50)
	}

	g := sum.Gauges["omsd_queue_backlog"]
	if g.Last != 7 || g.P95 != 7 {
		t.Errorf("backlog gauge summary %+v, want constant 7", g)
	}
	c := sum.Counters["ops_total"]
	if c.Last-c.First != 20 { // 3 scrapes, +10 each, first reading after the first bump
		t.Errorf("counter first %v last %v, want growth of 20", c.First, c.Last)
	}
	if c.RatePerSec <= 0 {
		t.Errorf("counter rate %v, want > 0", c.RatePerSec)
	}

	// samples.csv: header + one row per scrape, no _bucket columns.
	f, err := os.Open(filepath.Join(dir, "samples.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("csv has %d rows, want header + 3 scrapes", len(rows))
	}
	if rows[0][0] != "ts_unix_ms" {
		t.Fatalf("csv header %v", rows[0])
	}
	for _, col := range rows[0] {
		if strings.HasSuffix(col, "_bucket") {
			t.Fatalf("csv leaked bucket column %q", col)
		}
	}
}

func TestThresholds(t *testing.T) {
	srv, _ := syntheticServer(t)

	// Generous bounds hold: push p99 under 5ms, backlog p95 under 100.
	ths, err := slo.ParseThresholds("push_p99_ms=5,backlog_p95=100")
	if err != nil {
		t.Fatal(err)
	}
	code, sum, _ := runStat(t, config{url: srv.URL, thresholds: ths})
	if code != 0 || !sum.OK {
		t.Fatalf("exit %d ok=%v, want passing thresholds", code, sum.OK)
	}
	if sum.Thresholds[0].Metric != "omsd_http_push_seconds" {
		t.Fatalf("push alias resolved to %q", sum.Thresholds[0].Metric)
	}

	// The 20ms fsync stall must blow a 5ms p99 bound and exit 1.
	ths, err = slo.ParseThresholds("fsync_p99_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	code, sum, _ = runStat(t, config{url: srv.URL, thresholds: ths})
	if code != 1 {
		t.Fatalf("exit %d, want 1 on violated threshold", code)
	}
	r := sum.Thresholds[0]
	if r.OK || r.Metric != "omsd_wal_fsync_seconds" || r.Value <= 5 {
		t.Fatalf("violation record %+v", r)
	}
}

func TestRequire(t *testing.T) {
	srv, _ := syntheticServer(t)
	code, sum, _ := runStat(t, config{url: srv.URL,
		require: []string{"omsd_http_push_seconds", "omsd_wal_fsync_seconds"}})
	if code != 0 || !sum.OK {
		t.Fatalf("exit %d, want 0 when required histograms are populated", code)
	}
	code, sum, _ = runStat(t, config{url: srv.URL, require: []string{"omsd_http_nope_seconds"}})
	if code != 1 || sum.OK {
		t.Fatalf("exit %d ok=%v, want 1 on missing required histogram", code, sum.OK)
	}
}

func TestNetworkError(t *testing.T) {
	code, _, _ := runStat(t, config{url: "http://127.0.0.1:1/metrics"})
	if code != 2 {
		t.Fatalf("exit %d, want 2 on unreachable endpoint", code)
	}
}

func TestParseThresholdErrors(t *testing.T) {
	for _, bad := range []string{"push_p99_ms", "push_p99_ms=abc"} {
		if _, err := slo.ParseThresholds(bad); err == nil {
			t.Errorf("ParseThresholds(%q) accepted a malformed spec", bad)
		}
	}
	srv, _ := syntheticServer(t)
	for _, badKey := range []string{"push=5", "push_p0_ms=5", "nosuch_p99=5"} {
		ths, err := slo.ParseThresholds(badKey)
		if err != nil {
			continue // rejected at parse time is fine too
		}
		if code, _, _ := runStat(t, config{url: srv.URL, thresholds: ths}); code != 2 {
			t.Errorf("threshold %q: exit %d, want 2 on unresolvable key", badKey, code)
		}
	}
}

// TestPartialRun interrupts the scrape loop after the first sample and
// expects the collected prefix to still land on disk, marked partial.
func TestPartialRun(t *testing.T) {
	srv, _ := syntheticServer(t)
	var hits atomic.Int32
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if _, err := io.Copy(w, resp.Body); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(gate.Close)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for hits.Load() == 0 { // cancel once at least one scrape landed
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	code, sum, dir := runStatCtx(t, ctx, config{
		url: gate.URL, samples: 10_000, interval: 5 * time.Millisecond,
	})
	if code != 0 {
		t.Fatalf("exit %d, want 0 for a clean partial run", code)
	}
	if sum == nil || !sum.Partial {
		t.Fatalf("summary %+v, want partial:true", sum)
	}
	if sum.Samples == 0 || sum.Samples >= 10_000 {
		t.Fatalf("partial run recorded %d samples", sum.Samples)
	}
	if _, err := os.Stat(filepath.Join(dir, "samples.csv")); err != nil {
		t.Fatalf("partial run did not flush samples.csv: %v", err)
	}
}

// TestInterruptBeforeFirstScrape: a context already cancelled means no
// data at all — that is exit 2, not a vacuous pass.
func TestInterruptBeforeFirstScrape(t *testing.T) {
	srv, _ := syntheticServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, _, _ := runStatCtx(t, ctx, config{url: srv.URL})
	if code != 2 {
		t.Fatalf("exit %d, want 2 when interrupted before any scrape", code)
	}
}

// TestWaitReady: -wait-ready must block on a 503 readyz and proceed
// once it flips to 200.
func TestWaitReady(t *testing.T) {
	srv, _ := syntheticServer(t)
	var ready atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		io.Copy(w, resp.Body)
	})
	gate := httptest.NewServer(mux)
	t.Cleanup(gate.Close)
	time.AfterFunc(60*time.Millisecond, func() { ready.Store(true) })

	code, sum, _ := runStat(t, config{url: gate.URL + "/metrics", waitReady: 5 * time.Second})
	if code != 0 || sum == nil || !sum.OK {
		t.Fatalf("exit %d, want 0 once readyz flips", code)
	}

	// An endpoint that never goes ready exhausts the budget with exit 2.
	ready.Store(false)
	code, _, _ = runStat(t, config{url: gate.URL + "/metrics", waitReady: 100 * time.Millisecond})
	if code != 2 {
		t.Fatalf("exit %d, want 2 on readiness timeout", code)
	}
}

// TestExemplarSlowTraces scrapes an OpenMetrics-negotiating endpoint
// whose fsync histogram carries a trace-id exemplar; the breached
// threshold must name that trace, and the summary must count exemplars.
func TestExemplarSlowTraces(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	reg := promtext.NewRegistry()
	fsync := reg.Histogram("omsd_wal_fsync_seconds", "fsync stall")
	fsync.ObserveExemplar(20*time.Millisecond, tid)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept"), "openmetrics") {
			t.Errorf("scrape did not ask for openmetrics (Accept %q)", r.Header.Get("Accept"))
		}
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		reg.WriteOpenMetrics(w)
	}))
	t.Cleanup(srv.Close)

	ths, err := slo.ParseThresholds("fsync_p99_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	code, sum, _ := runStat(t, config{url: srv.URL, thresholds: ths})
	if code != 1 || sum == nil {
		t.Fatalf("exit %d, want 1 on violated threshold", code)
	}
	if sum.Exemplars < 1 {
		t.Fatalf("summary counted %d exemplars, want >= 1", sum.Exemplars)
	}
	r := sum.Thresholds[0]
	if r.OK || len(r.SlowTraces) == 0 {
		t.Fatalf("violated threshold carries no slow traces: %+v", r)
	}
	if r.SlowTraces[0].TraceID != tid || r.SlowTraces[0].Seconds != 0.02 {
		t.Fatalf("slow trace = %+v, want %s at 0.02s", r.SlowTraces[0], tid)
	}
}
