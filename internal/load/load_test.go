package load

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"oms/internal/service"
	"oms/internal/slo"
)

// newOmsd spins the real service stack in-process.
func newOmsd(t *testing.T) *httptest.Server {
	t.Helper()
	mgr := service.NewManager(service.Config{JanitorPeriod: time.Hour, RefineWorkers: 1})
	mgr.SetReady()
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(service.NewServer(mgr))
	t.Cleanup(srv.Close)
	return srv
}

func shortProfile() Profile {
	p := DefaultProfile()
	p.Duration = 2 * time.Second
	p.RPS = 50
	p.Sessions = 3
	p.SessionNodes = 64
	p.ChunkNodes = 16
	p.Degree = 3
	p.Window = 32
	p.K = 4
	p.Seed = 7
	p.MaxInflight = 64
	p.SampleEvery = 100 * time.Millisecond
	p.RequestTimeout = 5 * time.Second
	p.Drain = 5 * time.Second
	return p
}

// TestRunAgainstService drives the full mix against a live in-process
// omsd: zero hard errors, session churn through every lifecycle stage,
// and both artifacts on disk in the declared shape.
func TestRunAgainstService(t *testing.T) {
	srv := newOmsd(t)
	p := shortProfile()
	ths, err := slo.ParseThresholds("push_p99_ms<60000,create_p99_ms<60000")
	if err != nil {
		t.Fatal(err)
	}
	p.Thresholds = ths

	dir := t.TempDir()
	sum, code := Run(context.Background(), Config{
		Profile: p, URL: srv.URL, OutDir: dir, Stdout: io.Discard, Stderr: os.Stderr,
	})
	if code != 0 || sum == nil || !sum.OK {
		t.Fatalf("exit %d sum=%+v, want a passing run", code, sum)
	}
	if sum.Errors != 0 {
		t.Fatalf("%d hard errors against a healthy in-process server", sum.Errors)
	}
	if sum.Partial {
		t.Fatal("uninterrupted run reported partial")
	}
	if sum.Completed == 0 || sum.Intended < sum.Completed {
		t.Fatalf("completed %d of %d intended", sum.Completed, sum.Intended)
	}
	if sum.Sessions.Created == 0 || sum.Sessions.Finished == 0 {
		t.Fatalf("session churn did not run: %+v", sum.Sessions)
	}
	for _, c := range []string{"create", "push"} {
		cs, ok := sum.Classes[c]
		if !ok || cs.Requests == 0 || cs.P99Ms <= 0 {
			t.Fatalf("class %s missing from summary: %+v", c, sum.Classes)
		}
	}
	if len(sum.Thresholds) != 2 {
		t.Fatalf("threshold results %+v", sum.Thresholds)
	}

	// summary.json round-trips to the same document.
	raw, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Summary
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.Completed != sum.Completed || !onDisk.OK {
		t.Fatalf("summary.json %+v does not match returned summary", onDisk)
	}
	if _, err := os.Stat(filepath.Join(dir, "samples.csv")); err != nil {
		t.Fatal(err)
	}
}

// stallServer answers every request after a fixed delay — the classic
// single-slow-server fixture for coordinated-omission tests.
func stallServer(t *testing.T, stall time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	var ids atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(stall)
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
			io.WriteString(w, `{"id":"s`+strconv.FormatInt(ids.Add(1), 10)+`"}`)
			return
		}
		io.WriteString(w, `{}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestCoordinatedOmissionRegression is the guard on the harness's core
// property: latency is measured from the intended start of the
// schedule, so when a stalled server (20ms per request, one connection)
// forces arrivals to queue, the queueing shows up in the recorded
// latencies instead of silently thinning the arrival stream. A
// closed-loop (send-time-measured) harness would report ≈stall for
// every request here.
func TestCoordinatedOmissionRegression(t *testing.T) {
	const stall = 20 * time.Millisecond
	srv, _ := stallServer(t, stall)

	p := shortProfile()
	p.Duration = 400 * time.Millisecond
	p.RPS = 200 // 5ms interarrival against 20ms serialized service time
	p.MaxInflight = 1
	p.Mix = map[Class]int{ClassStatus: 1} // one class, no session state needed
	p.Drain = 30 * time.Second

	dir := t.TempDir()
	sum, code := Run(context.Background(), Config{
		Profile: p, URL: srv.URL, OutDir: dir, Stdout: io.Discard, Stderr: os.Stderr,
	})
	if code != 0 || sum == nil {
		t.Fatalf("exit %d, want 0 (no thresholds set)", code)
	}
	// Open-loop honesty: every scheduled arrival completes — none are
	// skipped because the server was slow.
	if sum.Completed != sum.Intended || sum.Aborted != 0 {
		t.Fatalf("completed %d of %d intended (%d aborted): open-loop schedule was thinned",
			sum.Completed, sum.Intended, sum.Aborted)
	}
	cs := sum.Classes["status"]
	if cs.Requests < 60 {
		t.Fatalf("only %d status ops for an 80-arrival schedule", cs.Requests)
	}
	stallMs := float64(stall) / float64(time.Millisecond)
	// The i-th arrival waits ≈ i*(20ms-5ms); even the median is several
	// service times deep, and the p99 is an order of magnitude beyond.
	if cs.P50Ms < 3*stallMs {
		t.Errorf("p50 %.1fms ≈ service time: queue wait is not being measured (coordinated omission)", cs.P50Ms)
	}
	if cs.P99Ms < 10*stallMs {
		t.Errorf("p99 %.1fms, want ≥ %.0fms of accumulated queueing", cs.P99Ms, 10*stallMs)
	}
	if cs.MeanMs <= stallMs {
		t.Errorf("mean %.1fms not above the %.0fms service time", cs.MeanMs, stallMs)
	}
}

// TestRunThresholdViolation: a deliberately impossible bound against
// the stall fixture must exit 1 with the violation recorded.
func TestRunThresholdViolation(t *testing.T) {
	srv, _ := stallServer(t, 20*time.Millisecond)
	p := shortProfile()
	p.Duration = 300 * time.Millisecond
	p.RPS = 30
	p.Mix = map[Class]int{ClassStatus: 1}
	ths, err := slo.ParseThresholds("status_p99_ms<5")
	if err != nil {
		t.Fatal(err)
	}
	p.Thresholds = ths

	sum, code := Run(context.Background(), Config{
		Profile: p, URL: srv.URL, OutDir: t.TempDir(), Stdout: io.Discard, Stderr: os.Stderr,
	})
	if code != 1 || sum == nil || sum.OK {
		t.Fatalf("exit %d, want 1 on violated threshold", code)
	}
	r := sum.Thresholds[0]
	if r.OK || r.Value <= 5 {
		t.Fatalf("violation record %+v", r)
	}
}

// TestRunUnresolvableThreshold: bounding a class the mix never drives
// is a configuration error (exit 2), not a vacuous pass.
func TestRunUnresolvableThreshold(t *testing.T) {
	srv, _ := stallServer(t, 0)
	p := shortProfile()
	p.Duration = 200 * time.Millisecond
	p.RPS = 30
	p.Mix = map[Class]int{ClassStatus: 1}
	ths, err := slo.ParseThresholds("batch_p99_ms<5")
	if err != nil {
		t.Fatal(err)
	}
	p.Thresholds = ths
	if _, code := Run(context.Background(), Config{
		Profile: p, URL: srv.URL, OutDir: t.TempDir(), Stdout: io.Discard, Stderr: io.Discard,
	}); code != 2 {
		t.Fatalf("exit %d, want 2 for a threshold with no observations", code)
	}
}

// TestRunPartialFlush: cancelling mid-run must still produce both
// artifacts, marked partial, with whatever completed.
func TestRunPartialFlush(t *testing.T) {
	srv, _ := stallServer(t, time.Millisecond)
	p := shortProfile()
	p.Duration = 30 * time.Second
	p.RPS = 50
	p.Mix = map[Class]int{ClassStatus: 1}
	p.SampleEvery = 50 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	dir := t.TempDir()
	sum, code := Run(ctx, Config{
		Profile: p, URL: srv.URL, OutDir: dir, Stdout: io.Discard, Stderr: os.Stderr,
	})
	if code != 0 || sum == nil {
		t.Fatalf("exit %d, want 0 for an interrupted threshold-free run", code)
	}
	if !sum.Partial {
		t.Fatal("interrupted run not marked partial")
	}
	if sum.Completed == 0 {
		t.Fatal("partial run recorded nothing")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Summary
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !onDisk.Partial {
		t.Fatal(`summary.json missing "partial": true`)
	}
	if _, err := os.Stat(filepath.Join(dir, "samples.csv")); err != nil {
		t.Fatal(err)
	}
}
