package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oms/internal/service"
)

// newOmsd runs the real service stack in-process and returns its URL.
func newOmsd(t *testing.T) string {
	t.Helper()
	mgr := service.NewManager(service.Config{JanitorPeriod: time.Hour, RefineWorkers: 1})
	mgr.SetReady()
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(service.NewServer(mgr))
	t.Cleanup(srv.Close)
	return srv.URL
}

// stalledOmsd proxies the real daemon but sleeps before every request —
// the induced-stall fixture the SLO gate must catch.
func stalledOmsd(t *testing.T, stall time.Duration) string {
	t.Helper()
	backend := newOmsd(t)
	u, err := url.Parse(backend)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(u)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func runLoad(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(context.Background(), args, &out, &errw, nil)
	t.Logf("stdout:\n%s\nstderr:\n%s", out.String(), errw.String())
	return code, out.String(), errw.String()
}

func loadArgs(url, dir string, extra ...string) []string {
	return append([]string{
		"-url", url, "-out", dir, "-wait-ready", "5s",
		"-duration", "1500ms", "-rps", "40",
	}, extra...)
}

func TestRunPasses(t *testing.T) {
	url := newOmsd(t)
	dir := t.TempDir()
	code, _, _ := runLoad(t, loadArgs(url, dir, "-thresholds", "push_p99_ms<60000,create_p99_ms<60000")...)
	if code != 0 {
		t.Fatalf("exit %d, want 0 against a healthy daemon", code)
	}
	for _, f := range []string{"summary.json", "samples.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}
}

// TestRunFailsOnInducedStall: a 30ms stall in front of every request
// cannot satisfy push_p99_ms<5 — the gate must exit 1, not paper over
// the slowdown.
func TestRunFailsOnInducedStall(t *testing.T) {
	url := stalledOmsd(t, 30*time.Millisecond)
	code, out, _ := runLoad(t, loadArgs(url, t.TempDir(), "-thresholds", "push_p99_ms<5")...)
	if code != 1 {
		t.Fatalf("exit %d, want 1 with an induced stall against push_p99_ms<5", code)
	}
	if !strings.Contains(out, "VIOLATED") {
		t.Fatalf("report does not name the violated threshold:\n%s", out)
	}
}

func TestWaitOnly(t *testing.T) {
	url := newOmsd(t)
	if code, _, _ := runLoad(t, "-url", url, "-wait-ready", "5s", "-wait-only"); code != 0 {
		t.Fatalf("exit %d, want 0 from -wait-only against a ready daemon", code)
	}
	// Nothing listening: readiness exhausts and exits 2.
	code, _, _ := runLoad(t, "-url", "http://127.0.0.1:1", "-wait-ready", "200ms", "-wait-only")
	if code != 2 {
		t.Fatalf("exit %d, want 2 when the daemon never comes up", code)
	}
}

func TestBadFlags(t *testing.T) {
	if code, _, _ := runLoad(t, "-profile", "/nonexistent.env"); code != 2 {
		t.Fatal("missing profile file must exit 2")
	}
	if code, _, _ := runLoad(t, "-thresholds", "push_p99_ms"); code != 2 {
		t.Fatal("malformed -thresholds must exit 2")
	}
}
