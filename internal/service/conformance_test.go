package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"oms/internal/store"
	"strings"
	"testing"
	"time"

	"oms/internal/trace"
)

// conformanceCase is one row of the endpoint × error-class table: a
// request against a prepared session state, the status code the API
// promises, and the machine-readable error code of the body.
type conformanceCase struct {
	name       string
	method     string
	route      string // pattern from Routes(), for coverage accounting
	url        func(f *conformanceFixture) string
	body       string
	wantStatus int
	wantCode   string // "" for success rows (no error body)
	wantCT     string // response Content-Type prefix, "" skips the check
	// contentType, when set, is sent as the request Content-Type —
	// the ingest rows use it to pin media-type negotiation.
	contentType string
}

// conformanceFixture holds the prepared session states every row picks
// from.
type conformanceFixture struct {
	srvURL      string
	notReadyURL string // second server whose manager never marked ready
	clusterURL  string // third server with a stub ClusterView that owns nothing
	liveID      string // declared n=4 m=1, nothing pushed
	finishedID  string // declared, sealed
	deletedID   string // was live, deleted (tombstoned)
	traceID     string // one retained trace (seeded via a sampled traceparent)
}

// stubClusterView is a ClusterView whose ring places every session on a
// peer: any session lookup on its server answers 307 to the peer's
// address, which is exactly the wrong_node row the table needs.
type stubClusterView struct{}

func (stubClusterView) Self() string { return "n1" }
func (stubClusterView) Owner(id string) (node, addr string) {
	return "n2", "http://peer.invalid:7777"
}
func (stubClusterView) OwnsID(id string) bool { return true }
func (stubClusterView) Table(adm AdmissionInfo) any {
	return map[string]any{"enabled": true, "self": "n1", "admission": adm}
}

// noRedirectClient surfaces 307s instead of chasing them: the wrong_node
// row asserts the redirect itself (Location would point at a dead peer).
var noRedirectClient = &http.Client{
	CheckRedirect: func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	},
}

func newConformanceFixture(t *testing.T) *conformanceFixture {
	t.Helper()
	// SampleEvery -1 disables spontaneous sampling: only the request
	// that explicitly carries a sampled traceparent below records a
	// trace, so the other rows stay deterministic.
	mgr, srv := newTestServer(t, Config{Tracer: trace.NewRecorder(trace.Options{SampleEvery: -1})})
	f := &conformanceFixture{srvURL: srv.URL}

	mk := func(spec store.CreateSpec) string {
		s, err := mgr.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s.ID
	}
	f.liveID = mk(store.CreateSpec{N: 4, M: 1, K: 2})
	f.finishedID = mk(store.CreateSpec{N: 4, M: 3, K: 2})
	fs, err := mgr.Get(f.finishedID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Finish(context.Background(), mgr.Pool()); err != nil {
		t.Fatal(err)
	}
	f.deletedID = mk(store.CreateSpec{N: 4, M: 3, K: 2})
	if err := mgr.Delete(f.deletedID); err != nil {
		t.Fatal(err)
	}

	// Seed one retained trace for the trace/ok row: a request carrying
	// a sampled traceparent is recorded under that trace id. The trace
	// publishes when the middleware finishes, which can trail the
	// response by a scheduler tick — poll briefly until it lands.
	tc := trace.NewContext(true)
	req, err := http.NewRequest("GET", srv.URL+"/v1/sessions", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	f.traceID = tc.TraceID.String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := mgr.Tracer().Get(tc.TraceID); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("seeded trace never published")
		}
		time.Sleep(time.Millisecond)
	}

	// A second server whose manager is never marked ready: readyz must
	// answer 503 there while everything above answers on the ready one.
	notReady := NewManager(Config{JanitorPeriod: time.Hour})
	t.Cleanup(notReady.Close)
	nrSrv := httptest.NewServer(NewServer(notReady))
	t.Cleanup(nrSrv.Close)
	f.notReadyURL = nrSrv.URL

	// A third server in cluster mode whose stub view maps every session
	// to a peer, for the wrong_node redirect and enabled-table rows.
	_, cSrv := newTestServer(t, Config{Cluster: stubClusterView{}})
	f.clusterURL = cSrv.URL
	return f
}

// conformanceTable enumerates every route with at least one row per
// reachable error class. The TestHTTPConformance coverage check fails
// if a registered route has no row here.
func conformanceTable() []conformanceCase {
	id := func(path string) func(*conformanceFixture) string {
		return func(f *conformanceFixture) string { return f.srvURL + path }
	}
	withID := func(format string, pick func(*conformanceFixture) string) func(*conformanceFixture) string {
		return func(f *conformanceFixture) string { return f.srvURL + fmt.Sprintf(format, pick(f)) }
	}
	live := func(f *conformanceFixture) string { return f.liveID }
	finished := func(f *conformanceFixture) string { return f.finishedID }
	deleted := func(f *conformanceFixture) string { return f.deletedID }
	unknown := func(f *conformanceFixture) string { return "s0-deadbeef" }

	node99 := `{"u":99,"adj":[]}` + "\n"
	overBudget := `{"u":0,"adj":[1,2,3]}` + "\n" // 3 entries > 2m = 2
	garbageFrame := "\x01\x02\x03"               // truncated mid-header: never a valid frame

	return []conformanceCase{
		// POST /v1/sessions — create-time rejections.
		{"create/bad-json", "POST", "POST /v1/sessions", id("/v1/sessions"), "{nope", http.StatusBadRequest, "bad_request", "", ""},
		{"create/no-target", "POST", "POST /v1/sessions", id("/v1/sessions"), `{"n":4}`, http.StatusBadRequest, "bad_request", "", ""},
		{"create/k-and-topology", "POST", "POST /v1/sessions", id("/v1/sessions"), `{"n":4,"k":2,"topology":"2:2"}`, http.StatusBadRequest, "bad_request", "", ""},
		{"create/bad-scorer", "POST", "POST /v1/sessions", id("/v1/sessions"), `{"n":4,"k":2,"scorer":"quantum"}`, http.StatusBadRequest, "bad_request", "", ""},
		{"create/ok", "POST", "POST /v1/sessions", id("/v1/sessions"), `{"n":4,"m":3,"k":2}`, http.StatusCreated, "", "", ""},

		// GET /v1/sessions — listing has no error classes.
		{"list/ok", "GET", "GET /v1/sessions", id("/v1/sessions"), "", http.StatusOK, "", "", ""},

		// GET /v1/sessions/{id} — dead vs unknown ids.
		{"status/unknown", "GET", "GET /v1/sessions/{id}", withID("/v1/sessions/%s", unknown), "", http.StatusNotFound, "session_not_found", "", ""},
		{"status/deleted", "GET", "GET /v1/sessions/{id}", withID("/v1/sessions/%s", deleted), "", http.StatusGone, "session_gone", "", ""},
		{"status/ok", "GET", "GET /v1/sessions/{id}", withID("/v1/sessions/%s", live), "", http.StatusOK, "", "", ""},

		// POST /v1/sessions/{id}/nodes — every push failure class.
		{"nodes/unknown", "POST", "POST /v1/sessions/{id}/nodes", withID("/v1/sessions/%s/nodes", unknown), node99, http.StatusNotFound, "session_not_found", "", ""},
		{"nodes/deleted", "POST", "POST /v1/sessions/{id}/nodes", withID("/v1/sessions/%s/nodes", deleted), node99, http.StatusGone, "session_gone", "", ""},
		{"nodes/finished", "POST", "POST /v1/sessions/{id}/nodes", withID("/v1/sessions/%s/nodes", finished), node99, http.StatusConflict, "session_finished", "", ""},
		{"nodes/out-of-range", "POST", "POST /v1/sessions/{id}/nodes", withID("/v1/sessions/%s/nodes", live), node99, http.StatusUnprocessableEntity, "node_out_of_range", "", ""},
		{"nodes/over-budget", "POST", "POST /v1/sessions/{id}/nodes", withID("/v1/sessions/%s/nodes", live), overBudget, http.StatusRequestEntityTooLarge, "edge_budget_exceeded", "", ""},
		{"nodes/unsupported-media", "POST", "POST /v1/sessions/{id}/nodes", withID("/v1/sessions/%s/nodes", live), node99, http.StatusUnsupportedMediaType, "unsupported_media_type", "", "application/xml"},
		{"nodes/malformed-frame", "POST", "POST /v1/sessions/{id}/nodes", withID("/v1/sessions/%s/nodes", live), garbageFrame, http.StatusBadRequest, "malformed_frame", "", "application/x-oms-frame"},

		// POST /v1/sessions/{id}/batch — the batch is atomic, so the
		// same classes apply to the whole group.
		{"batch/unknown", "POST", "POST /v1/sessions/{id}/batch", withID("/v1/sessions/%s/batch", unknown), node99, http.StatusNotFound, "session_not_found", "", ""},
		{"batch/deleted", "POST", "POST /v1/sessions/{id}/batch", withID("/v1/sessions/%s/batch", deleted), node99, http.StatusGone, "session_gone", "", ""},
		{"batch/finished", "POST", "POST /v1/sessions/{id}/batch", withID("/v1/sessions/%s/batch", finished), node99, http.StatusConflict, "session_finished", "", ""},
		{"batch/out-of-range", "POST", "POST /v1/sessions/{id}/batch", withID("/v1/sessions/%s/batch", live), node99, http.StatusUnprocessableEntity, "node_out_of_range", "", ""},
		{"batch/over-budget", "POST", "POST /v1/sessions/{id}/batch", withID("/v1/sessions/%s/batch", live), overBudget, http.StatusRequestEntityTooLarge, "edge_budget_exceeded", "", ""},
		{"batch/unsupported-media", "POST", "POST /v1/sessions/{id}/batch", withID("/v1/sessions/%s/batch", live), node99, http.StatusUnsupportedMediaType, "unsupported_media_type", "", "application/xml"},
		{"batch/malformed-frame", "POST", "POST /v1/sessions/{id}/batch", withID("/v1/sessions/%s/batch", live), garbageFrame, http.StatusBadRequest, "malformed_frame", "", "application/x-oms-frame"},

		// POST /v1/sessions/{id}/finish.
		{"finish/unknown", "POST", "POST /v1/sessions/{id}/finish", withID("/v1/sessions/%s/finish", unknown), "", http.StatusNotFound, "session_not_found", "", ""},
		{"finish/deleted", "POST", "POST /v1/sessions/{id}/finish", withID("/v1/sessions/%s/finish", deleted), "", http.StatusGone, "session_gone", "", ""},

		// POST /v1/sessions/{id}/refine.
		{"refine/unknown", "POST", "POST /v1/sessions/{id}/refine", withID("/v1/sessions/%s/refine", unknown), "", http.StatusNotFound, "session_not_found", "", ""},
		{"refine/deleted", "POST", "POST /v1/sessions/{id}/refine", withID("/v1/sessions/%s/refine", deleted), "", http.StatusGone, "session_gone", "", ""},
		{"refine/not-finished", "POST", "POST /v1/sessions/{id}/refine", withID("/v1/sessions/%s/refine", live), "", http.StatusConflict, "session_not_finished", "", ""},
		{"refine/no-stream", "POST", "POST /v1/sessions/{id}/refine", withID("/v1/sessions/%s/refine", finished), "", http.StatusConflict, "stream_not_retained", "", ""},
		{"refine/bad-json", "POST", "POST /v1/sessions/{id}/refine", withID("/v1/sessions/%s/refine", finished), "{nope", http.StatusBadRequest, "bad_request", "", ""},

		// GET /v1/sessions/{id}/refine.
		{"refine-status/unknown", "GET", "GET /v1/sessions/{id}/refine", withID("/v1/sessions/%s/refine", unknown), "", http.StatusNotFound, "session_not_found", "", ""},
		{"refine-status/never-refined", "GET", "GET /v1/sessions/{id}/refine", withID("/v1/sessions/%s/refine", finished), "", http.StatusNotFound, "refine_not_found", "", ""},

		// GET /v1/sessions/{id}/result.
		{"result/unknown", "GET", "GET /v1/sessions/{id}/result", withID("/v1/sessions/%s/result", unknown), "", http.StatusNotFound, "session_not_found", "", ""},
		{"result/not-finished", "GET", "GET /v1/sessions/{id}/result", withID("/v1/sessions/%s/result", live), "", http.StatusConflict, "session_not_finished", "", ""},
		{"result/no-such-version", "GET", "GET /v1/sessions/{id}/result", withID("/v1/sessions/%s/result?version=99", finished), "", http.StatusNotFound, "version_not_found", "", ""},
		{"result/bad-selector", "GET", "GET /v1/sessions/{id}/result", withID("/v1/sessions/%s/result?version=soon", finished), "", http.StatusBadRequest, "bad_request", "", ""},
		{"result/ok", "GET", "GET /v1/sessions/{id}/result", withID("/v1/sessions/%s/result", finished), "", http.StatusOK, "", "", ""},

		// DELETE /v1/sessions/{id}.
		{"delete/unknown", "DELETE", "DELETE /v1/sessions/{id}", withID("/v1/sessions/%s", unknown), "", http.StatusNotFound, "session_not_found", "", ""},
		{"delete/deleted", "DELETE", "DELETE /v1/sessions/{id}", withID("/v1/sessions/%s", deleted), "", http.StatusGone, "session_gone", "", ""},

		// Cluster surface. On a single-node server /v1/cluster reports
		// {"enabled": false} and the internal replication routes answer
		// 409: replication only exists between configured peers. On the
		// stub-cluster server, a session the node does not hold redirects
		// (307 + wrong_node + Location) to its ring owner.
		{name: "cluster/single-node", method: "GET", route: "GET /v1/cluster", url: id("/v1/cluster"),
			wantStatus: http.StatusOK, wantCT: "application/json"},
		{name: "cluster/enabled", method: "GET", route: "GET /v1/cluster",
			url:        func(f *conformanceFixture) string { return f.clusterURL + "/v1/cluster" },
			wantStatus: http.StatusOK, wantCT: "application/json"},
		{name: "status/wrong-node", method: "GET", route: "GET /v1/sessions/{id}",
			url:        func(f *conformanceFixture) string { return f.clusterURL + "/v1/sessions/s0-deadbeef" },
			wantStatus: http.StatusTemporaryRedirect, wantCode: "wrong_node"},
		{name: "replicate/disabled", method: "POST", route: "POST /v1/replica/sessions/{id}",
			url:        withID("/v1/replica/sessions/%s", unknown),
			wantStatus: http.StatusConflict, wantCode: "cluster_disabled"},
		{name: "replica-delete/disabled", method: "DELETE", route: "DELETE /v1/replica/sessions/{id}",
			url:        withID("/v1/replica/sessions/%s", unknown),
			wantStatus: http.StatusConflict, wantCode: "cluster_disabled"},

		// Operational endpoints. The metrics row pins the Prometheus text
		// exposition content type; readyz distinguishes a started daemon
		// (200) from one still recovering (503 on the not-ready server).
		{name: "healthz/ok", method: "GET", route: "GET /healthz", url: id("/healthz"), wantStatus: http.StatusOK},
		{name: "healthz-v1/ok", method: "GET", route: "GET /v1/healthz", url: id("/v1/healthz"), wantStatus: http.StatusOK},
		{name: "readyz/ok", method: "GET", route: "GET /v1/readyz", url: id("/v1/readyz"), wantStatus: http.StatusOK},
		{name: "readyz/not-ready", method: "GET", route: "GET /v1/readyz",
			url:        func(f *conformanceFixture) string { return f.notReadyURL + "/v1/readyz" },
			wantStatus: http.StatusServiceUnavailable, wantCode: "not_ready"},
		{name: "metrics/ok", method: "GET", route: "GET /metrics", url: id("/metrics"),
			wantStatus: http.StatusOK, wantCT: "text/plain; version=0.0.4"},

		// GET /v1/traces and /v1/traces/{id} — the span-tree surface.
		{name: "traces/ok", method: "GET", route: "GET /v1/traces", url: id("/v1/traces"),
			wantStatus: http.StatusOK, wantCT: "application/json"},
		{name: "trace/ok", method: "GET", route: "GET /v1/traces/{id}",
			url:        withID("/v1/traces/%s", func(f *conformanceFixture) string { return f.traceID }),
			wantStatus: http.StatusOK, wantCT: "application/json"},
		{name: "trace/bad-id", method: "GET", route: "GET /v1/traces/{id}",
			url:        id("/v1/traces/not-a-trace-id"),
			wantStatus: http.StatusBadRequest, wantCode: "bad_request"},
		{name: "trace/unknown", method: "GET", route: "GET /v1/traces/{id}",
			url:        id("/v1/traces/ffffffffffffffffffffffffffffffff"),
			wantStatus: http.StatusNotFound, wantCode: "trace_not_found"},
	}
}

// TestHTTPConformance replays the whole table and then verifies it
// exercised every registered route, so new endpoints cannot ship
// without conformance rows.
func TestHTTPConformance(t *testing.T) {
	f := newConformanceFixture(t)
	covered := map[string]bool{}

	for _, tc := range conformanceTable() {
		t.Run(tc.name, func(t *testing.T) {
			covered[tc.route] = true
			var body io.Reader
			if tc.body != "" {
				body = bytes.NewReader([]byte(tc.body))
			}
			req, err := http.NewRequest(tc.method, tc.url(f), body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := noRedirectClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if resp.StatusCode == http.StatusTemporaryRedirect {
				if loc := resp.Header.Get("Location"); loc == "" {
					t.Fatal("307 without a Location header")
				}
				if owner := resp.Header.Get("X-OMS-Owner"); owner == "" {
					t.Fatal("wrong_node redirect without X-OMS-Owner")
				}
			}
			if tc.wantCT != "" {
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.wantCT) {
					t.Fatalf("content type %q, want prefix %q", ct, tc.wantCT)
				}
			}
			if tc.wantCode == "" {
				return
			}
			// Error bodies share one machine-readable shape.
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error content type %q", ct)
			}
			var eb struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(raw, &eb); err != nil {
				t.Fatalf("error body %q does not parse: %v", raw, err)
			}
			if eb.Error == "" {
				t.Fatalf("error body %q has no error message", raw)
			}
			if eb.Code != tc.wantCode {
				t.Fatalf("error code %q, want %q (body %s)", eb.Code, tc.wantCode, raw)
			}
		})
	}

	for _, rt := range Routes() {
		key := rt.Method + " " + rt.Pattern
		if !covered[key] {
			t.Errorf("registered route %s has no conformance case", key)
		}
	}
}
