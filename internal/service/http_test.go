package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"oms"
	"oms/internal/metrics"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	mgr := testManager(t, cfg)
	srv := httptest.NewServer(NewServer(mgr))
	t.Cleanup(srv.Close)
	return mgr, srv
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, data)
		}
	}
	resp.Body.Close()
	return resp
}

// ndjsonGraph renders g's nodes [lo,hi) as NDJSON ingest lines.
func ndjsonGraph(t *testing.T, g *oms.Graph, lo, hi int32) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for u := lo; u < hi; u++ {
		nd := PushNode{U: u, Adj: g.Neighbors(u), EW: g.EdgeWeights(u)}
		if w := g.NodeWeight(u); w != 1 {
			nd.W = w
		}
		if err := enc.Encode(nd); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// streamNodes posts one NDJSON chunk and collects the streamed
// assignments into parts.
func streamNodes(t *testing.T, url string, body io.Reader, parts []int32) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxNodeLine)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var a struct {
			U     int32  `json:"u"`
			B     *int32 `json:"b"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Bytes(), err)
		}
		if a.Error != "" {
			t.Fatalf("server rejected ingest: %s", a.Error)
		}
		if a.B == nil {
			t.Fatalf("assignment line without block: %q", sc.Bytes())
		}
		parts[a.U] = *a.B
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

type createReply struct {
	ID   string `json:"id"`
	K    int32  `json:"k"`
	N    int32  `json:"n"`
	Lmax int64  `json:"lmax"`
}

// driveSession streams g through a fresh session in chunked POSTs and
// returns the streamed assignments plus the finish summary.
func driveSession(t *testing.T, base string, g *oms.Graph, spec CreateSpec, posts int32) ([]int32, *Summary, string) {
	t.Helper()
	var created createReply
	if resp := postJSON(t, base+"/v1/sessions", spec, &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	n := g.NumNodes()
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = -1
	}
	per := (n + posts - 1) / posts
	for lo := int32(0); lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		streamNodes(t, fmt.Sprintf("%s/v1/sessions/%s/nodes", base, created.ID), ndjsonGraph(t, g, lo, hi), parts)
	}
	var sum Summary
	if resp := postJSON(t, fmt.Sprintf("%s/v1/sessions/%s/finish", base, created.ID), struct{}{}, &sum); resp.StatusCode != http.StatusOK {
		t.Fatalf("finish status %d", resp.StatusCode)
	}
	return parts, &sum, created.ID
}

// TestEndToEndParity is the acceptance test: a graph streamed through
// the omsd HTTP surface must receive byte-identical assignments to an
// in-process pull-based run with the same stream order and options.
func TestEndToEndParity(t *testing.T) {
	g := oms.GenDelaunay(3000, 42)
	const k, seed = 32, 7
	want, err := oms.PartitionGraph(g, k, oms.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	_, srv := newTestServer(t, Config{})
	spec := CreateSpec{
		N: g.NumNodes(), M: g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
		K: k, Seed: seed, Record: true,
	}
	// A single >64KB POST: regression cover for request-body truncation
	// once the handler starts flushing responses (full-duplex mode).
	parts, sum, id := driveSession(t, srv.URL, g, spec, 1)
	for u := range want.Parts {
		if parts[u] != want.Parts[u] {
			t.Fatalf("node %d: streamed %d, in-process %d", u, parts[u], want.Parts[u])
		}
	}

	if sum.Assigned != g.NumNodes() || sum.K != k || sum.Lmax != want.Lmax {
		t.Fatalf("summary %+v, want assigned=%d k=%d lmax=%d", sum, g.NumNodes(), k, want.Lmax)
	}
	if sum.EdgeCut == nil || *sum.EdgeCut != metrics.EdgeCut(g, want.Parts) {
		t.Fatalf("summary cut %v, want %d", sum.EdgeCut, metrics.EdgeCut(g, want.Parts))
	}
	if sum.Balance == nil || *sum.Balance != metrics.Imbalance(g, want.Parts, k) {
		t.Fatalf("summary imbalance %v, want %v", sum.Balance, metrics.Imbalance(g, want.Parts, k))
	}

	// The result endpoint returns the identical full vector.
	var res struct {
		K     int32   `json:"k"`
		Parts []int32 `json:"parts"`
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/result", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for u := range want.Parts {
		if res.Parts[u] != want.Parts[u] {
			t.Fatalf("result endpoint node %d: %d, want %d", u, res.Parts[u], want.Parts[u])
		}
	}

	// Metrics surfaced the traffic.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), fmt.Sprintf("omsd_nodes_ingested_total %d", g.NumNodes())) {
		t.Fatalf("metrics missing ingest count:\n%s", mbody)
	}
}

// TestConcurrentSessionsIsolated interleaves many sessions over the
// shared worker pool and checks every one matches its own in-process
// reference: per-session loads and alphas never leak across sessions.
func TestConcurrentSessionsIsolated(t *testing.T) {
	const sessions = 10
	_, srv := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct graphs, k, scorers, and epsilons per session so any
			// cross-session state leak changes some assignment.
			g := oms.GenDelaunay(800+100*int32(i), uint64(i+1))
			opt := oms.Options{Seed: uint64(i), Epsilon: 0.03 + 0.01*float64(i%3)}
			spec := CreateSpec{
				N: g.NumNodes(), M: g.NumEdges(),
				TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
				K: int32(8 << (i % 3)), Seed: opt.Seed, Epsilon: opt.Epsilon,
			}
			if i%4 == 3 {
				spec.Scorer = "ldg"
				opt.Scorer = oms.ScorerLDG
			}
			want, err := oms.PartitionGraph(g, spec.K, opt)
			if err != nil {
				t.Error(err)
				return
			}
			parts, sum, _ := driveSession(t, srv.URL, g, spec, 7)
			if sum.Assigned != g.NumNodes() {
				t.Errorf("session %d: assigned %d of %d", i, sum.Assigned, g.NumNodes())
			}
			for u := range want.Parts {
				if parts[u] != want.Parts[u] {
					t.Errorf("session %d node %d: streamed %d, in-process %d", i, u, parts[u], want.Parts[u])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSentinelStatusCodes checks the engine's sentinel errors map to
// distinct HTTP statuses when a rejection happens before any response
// bytes are committed.
func TestSentinelStatusCodes(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	post := func(id, lines string) int {
		t.Helper()
		resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/nodes", srv.URL, id),
			"application/x-ndjson", strings.NewReader(lines))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Node outside the declared range -> 422.
	var created createReply
	postJSON(t, srv.URL+"/v1/sessions", CreateSpec{N: 4, M: 3, K: 2}, &created)
	if code := post(created.ID, `{"u":99,"adj":[]}`+"\n"); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range status %d, want 422", code)
	}

	// Overrunning the declared edge budget (2m = 2) -> 413.
	var tiny createReply
	postJSON(t, srv.URL+"/v1/sessions", CreateSpec{N: 4, M: 1, K: 2}, &tiny)
	if code := post(tiny.ID, `{"u":0,"adj":[1,2,3]}`+"\n"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("edge-budget status %d, want 413", code)
	}

	// Pushing into a finished session -> 409.
	var done createReply
	postJSON(t, srv.URL+"/v1/sessions", CreateSpec{N: 4, M: 3, K: 2}, &done)
	resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/finish", srv.URL, done.ID), "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code := post(done.ID, `{"u":0,"adj":[]}`+"\n"); code != http.StatusConflict {
		t.Fatalf("push-after-finish status %d, want 409", code)
	}

	// A mid-stream rejection (assignments already committed) still
	// surfaces inline as an NDJSON error line on a 200 stream.
	var mid createReply
	postJSON(t, srv.URL+"/v1/sessions", CreateSpec{N: 4, M: 3, K: 2}, &mid)
	resp, err = http.Post(fmt.Sprintf("%s/v1/sessions/%s/nodes", srv.URL, mid.ID),
		"application/x-ndjson", strings.NewReader(`{"u":0,"adj":[1]}`+"\n"+`{"u":99,"adj":[]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"b":`) || !strings.Contains(string(body), "outside declared range") {
		t.Fatalf("mid-stream rejection: status %d body %s", resp.StatusCode, body)
	}
}

// TestRequestBinaryMediaTypes pins the ingest format decision for every
// class of Content-Type: the exact frame type (the fast path), the frame
// type with parameters or in another case (through the parser), the
// NDJSON-ish list, text/*, and 415 for the rest.
func TestRequestBinaryMediaTypes(t *testing.T) {
	for _, tc := range []struct {
		ct          string
		binary, bad bool
	}{
		{"", false, false},
		{"application/x-oms-frame", true, false},
		{"application/x-oms-frame; charset=binary", true, false},
		{"application/x-oms-frame ; v=2", true, false},
		{"Application/X-OMS-Frame", true, false},
		{"application/x-ndjson", false, false},
		{"application/jsonlines", false, false},
		{"application/json", false, false},
		{"application/json; charset=utf-8", false, false},
		{"application/octet-stream", false, false},
		{"application/x-www-form-urlencoded", false, false},
		{"APPLICATION/X-NDJSON", false, false},
		{"text/plain", false, false},
		{"Text/CSV; charset=utf-8", false, false},
		{"image/png", false, true},
		{"application/x-oms-framex", false, true},
		{"application/x-oms-frame;;", false, true},
		{"not a media type", false, true},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/x/nodes", nil)
		if tc.ct != "" {
			r.Header.Set("Content-Type", tc.ct)
		}
		binary, err := requestBinary(r)
		if binary != tc.binary || (err != nil) != tc.bad {
			t.Errorf("%q: binary=%v err=%v, want binary=%v bad=%v", tc.ct, binary, err, tc.binary, tc.bad)
		}
		if tc.bad && statusOf(err) != http.StatusUnsupportedMediaType {
			t.Errorf("%q: status %d, want 415", tc.ct, statusOf(err))
		}
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	// Unknown session.
	resp, err := http.Get(srv.URL + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status %d", resp.StatusCode)
	}
	// Bad create body.
	if resp := postJSON(t, srv.URL+"/v1/sessions", map[string]any{"n": 0}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad create status %d", resp.StatusCode)
	}
	// Result before finish conflicts.
	var created createReply
	postJSON(t, srv.URL+"/v1/sessions", CreateSpec{N: 4, M: 3, K: 2}, &created)
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/result", srv.URL, created.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result status %d", resp.StatusCode)
	}
	// Mid-stream rejection surfaces as an NDJSON error line.
	resp, err = http.Post(fmt.Sprintf("%s/v1/sessions/%s/nodes", srv.URL, created.ID),
		"application/x-ndjson", strings.NewReader(`{"u":99,"adj":[]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "outside declared range") {
		t.Fatalf("rejection not surfaced: %s", body)
	}
	// Delete, then the session is gone.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%s", srv.URL, created.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s", srv.URL, created.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Deleted is 410 Gone — the id existed; retrying it is pointless —
	// while a never-seen id stays 404.
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("deleted session status %d, want 410", resp.StatusCode)
	}
}
