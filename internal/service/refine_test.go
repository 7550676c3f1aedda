package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"oms/internal/store"
	"strings"
	"sync"
	"testing"
	"time"

	"oms"
	"oms/internal/metrics"
	"oms/internal/refine"
	"oms/internal/stream"
)

// waitRefineDone polls the refine status endpoint until the job reaches
// a terminal state.
func waitRefineDone(t *testing.T, base, id string) RefineInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var info RefineInfo
		resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/refine", base, id))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refine status %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatalf("decode refine status: %v (%s)", err, data)
		}
		switch info.State {
		case "done":
			return info
		case "failed", "canceled":
			t.Fatalf("refine job ended %s: %s", info.State, info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("refine job never finished")
	return RefineInfo{}
}

// fetchResult reads one result version's raw body (for byte-stability
// checks) and its decoded form.
func fetchResult(t *testing.T, base, id, version string) ([]byte, map[string]any) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/sessions/%s/result", base, id)
	if version != "" {
		url += "?version=" + version
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s status %d: %s", version, resp.StatusCode, data)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return data, m
}

// TestRefineImprovesFinishedSession: the acceptance flow over the HTTP
// surface — ingest, finish, refine(2 passes), versions improve the cut
// and every version is served byte-stably.
func TestRefineImprovesFinishedSession(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	g := oms.GenRMATSocial(3000, 15000, 11)
	spec := store.CreateSpec{
		N: g.NumNodes(), M: g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
		K: 16, Record: true, // no store in this test: refine replays the record buffer
	}
	parts, sum, id := driveSession(t, srv.URL, g, spec, 4)
	if sum.EdgeCut == nil {
		t.Fatal("record session finish has no edge cut")
	}
	onePassCut := *sum.EdgeCut
	if got := metrics.EdgeCut(g, parts); got != onePassCut {
		t.Fatalf("summary cut %d != streamed parts cut %d", onePassCut, got)
	}

	var accepted RefineInfo
	if resp := postJSON(t, fmt.Sprintf("%s/v1/sessions/%s/refine", srv.URL, id), RefineSpec{Passes: 2}, &accepted); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refine accept status %d", resp.StatusCode)
	}
	info := waitRefineDone(t, srv.URL, id)
	if len(info.Versions) != 2 || info.PassesDone != 2 {
		t.Fatalf("refine finished with %d versions, %d passes done", len(info.Versions), info.PassesDone)
	}
	if info.OnePassCut == nil || *info.OnePassCut != onePassCut {
		t.Fatalf("refine one-pass cut %v, want %d", info.OnePassCut, onePassCut)
	}

	// The e2e bar: two refinement passes must not worsen the one-pass
	// cut, and on this graph they strictly improve it.
	final := info.Versions[len(info.Versions)-1]
	if final.EdgeCut > onePassCut {
		t.Fatalf("refined cut %d worse than one-pass %d", final.EdgeCut, onePassCut)
	}
	if info.BestVersion == 0 && final.EdgeCut < onePassCut {
		t.Fatalf("best version 0 despite improved cut %d < %d", final.EdgeCut, onePassCut)
	}

	// Version selectors: 0 is the one-pass result, each published
	// version is immutable — two reads of the same selector must be
	// byte-identical; the default read still serves version 0.
	v0a, m0 := fetchResult(t, srv.URL, id, "")
	v0b, _ := fetchResult(t, srv.URL, id, "0")
	if !bytes.Equal(v0a, v0b) {
		t.Fatal("version 0 not byte-stable across selectors \"\" and \"0\"")
	}
	if int(m0["version"].(float64)) != 0 {
		t.Fatalf("default result version %v, want 0", m0["version"])
	}
	v1a, m1 := fetchResult(t, srv.URL, id, "1")
	v1b, _ := fetchResult(t, srv.URL, id, "1")
	if !bytes.Equal(v1a, v1b) {
		t.Fatal("version 1 not byte-stable")
	}
	if int(m1["version"].(float64)) != 1 {
		t.Fatalf("result version %v, want 1", m1["version"])
	}
	if bytes.Equal(v0a, v1a) {
		t.Fatal("version 1 identical to version 0 (refinement changed nothing?)")
	}
	_, mLatest := fetchResult(t, srv.URL, id, "latest")
	if int(mLatest["version"].(float64)) != 2 {
		t.Fatalf("latest version %v, want 2", mLatest["version"])
	}
	_, mBest := fetchResult(t, srv.URL, id, "best")
	if int(mBest["version"].(float64)) != int(info.BestVersion) {
		t.Fatalf("best served version %v, want %d", mBest["version"], info.BestVersion)
	}

	// The refined parts must be balanced and match the reported cut.
	v2parts := decodeParts(t, mLatest)
	if got := metrics.EdgeCut(g, v2parts); got != final.EdgeCut {
		t.Fatalf("served version 2 cut %d, ledger says %d", got, final.EdgeCut)
	}
	if err := metrics.CheckBalanced(g, v2parts, 16, oms.DefaultEpsilon); err != nil {
		t.Fatal(err)
	}

	// Unknown version -> 404.
	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/result?version=99", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown version status %d, want 404", resp.StatusCode)
	}
	// A selector beyond int32 must not wrap onto an existing version:
	// 2^32+1 would alias version 1 under a naive int32 conversion.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/result?version=4294967297", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing version selector status %d, want 400", resp.StatusCode)
	}
}

func decodeParts(t *testing.T, m map[string]any) []int32 {
	t.Helper()
	raw, ok := m["parts"].([]any)
	if !ok {
		t.Fatalf("no parts in %v", m)
	}
	out := make([]int32, len(raw))
	for i, v := range raw {
		out[i] = int32(v.(float64))
	}
	return out
}

// TestRefineStatusCodes: refinement's conflict surface — before finish,
// double-submit, and a stream the server never retained.
func TestRefineStatusCodes(t *testing.T) {
	mgr, srv := newTestServer(t, Config{})

	// Not finished -> 409.
	var created createReply
	postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: 4, M: 3, K: 2, Record: true}, &created)
	if resp := postJSON(t, fmt.Sprintf("%s/v1/sessions/%s/refine", srv.URL, created.ID), RefineSpec{}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("refine before finish status %d, want 409", resp.StatusCode)
	}

	// No store and no record buffer -> 409 with the retention hint.
	g := oms.GenDelaunay(64, 3)
	_, _, plainID := driveSession(t, srv.URL, g, store.CreateSpec{N: 64, M: g.NumEdges(), K: 4}, 1)
	if _, err := mgr.Refine(plainID, RefineSpec{}); !errors.Is(err, ErrNoStream) {
		t.Fatalf("refine without stream: %v, want ErrNoStream", err)
	}

	// GET refine before any job -> 404.
	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/refine", srv.URL, plainID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refine status of unrefined session %d, want 404", resp.StatusCode)
	}
}

// TestGoneVersusNotFound: a dead session id answers 410 (stop
// retrying), an unknown one 404.
func TestGoneVersusNotFound(t *testing.T) {
	mgr, srv := newTestServer(t, Config{})
	var created createReply
	postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: 4, M: 3, K: 2}, &created)
	if err := mgr.Delete(created.ID); err != nil {
		t.Fatal(err)
	}
	get := func(id string) int {
		resp, err := http.Get(srv.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(created.ID); code != http.StatusGone {
		t.Fatalf("deleted id status %d, want 410", code)
	}
	if code := get("s9999-ffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", code)
	}
	// Deleting twice distinguishes too.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+created.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("double delete status %d, want 410", resp.StatusCode)
	}
}

// TestMetricsTypedExposition: the /metrics endpoint emits # HELP and
// # TYPE comments with the right kinds, so scrapers see typed series.
func TestMetricsTypedExposition(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"# HELP omsd_sessions_created_total push sessions opened",
		"# TYPE omsd_sessions_created_total counter",
		"# TYPE omsd_sessions_active gauge",
		"# TYPE omsd_refine_jobs_active gauge",
		"# TYPE omsd_refine_passes_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	// Every sample line must be preceded by its TYPE comment. Histogram
	// samples belong to their family's metadata: the series name is the
	// family name plus a _bucket/_sum/_count suffix (and a {le=...}
	// label on buckets).
	lines := strings.Split(strings.TrimSpace(text), "\n")
	typed := map[string]string{}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# TYPE ") {
			f := strings.Fields(ln)
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(ln, "#") {
			continue
		}
		name, _, _ := strings.Cut(strings.Fields(ln)[0], "{")
		if _, ok := typed[name]; ok {
			continue
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok {
				base = b
				break
			}
		}
		if typed[base] != "histogram" {
			t.Fatalf("sample %q has no preceding # TYPE", ln)
		}
	}
}

// blockingStore is an in-memory Store whose ReplaySource blocks its
// first read until released — a deterministic stand-in for a long
// refinement pass.
type blockingStore struct {
	nodes   []store.PushNode
	started chan struct{} // closed when the source's first read begins
	release chan struct{} // reads proceed once closed
	once    sync.Once
}

type nullLog struct{}

func (nullLog) AppendNodeFrame(frame []byte) error                       { return nil }
func (nullLog) AppendBatch(nodes []store.PushNode, blocks []int32) error { return nil }
func (nullLog) Flush() error                                             { return nil }
func (nullLog) Seal() error                                              { return nil }
func (nullLog) SaveVersion(v store.RefinedVersion) error                 { return nil }
func (nullLog) LoadVersion(version int32) (store.RefinedVersion, error) {
	return store.RefinedVersion{}, refine.ErrNoVersion
}
func (nullLog) Close() error { return nil }

func (bs *blockingStore) Create(id string, spec store.CreateSpec) (store.SessionLog, error) {
	return nullLog{}, nil
}
func (bs *blockingStore) Recover() ([]store.RecoveredSession, error) { return nil, nil }
func (bs *blockingStore) Remove(id string) error                     { return nil }

func (bs *blockingStore) ReplaySource(id string) (oms.Source, error) { return bs, nil }

func (bs *blockingStore) Stats() (stream.Stats, error) {
	return stream.Stats{N: int32(len(bs.nodes)), M: 0}, nil
}

func (bs *blockingStore) ForEach(fn stream.Visitor) error {
	bs.once.Do(func() { close(bs.started) })
	<-bs.release
	for _, nd := range bs.nodes {
		w := nd.W
		if w == 0 {
			w = 1
		}
		fn(nd.U, w, nd.Adj, nd.EW)
	}
	return nil
}

// TestEvictionSparesActiveRefinement: a session whose refine job is
// running is not idle — the janitor must not destroy it under the job.
func TestEvictionSparesActiveRefinement(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	bs := &blockingStore{
		nodes:   pathNodes(8),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	mgr := testManager(t, Config{SessionTTL: time.Minute, Now: clock.now, Store: bs})
	s, err := mgr.Create(pathSpec(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), mgr.Pool(), pathNodes(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(context.Background(), mgr.Pool()); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Refine(s.ID, RefineSpec{Passes: 1}); err != nil {
		t.Fatal(err)
	}
	<-bs.started // the job is now mid-pass
	clock.advance(time.Hour)
	if n := mgr.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d sessions while one was actively refining", n)
	}
	if _, err := mgr.Get(s.ID); err != nil {
		t.Fatalf("actively refining session gone: %v", err)
	}
	close(bs.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, ok, err := mgr.RefineStatus(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ok && info.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refine job never finished: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
	// The published pass refreshed the TTL, so the session survives one
	// more TTL window, then goes normally.
	if n := mgr.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d sessions right after a pass published", n)
	}
	clock.advance(time.Hour)
	if n := mgr.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions after the job ended and TTL passed, want 1", n)
	}
}
