package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oms"
)

func TestDaemonServesAndShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// One tiny session through the real daemon: create, ingest, finish.
	resp, err = http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"n":4,"m":3,"k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lines := `{"u":0,"adj":[1]}
{"u":1,"adj":[0,2]}
{"u":2,"adj":[1,3]}
{"u":3,"adj":[2]}
`
	resp, err = http.Post(fmt.Sprintf("%s/v1/sessions/%s/nodes", base, created.ID),
		"application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.Count(string(body), `"b":`); got != 4 {
		t.Fatalf("streamed %d assignments, want 4: %s", got, body)
	}
	resp, err = http.Post(fmt.Sprintf("%s/v1/sessions/%s/finish", base, created.ID),
		"application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Assigned int32 `json:"assigned"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.Assigned != 4 {
		t.Fatalf("finish assigned %d, want 4", sum.Assigned)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// startDaemon launches the daemon with the given extra args and returns
// its base URL plus a stop function that kills it and waits for exit.
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), ready)
	}()
	select {
	case addr := <-ready:
		stopped := false
		return "http://" + addr, func() {
			if stopped {
				return
			}
			stopped = true
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("daemon exit: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("daemon did not shut down")
			}
		}
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatal("daemon did not come up")
	}
	panic("unreachable")
}

// ndjsonNodes encodes graph nodes [lo, hi) as NDJSON ingest lines.
func ndjsonNodes(t *testing.T, g *oms.Graph, lo, hi int32) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for u := lo; u < hi; u++ {
		if err := enc.Encode(map[string]any{"u": u, "adj": g.Neighbors(u)}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestCrashRecoveryParity is the durability acceptance test: an ingest
// killed mid-stream, the daemon restarted against the same -data-dir,
// the session resumed at the exact next node — and the final
// assignments must be byte-identical to the same stream run
// uninterrupted in process.
func TestCrashRecoveryParity(t *testing.T) {
	dataDir := t.TempDir()
	g := oms.GenDelaunay(4000, 11)
	n, m := g.NumNodes(), g.NumEdges()
	const k = 8

	// The uninterrupted reference run.
	eng, err := oms.NewSession(oms.SessionConfig{Stats: oms.StreamStats{N: n, M: m}, K: k})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < n; u++ {
		if _, err := eng.Push(u, 1, g.Neighbors(u), nil); err != nil {
			t.Fatal(err)
		}
	}
	want, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// First daemon: create the session, deliver 60% of the stream, die.
	base, stop := startDaemon(t, "-data-dir", dataDir, "-wal-sync", "0")
	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"n":%d,"m":%d,"k":%d}`, n, m, k)))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cut := n * 3 / 5
	resp, err = http.Post(base+"/v1/sessions/"+created.ID+"/nodes",
		"application/x-ndjson", strings.NewReader(ndjsonNodes(t, g, 0, cut)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.Count(string(body), `"b":`); got != int(cut) {
		t.Fatalf("first half acked %d assignments, want %d", got, cut)
	}
	stop()

	// Second daemon, same data dir: the session must be back, resumed
	// at exactly node `cut`.
	base2, stop2 := startDaemon(t, "-data-dir", dataDir, "-wal-sync", "0")
	defer stop2() // idempotent; the explicit stop below normally runs first
	resp, err = http.Get(base2 + "/v1/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Assigned int32 `json:"assigned"`
		Finished bool  `json:"finished"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Finished || status.Assigned != cut {
		t.Fatalf("recovered session at node %d (finished=%v), want resumable at %d", status.Assigned, status.Finished, cut)
	}

	// Deliver the tail, finish, and compare the full assignment vector.
	resp, err = http.Post(base2+"/v1/sessions/"+created.ID+"/nodes",
		"application/x-ndjson", strings.NewReader(ndjsonNodes(t, g, cut, n)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Post(base2+"/v1/sessions/"+created.ID+"/finish", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(base2 + "/v1/sessions/" + created.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Parts []int32 `json:"parts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(result.Parts) != len(want.Parts) {
		t.Fatalf("result has %d parts, want %d", len(result.Parts), len(want.Parts))
	}
	for u := range want.Parts {
		if result.Parts[u] != want.Parts[u] {
			t.Fatalf("node %d: recovered run assigned %d, uninterrupted run %d", u, result.Parts[u], want.Parts[u])
		}
	}

	// A sealed session also survives a second restart with its result.
	stop2()
	base3, stop3 := startDaemon(t, "-data-dir", dataDir)
	defer stop3()
	resp, err = http.Get(base3 + "/v1/sessions/" + created.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var again struct {
		Parts []int32 `json:"parts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for u := range want.Parts {
		if again.Parts[u] != want.Parts[u] {
			t.Fatalf("node %d: sealed recovery assigned %d, want %d", u, again.Parts[u], want.Parts[u])
		}
	}
}

// postNDJSON posts body to path and decodes the {"u","b"} assignment
// lines streamed back.
func postNDJSON(t *testing.T, url, body string) map[int32]int32 {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[int32]int32)
	dec := json.NewDecoder(resp.Body)
	for {
		var line struct {
			U     int32   `json:"u"`
			B     *int32  `json:"b"`
			Error *string `json:"error"`
		}
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if line.Error != nil {
			t.Fatalf("ingest error line: %s", *line.Error)
		}
		if line.B != nil {
			out[line.U] = *line.B
		}
	}
	return out
}

// TestBatchCrashRecoveryParity is the group-commit acceptance test: a
// batch ingest killed mid-stream must come back with exactly the
// assignments that were acknowledged (recovery replays the WAL's
// recorded decisions, not the algorithm), and — because a batch is
// assigned in order — the finished result must equal an uninterrupted
// batch run of the same stream. The session asks for "threads": 4,
// which is accepted and ignored.
func TestBatchCrashRecoveryParity(t *testing.T) {
	dataDir := t.TempDir()
	g := oms.GenDelaunay(4000, 13)
	n, m := g.NumNodes(), g.NumEdges()
	const k = 8
	createBody := fmt.Sprintf(`{"n":%d,"m":%d,"k":%d,"threads":4}`, n, m, k)
	create := func(base string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(createBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var created struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		return created.ID
	}
	finishResult := func(base, id string) []int32 {
		t.Helper()
		resp, err := http.Post(base+"/v1/sessions/"+id+"/finish", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resp, err = http.Get(base + "/v1/sessions/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var result struct {
			Parts []int32 `json:"parts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
			t.Fatal(err)
		}
		if len(result.Parts) != int(n) {
			t.Fatalf("result has %d parts, want %d", len(result.Parts), n)
		}
		return result.Parts
	}

	base, stop := startDaemon(t, "-data-dir", dataDir, "-wal-sync", "0")
	id := create(base)
	cut := n * 3 / 5
	acked := postNDJSON(t, base+"/v1/sessions/"+id+"/batch", ndjsonNodes(t, g, 0, cut))
	if len(acked) != int(cut) {
		t.Fatalf("batch acked %d assignments, want %d", len(acked), cut)
	}
	stop()

	// Restart: the session resumes at the batch boundary with the acked
	// decisions intact.
	base2, stop2 := startDaemon(t, "-data-dir", dataDir, "-wal-sync", "0")
	defer stop2()
	resp, err := http.Get(base2 + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Assigned int32 `json:"assigned"`
		Finished bool  `json:"finished"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Finished || status.Assigned != cut {
		t.Fatalf("recovered session at node %d (finished=%v), want resumable at %d", status.Assigned, status.Finished, cut)
	}

	postNDJSON(t, base2+"/v1/sessions/"+id+"/batch", ndjsonNodes(t, g, cut, n))
	parts := finishResult(base2, id)
	for u, b := range acked {
		if parts[u] != b {
			t.Fatalf("node %d: recovered run reports %d, client was acknowledged %d", u, parts[u], b)
		}
	}

	whole := create(base2)
	postNDJSON(t, base2+"/v1/sessions/"+whole+"/batch", ndjsonNodes(t, g, 0, n))
	want := finishResult(base2, whole)
	for u := range want {
		if parts[u] < 0 || parts[u] >= k || parts[u] != want[u] {
			t.Fatalf("node %d: recovered run reports %d, uninterrupted run %d", u, parts[u], want[u])
		}
	}
}

// TestRefineCrashRecoveryE2E is the refinement acceptance test against
// the real daemon: ingest, finish, refine two passes off the WAL, crash
// (one version durable, plus a planted torn version), restart — the
// recovered session serves its completed versions byte-identically,
// never the torn one, and the refined cut is no worse than one-pass.
func TestRefineCrashRecoveryE2E(t *testing.T) {
	dataDir := t.TempDir()
	g := oms.GenRMATSocial(3000, 15000, 13)
	n, m := g.NumNodes(), g.NumEdges()
	const k = 16

	base, stop := startDaemon(t, "-data-dir", dataDir, "-wal-sync", "0")
	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"n":%d,"m":%d,"k":%d}`, n, m, k)))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := created.ID
	resp, err = http.Post(base+"/v1/sessions/"+id+"/nodes",
		"application/x-ndjson", strings.NewReader(ndjsonNodes(t, g, 0, n)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/sessions/"+id+"/finish", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Refine two passes and wait for the job to finish.
	resp, err = http.Post(base+"/v1/sessions/"+id+"/refine", "application/json",
		strings.NewReader(`{"passes":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("refine status %d: %s", resp.StatusCode, body)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	type refineInfo struct {
		State      string `json:"state"`
		Error      string `json:"error"`
		OnePassCut *int64 `json:"one_pass_edge_cut"`
		Best       int32  `json:"best_version"`
		Versions   []struct {
			Version int32 `json:"version"`
			EdgeCut int64 `json:"edge_cut"`
		} `json:"versions"`
	}
	var info refineInfo
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("refine job never finished: %+v", info)
		}
		resp, err := http.Get(base + "/v1/sessions/" + id + "/refine")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.State == "done" {
			break
		}
		if info.State == "failed" || info.State == "canceled" {
			t.Fatalf("refine job %s: %s", info.State, info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(info.Versions) != 2 || info.OnePassCut == nil {
		t.Fatalf("refine finished oddly: %+v", info)
	}
	if worst := info.Versions[1].EdgeCut; worst > *info.OnePassCut {
		t.Fatalf("refined cut %d worse than one-pass %d", worst, *info.OnePassCut)
	}

	fetch := func(base, version string) []byte {
		resp, err := http.Get(base + "/v1/sessions/" + id + "/result?version=" + version)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result version %s: %d %s", version, resp.StatusCode, body)
		}
		return body
	}
	v0 := fetch(base, "0")
	v1 := fetch(base, "1")
	v2 := fetch(base, "2")
	latest := fetch(base, "latest")
	if !bytes.Equal(latest, v2) {
		t.Fatal("latest does not serve version 2")
	}
	if !bytes.Equal(fetch(base, "1"), v1) {
		t.Fatal("version 1 not byte-stable")
	}

	// Crash. Plant a torn version-3 file — the bytes a crash mid-refine
	// would leave if version writes were not atomic.
	stop()
	sdir := filepath.Join(dataDir, "sessions", id)
	whole, err := os.ReadFile(filepath.Join(sdir, "version-000002"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, "version-000003"), whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	base2, stop2 := startDaemon(t, "-data-dir", dataDir, "-wal-sync", "0")
	defer stop2()
	// The recovered session serves all completed versions byte-for-byte
	// (the result payload carries no daemon-run-dependent field), never
	// the torn one.
	if got := fetch(base2, "0"); !bytes.Equal(got, v0) {
		t.Fatal("version 0 not byte-stable across the crash")
	}
	if got := fetch(base2, "1"); !bytes.Equal(got, v1) {
		t.Fatal("version 1 not byte-stable across the crash")
	}
	if got := fetch(base2, "2"); !bytes.Equal(got, v2) {
		t.Fatal("version 2 not byte-stable across the crash")
	}
	resp, err = http.Get(base2 + "/v1/sessions/" + id + "/result?version=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("torn version served with status %d, want 404", resp.StatusCode)
	}
	var status struct {
		Best     int32 `json:"best_version"`
		Versions []struct {
			Version int32 `json:"version"`
			EdgeCut int64 `json:"edge_cut"`
		} `json:"versions"`
	}
	resp, err = http.Get(base2 + "/v1/sessions/" + id + "/refine")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Versions) != 2 {
		t.Fatalf("recovered %d versions, want 2", len(status.Versions))
	}
	if status.Best != info.Best {
		t.Fatalf("best version %d after crash, was %d", status.Best, info.Best)
	}
}
