package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"oms"
)

// ingestExpect streams NDJSON lines and returns the acked assignment
// per node in response order.
func ingestExpect(t *testing.T, base, id, lines string) map[int32]int32 {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions/"+id+"/nodes",
		"application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	out := map[int32]int32{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var a struct {
			U     int32  `json:"u"`
			B     int32  `json:"b"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad line %q: %v", sc.Bytes(), err)
		}
		if a.Error != "" {
			t.Fatalf("ingest error line: %s", a.Error)
		}
		out[a.U] = a.B
	}
	return out
}

// adaptiveStatus is the GET status payload of an open-ended session.
type adaptiveStatus struct {
	Assigned int32 `json:"assigned"`
	Finished bool  `json:"finished"`
	Adaptive bool  `json:"adaptive"`
	Observed struct {
		N               int32 `json:"n"`
		M               int64 `json:"m"`
		TotalNodeWeight int64 `json:"total_node_weight"`
	} `json:"observed"`
	Estimated struct {
		N               int32 `json:"n"`
		TotalNodeWeight int64 `json:"total_node_weight"`
	} `json:"estimated"`
	StatsRevision int64 `json:"stats_revision"`
}

func getAdaptiveStatus(t *testing.T, base, id string) adaptiveStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st adaptiveStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdaptiveCrashRecoveryE2E is the open-ended durability acceptance
// test against the real daemon: an adaptive session (no declared n/m)
// is killed mid-stream, the daemon restarts against the same -data-dir,
// and the recovered session must carry the identical estimator state
// and produce byte-identical subsequent assignments versus an uncrashed
// twin — through finish and its reconcile pass over the sealed WAL.
func TestAdaptiveCrashRecoveryE2E(t *testing.T) {
	dataDir := t.TempDir()
	g := oms.GenDelaunay(3000, 13)
	n := g.NumNodes()
	const k = 8

	// The uncrashed twin: a Record adaptive session is the in-process
	// equivalent of the daemon's persisted one — same retained
	// headroom, and its finish reconcile pass replays the same stream.
	twin, err := oms.NewSession(oms.SessionConfig{K: k, Adaptive: true, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	twinPush := func(lo, hi int32) map[int32]int32 {
		out := map[int32]int32{}
		for u := lo; u < hi; u++ {
			b, err := twin.Push(u, 1, g.Neighbors(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			out[u] = b
		}
		return out
	}

	// First daemon: open the open-ended session (just "k"), deliver
	// 60%, die.
	base, stop := startDaemon(t, "-data-dir", dataDir, "-wal-sync", "0")
	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"k":%d}`, k)))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID       string `json:"id"`
		Adaptive bool   `json:"adaptive"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !created.Adaptive {
		t.Fatal("n-less create did not open an adaptive session")
	}
	cut := n * 3 / 5
	got := ingestExpect(t, base, created.ID, ndjsonNodes(t, g, 0, cut))
	want := twinPush(0, cut)
	for u := int32(0); u < cut; u++ {
		if got[u] != want[u] {
			t.Fatalf("pre-crash node %d: daemon %d, twin %d", u, got[u], want[u])
		}
	}
	preCrash := getAdaptiveStatus(t, base, created.ID)
	stop()

	// Second daemon, same data dir: identical estimator state.
	base2, stop2 := startDaemon(t, "-data-dir", dataDir, "-wal-sync", "0")
	defer stop2()
	st := getAdaptiveStatus(t, base2, created.ID)
	if !st.Adaptive || st.Finished {
		t.Fatalf("recovered session adaptive=%v finished=%v", st.Adaptive, st.Finished)
	}
	if st.Assigned != cut {
		t.Fatalf("recovered at node %d, want %d", st.Assigned, cut)
	}
	if st != preCrash {
		t.Fatalf("estimator state diverged across the crash:\npre  %+v\npost %+v", preCrash, st)
	}
	twinInfo, _ := twin.AdaptiveInfo()
	if st.Observed.N != twinInfo.Observed.N || st.Observed.M != twinInfo.Observed.M ||
		st.Estimated.N != twinInfo.Estimated.N || st.StatsRevision != twinInfo.Revision {
		t.Fatalf("recovered estimator %+v disagrees with twin %+v", st, twinInfo)
	}

	// Byte-identical subsequent assignments.
	got2 := ingestExpect(t, base2, created.ID, ndjsonNodes(t, g, cut, n))
	want2 := twinPush(cut, n)
	for u := cut; u < n; u++ {
		if got2[u] != want2[u] {
			t.Fatalf("post-crash node %d: daemon %d, twin %d", u, got2[u], want2[u])
		}
	}

	// Finish both; the daemon's reconcile pass over the sealed WAL must
	// match the twin's pass over its recorded buffer.
	resp, err = http.Post(base2+"/v1/sessions/"+created.ID+"/finish", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Assigned int32 `json:"assigned"`
		Adaptive *struct {
			ObservedN    int32   `json:"observed_n"`
			ObservedM    int64   `json:"observed_m"`
			EstimateErrN float64 `json:"estimate_err_n"`
		} `json:"adaptive"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.Assigned != n || sum.Adaptive == nil {
		t.Fatalf("finish summary %+v", sum)
	}
	if sum.Adaptive.ObservedN != n || sum.Adaptive.ObservedM != g.NumEdges() {
		t.Fatalf("reconciled totals %+v, want n=%d m=%d", sum.Adaptive, n, g.NumEdges())
	}
	twinRes, err := twin.Finish()
	if err != nil {
		t.Fatal(err)
	}

	var res struct {
		Parts []int32 `json:"parts"`
	}
	resp, err = http.Get(base2 + "/v1/sessions/" + created.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(res.Parts) != len(twinRes.Parts) {
		t.Fatalf("result covers %d nodes, twin %d", len(res.Parts), len(twinRes.Parts))
	}
	for u := range twinRes.Parts {
		if res.Parts[u] != twinRes.Parts[u] {
			t.Fatalf("reconciled node %d: daemon %d, twin %d", u, res.Parts[u], twinRes.Parts[u])
		}
	}
}
