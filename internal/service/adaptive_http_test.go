package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"oms/internal/store"
	"sync"
	"testing"
	"time"

	"oms"
)

// getJSON decodes a GET response body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// drainAssignments reads the NDJSON assignment stream and checks the
// count.
func drainAssignments(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	n := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var a struct {
			U int32 `json:"u"`
			B int32 `json:"b"`
		}
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad assignment line %q: %v", sc.Bytes(), err)
		}
		n++
	}
	if n != want {
		t.Fatalf("streamed %d assignments, want %d", n, want)
	}
}

// TestAdaptiveGrowthChargesNodeBudget: adaptive sessions declare no n,
// so their footprint is charged live — growth beyond the aggregate
// budget rejects the chunk (429 class), and deletion releases what was
// actually grown.
func TestAdaptiveGrowthChargesNodeBudget(t *testing.T) {
	mgr := testManager(t, Config{MaxTotalNodes: 1000})
	s, err := mgr.Create(store.CreateSpec{Adaptive: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Ingest(ctx, mgr.Pool(), framed(store.PushNode{U: 500, Adj: []int32{10}})); err != nil {
		t.Fatalf("growth within budget rejected: %v", err)
	}
	if _, err := s.Ingest(ctx, mgr.Pool(), framed(store.PushNode{U: 5000})); !errors.Is(err, ErrLimit) {
		t.Fatalf("growth beyond budget: err %v, want ErrLimit", err)
	}
	// The rejected chunk must not have grown the engine or leaked
	// budget: a second session claiming the remainder still fits.
	if _, err := s.Ingest(ctx, mgr.Pool(), framed(store.PushNode{U: 400})); err != nil {
		t.Fatalf("in-budget ingest after a rejected one: %v", err)
	}
	s2, err := mgr.Create(store.CreateSpec{N: 400, M: 10, K: 2})
	if err != nil {
		t.Fatalf("declared session within the remainder rejected: %v", err)
	}
	_ = s2
	// Deleting the adaptive session releases its grown footprint (501
	// nodes), making room again.
	if err := mgr.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(store.CreateSpec{N: 600, M: 10, K: 2}); err != nil {
		t.Fatalf("budget not released on delete: %v", err)
	}
}

// TestAdaptiveChargeAccountingRace: deletes racing in-flight adaptive
// ingest must settle the charged-nodes budget to exactly zero — the
// protocol (closed before swap, re-check after add, CAS settle) may
// neither leak nor double-release liveNodes however the interleaving
// lands.
func TestAdaptiveChargeAccountingRace(t *testing.T) {
	mgr := testManager(t, Config{Workers: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	for round := 0; round < 40; round++ {
		s, err := mgr.Create(store.CreateSpec{Adaptive: true, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for c := 0; c < 8; c++ {
				nodes := make([]store.PushNode, 16)
				for i := range nodes {
					u := int32(c*16 + i)
					nodes[i] = store.PushNode{U: u * 7, Adj: []int32{u * 11}}
				}
				if _, err := s.Ingest(ctx, mgr.Pool(), framed(nodes...)); err != nil {
					return // gone mid-stream: expected
				}
			}
		}()
		go func() {
			defer wg.Done()
			_ = mgr.Delete(s.ID)
		}()
	}
	wg.Wait()
	mgr.mu.Lock()
	live, sessions := mgr.liveNodes, len(mgr.sessions)
	mgr.mu.Unlock()
	if sessions != 0 || live != 0 {
		t.Fatalf("after deleting every session: nSessions=%d liveNodes=%d, want 0/0", sessions, live)
	}
}

// TestAdaptiveContinuationRefineStaysBalanced: a second refine job
// seeds from the newest published version (refine.Restream replays it) —
// on adaptive sessions that rebuild must reconcile to the exact totals,
// or the continuation restreams under headroom-inflated capacities and
// publishes an imbalanced version.
func TestAdaptiveContinuationRefineStaysBalanced(t *testing.T) {
	mgr := testManager(t, Config{RefinePasses: 1})
	g := oms.GenDelaunay(2000, 5)
	s, err := mgr.Create(store.CreateSpec{Adaptive: true, K: 16, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var chunk []store.PushNode
	for u := int32(0); u < g.NumNodes(); u++ {
		chunk = append(chunk, store.PushNode{U: u, Adj: g.Neighbors(u)})
		if len(chunk) == 256 || u == g.NumNodes()-1 {
			if _, err := s.Ingest(ctx, mgr.Pool(), framed(chunk...)); err != nil {
				t.Fatal(err)
			}
			chunk = nil
		}
	}
	if _, err := s.Finish(ctx, mgr.Pool()); err != nil {
		t.Fatal(err)
	}
	refineWait := func() {
		t.Helper()
		for i := 0; i < 200; i++ {
			st, ok, err := mgr.RefineStatus(s.ID)
			if err != nil {
				t.Fatal(err)
			}
			if ok && (st.State == "done" || st.State == "failed") {
				if st.State != "done" {
					t.Fatalf("refine job ended %s: %s", st.State, st.Error)
				}
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatal("refine job never finished")
	}
	if _, err := mgr.Refine(s.ID, RefineSpec{Passes: 1}); err != nil {
		t.Fatal(err)
	}
	refineWait()
	// The continuation job: seeds from version 1.
	if _, err := mgr.Refine(s.ID, RefineSpec{Passes: 1}); err != nil {
		t.Fatal(err)
	}
	refineWait()
	res, err := s.ResultVersion("latest")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version < 2 {
		t.Fatalf("continuation published version %d, want >= 2", res.Version)
	}
	loads := make([]int64, 16)
	for u := int32(0); u < g.NumNodes(); u++ {
		loads[res.Parts[u]]++
	}
	lmax := int64(float64(g.NumNodes())/16*1.03) + 2
	for b, l := range loads {
		if l > lmax {
			t.Fatalf("continuation version block %d load %d exceeds reconciled lmax %d", b, l, lmax)
		}
	}
}

// TestAdaptiveSessionOverHTTP drives an open-ended session through the
// wire surface: create with n: 0, watch the live estimation state in
// GET status, and read the reconciliation report out of the finish
// summary.
func TestAdaptiveSessionOverHTTP(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	g := oms.GenDelaunay(1500, 3)

	var created struct {
		ID       string `json:"id"`
		K        int32  `json:"k"`
		Adaptive bool   `json:"adaptive"`
	}
	resp := postJSON(t, srv.URL+"/v1/sessions", map[string]any{"k": 8}, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if !created.Adaptive {
		t.Fatal("n: 0 create did not open an adaptive session")
	}

	// Ingest the whole graph as NDJSON.
	body := ndjsonGraph(t, g, 0, g.NumNodes())
	ir, err := http.Post(srv.URL+"/v1/sessions/"+created.ID+"/nodes", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	if ir.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", ir.StatusCode)
	}
	drainAssignments(t, ir, int(g.NumNodes()))

	// Status reports the live estimation state.
	var status struct {
		Adaptive bool `json:"adaptive"`
		Observed struct {
			N int32 `json:"n"`
			M int64 `json:"m"`
		} `json:"observed"`
		Estimated struct {
			N int32 `json:"n"`
		} `json:"estimated"`
		StatsRevision int64 `json:"stats_revision"`
	}
	getJSON(t, srv.URL+"/v1/sessions/"+created.ID, &status)
	if !status.Adaptive {
		t.Fatal("status does not mark the session adaptive")
	}
	if status.Observed.N != g.NumNodes() || status.Observed.M != g.NumEdges() {
		t.Fatalf("observed %+v, want n=%d m=%d", status.Observed, g.NumNodes(), g.NumEdges())
	}
	if status.Estimated.N < status.Observed.N {
		t.Fatalf("projection %d below observed %d", status.Estimated.N, status.Observed.N)
	}
	if status.StatsRevision == 0 {
		t.Fatal("projection never ratcheted")
	}

	// Finish carries the reconciliation report.
	var sum Summary
	resp = postJSON(t, srv.URL+"/v1/sessions/"+created.ID+"/finish", map[string]any{}, &sum)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finish: %d", resp.StatusCode)
	}
	if sum.Adaptive == nil {
		t.Fatal("finish summary carries no adaptive section")
	}
	if sum.Adaptive.ObservedN != g.NumNodes() || sum.Adaptive.ObservedM != g.NumEdges() {
		t.Fatalf("reconciled totals %+v, want n=%d m=%d", sum.Adaptive, g.NumNodes(), g.NumEdges())
	}
	if sum.Adaptive.EstimateErrN < 0 || sum.Adaptive.StatsRevisions == 0 {
		t.Fatalf("implausible reconciliation report %+v", sum.Adaptive)
	}
	if sum.Assigned != g.NumNodes() {
		t.Fatalf("assigned %d, want %d", sum.Assigned, g.NumNodes())
	}
}
