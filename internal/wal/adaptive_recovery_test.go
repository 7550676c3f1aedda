package wal

import (
	"context"
	"testing"

	"oms"
	"oms/internal/service"
	"oms/internal/store"
)

// adaptiveSpec is the open-ended wire spec: no n, no m.
func adaptiveSpec() store.CreateSpec {
	return store.CreateSpec{Adaptive: true, K: 8}
}

// adaptiveTwin opens the in-process reference for a persisted service
// session: a Record adaptive session records its stream and runs the
// same finish-time reconcile pass the service runs over its sealed
// log, with the same retained headroom.
func adaptiveTwin(t *testing.T) *oms.Session {
	t.Helper()
	eng, err := oms.NewSession(oms.SessionConfig{K: 8, Adaptive: true, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestAdaptiveRecoveryResumesByteIdentical is the adaptive durability
// acceptance at the store level: an open-ended session crashes
// mid-stream, recovery restores the estimator trajectory (whole-log
// replay rebuilds it from the logged nodes), and every subsequent
// assignment matches an uncrashed twin bit for bit — through the finish-time reconcile pass
// over the sealed log.
func TestAdaptiveRecoveryResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	recs, _ := testStream(t, 3000)

	twin := adaptiveTwin(t)

	st := openStore(t, dir)
	mgr := service.NewManager(service.Config{Store: st})
	s, err := mgr.Create(adaptiveSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	cut := len(recs) * 3 / 5
	ingestAll(t, mgr, s, recs[:cut])
	for _, r := range recs[:cut] {
		if _, err := twin.Push(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Close() // crash: logs flushed, nothing removed

	st2 := openStore(t, dir)
	mgr2 := service.NewManager(service.Config{Store: st2})
	defer mgr2.Close()
	if n, err := mgr2.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions (err %v), want 1", n, err)
	}
	s2, err := mgr2.Get(id)
	if err != nil {
		t.Fatal(err)
	}

	// Resume the remaining stream; every assignment must match the
	// uncrashed twin — possible only if the recovered estimator ratchets
	// at the exact same instants.
	for lo := cut; lo < len(recs); lo += 64 {
		hi := min(lo+64, len(recs))
		nodes := make([]store.PushNode, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			nodes = append(nodes, framed(r.u, r.w, r.adj, r.ew))
		}
		got, err := s2.Ingest(context.Background(), mgr2.Pool(), nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs[lo:hi] {
			want, err := twin.Push(r.u, r.w, r.adj, r.ew)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("node %d: recovered session assigned %d, twin %d", r.u, got[i], want)
			}
		}
	}

	// Finish both: the service runs its reconcile pass over the sealed
	// log, the twin over its recorded buffer — same stream, same walk.
	sum, err := s2.Finish(context.Background(), mgr2.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Adaptive == nil {
		t.Fatal("finish summary carries no adaptive reconciliation")
	}
	twinRes, err := twin.Finish()
	if err != nil {
		t.Fatal(err)
	}
	twinInfo, _ := twin.AdaptiveInfo()
	if sum.Adaptive.ObservedN != twinInfo.Observed.N ||
		sum.Adaptive.ObservedM != twinInfo.Observed.M ||
		sum.Adaptive.ObservedNodeWeight != twinInfo.Observed.TotalNodeWeight {
		t.Fatalf("observed totals diverged: %+v vs %+v", sum.Adaptive, twinInfo.Observed)
	}
	res, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != len(twinRes.Parts) {
		t.Fatalf("result covers %d nodes, twin %d", len(res.Parts), len(twinRes.Parts))
	}
	for u := range res.Parts {
		if res.Parts[u] != twinRes.Parts[u] {
			t.Fatalf("node %d: reconciled result %d, twin %d", u, res.Parts[u], twinRes.Parts[u])
		}
	}
}

// TestAdaptiveSealedRecoveryReproducesResult: a crash after finish must
// bring the reconciled adaptive result back byte-identically (replay,
// finish, reconcile pass — all deterministic from the sealed log).
func TestAdaptiveSealedRecoveryReproducesResult(t *testing.T) {
	dir := t.TempDir()
	recs, _ := testStream(t, 2000)

	st := openStore(t, dir)
	mgr := service.NewManager(service.Config{Store: st})
	s, err := mgr.Create(adaptiveSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	ingestAll(t, mgr, s, recs)
	if _, err := s.Finish(context.Background(), mgr.Pool()); err != nil {
		t.Fatal(err)
	}
	want, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantParts := append([]int32(nil), want.Parts...)
	mgr.Close()

	st2 := openStore(t, dir)
	mgr2 := service.NewManager(service.Config{Store: st2})
	defer mgr2.Close()
	if n, err := mgr2.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions (err %v), want 1", n, err)
	}
	s2, err := mgr2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parts) != len(wantParts) {
		t.Fatalf("recovered result covers %d nodes, want %d", len(got.Parts), len(wantParts))
	}
	for u := range wantParts {
		if got.Parts[u] != wantParts[u] {
			t.Fatalf("node %d: recovered %d, want %d", u, got.Parts[u], wantParts[u])
		}
	}
}
