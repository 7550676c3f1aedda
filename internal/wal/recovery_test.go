// Manager-level durability tests: they live in package wal (not
// service) because service's internal tests cannot import wal without a
// cycle, and exercise the full Store wiring — log on push, snapshot,
// seal on finish, recover after a simulated crash.
package wal

import (
	"context"
	"testing"

	"oms"
	"oms/internal/service"
)

// ingestAll pushes recs through a manager session in chunks.
func ingestAll(t *testing.T, mgr *service.Manager, s *service.Session, recs []pushRec) {
	t.Helper()
	const chunk = 64
	for lo := 0; lo < len(recs); lo += chunk {
		hi := min(lo+chunk, len(recs))
		nodes := make([]service.PushNode, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			nodes = append(nodes, framed(r.u, r.w, r.adj, r.ew))
		}
		if _, err := s.Ingest(context.Background(), mgr.Pool(), nodes); err != nil {
			t.Fatal(err)
		}
	}
}

// uninterrupted computes the reference assignment: the same stream
// through a plain in-process session.
func uninterrupted(t *testing.T, cfg oms.SessionConfig, recs []pushRec) *oms.Result {
	t.Helper()
	eng, err := oms.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := eng.Push(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestManagerRecoveryResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	recs, cfg := testStream(t, 3000)
	want := uninterrupted(t, cfg, recs)

	// First process: ingest 60% of the stream with a tight snapshot
	// cadence, then crash (Close flushes logs but removes nothing).
	st := openStore(t, dir)
	mgr := service.NewManager(service.Config{Store: st, SnapshotEvery: 500})
	s, err := mgr.Create(spec(cfg.Stats.N, cfg.Stats.M))
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	cut := len(recs) * 3 / 5
	ingestAll(t, mgr, s, recs[:cut])
	mgr.Close()

	// Second process: recover, resume at the exact next node, finish.
	st2 := openStore(t, dir)
	mgr2 := service.NewManager(service.Config{Store: st2, SnapshotEvery: 500})
	defer mgr2.Close()
	n, err := mgr2.RecoverSessions()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	s2, err := mgr2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, mgr2, s2, recs[cut:])
	sum, err := s2.Finish(context.Background(), mgr2.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Assigned != cfg.Stats.N {
		t.Fatalf("finish assigned %d, want %d", sum.Assigned, cfg.Stats.N)
	}
	res, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !equalI32(res.Parts, want.Parts) {
		t.Fatal("resumed assignments differ from the uninterrupted run")
	}
}

func TestManagerRecoveryRebuildsSealedResult(t *testing.T) {
	dir := t.TempDir()
	recs, cfg := testStream(t, 1500)

	st := openStore(t, dir)
	mgr := service.NewManager(service.Config{Store: st})
	s, err := mgr.Create(spec(cfg.Stats.N, cfg.Stats.M))
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
	mgr.Close()

	st2 := openStore(t, dir)
	mgr2 := service.NewManager(service.Config{Store: st2})
	defer mgr2.Close()
	if n, err := mgr2.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions, err %v", n, err)
	}
	s2, err := mgr2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Finished() {
		t.Fatal("recovered session not marked finished")
	}
	res, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.K != want.K || !equalI32(res.Parts, want.Parts) {
		t.Fatal("rebuilt sealed result differs from the original")
	}
	// Pushing into a sealed recovered session must be rejected.
	if _, err := s2.Ingest(context.Background(), mgr2.Pool(), []service.PushNode{{U: 0}}); err == nil {
		t.Fatal("ingest into sealed recovered session succeeded")
	}
}

func TestDeleteGarbageCollectsPersistedState(t *testing.T) {
	dir := t.TempDir()
	recs, cfg := testStream(t, 1000)

	st := openStore(t, dir)
	mgr := service.NewManager(service.Config{Store: st})
	defer mgr.Close()
	s, err := mgr.Create(spec(cfg.Stats.N, cfg.Stats.M))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, mgr, s, recs[:100])
	if err := mgr.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	got, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d sessions survive deletion, want 0", len(got))
	}
}

func TestRecordSessionRecoversByFullReplay(t *testing.T) {
	dir := t.TempDir()
	recs, cfg := testStream(t, 1200)
	cfg.Record = true
	want := uninterrupted(t, cfg, recs)

	st := openStore(t, dir)
	// SnapshotEvery low on purpose: Record sessions must skip
	// checkpoints (their replay buffer cannot be restored from one) and
	// still recover by replaying the whole log.
	mgr := service.NewManager(service.Config{Store: st, SnapshotEvery: 100})
	sp := spec(cfg.Stats.N, cfg.Stats.M)
	sp.Record = true
	s, err := mgr.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	cut := len(recs) / 2
	ingestAll(t, mgr, s, recs[:cut])
	mgr.Close()

	st2 := openStore(t, dir)
	mgr2 := service.NewManager(service.Config{Store: st2})
	defer mgr2.Close()
	if n, err := mgr2.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions, err %v", n, err)
	}
	s2, err := mgr2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, mgr2, s2, recs[cut:])
	sum, err := s2.Finish(context.Background(), mgr2.Pool())
	if err != nil {
		t.Fatal(err)
	}
	// The recorded stream came back too: the finish summary includes
	// stream-computed quality metrics.
	if sum.EdgeCut == nil {
		t.Fatal("recovered Record session lost its replay buffer (no edge cut in summary)")
	}
	res, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !equalI32(res.Parts, want.Parts) {
		t.Fatal("recovered Record session assignments differ from the uninterrupted run")
	}
}

// TestBatchRecoveryPreservesAckedAssignments: batches ingested by a
// parallel session, process killed, recovered — every assignment the
// first process acknowledged must come back verbatim (the WAL's batch
// frames record the decisions, because parallel assignment would not
// replay deterministically), and snapshots mixed with batch frames must
// not double-count.
func TestBatchRecoveryPreservesAckedAssignments(t *testing.T) {
	dir := t.TempDir()
	recs, cfg := testStream(t, 3000)

	st := openStore(t, dir)
	// SnapshotEvery below the batch size, so a checkpoint lands between
	// group-committed frames and recovery replays only the tail.
	mgr := service.NewManager(service.Config{Store: st, SnapshotEvery: 300})
	sp := spec(cfg.Stats.N, cfg.Stats.M)
	sp.Threads = 4
	s, err := mgr.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	cut := len(recs) * 3 / 5
	acked := make(map[int32]int32)
	const batch = 512
	for lo := 0; lo < cut; lo += batch {
		hi := min(lo+batch, cut)
		nodes := make([]service.PushNode, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			nodes = append(nodes, framed(r.u, r.w, r.adj, r.ew))
		}
		blocks, err := s.IngestBatch(context.Background(), mgr.Pool(), nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			acked[nodes[i].U] = b
		}
	}
	mgr.Close()

	st2 := openStore(t, dir)
	mgr2 := service.NewManager(service.Config{Store: st2, SnapshotEvery: 300})
	defer mgr2.Close()
	n, err := mgr2.RecoverSessions()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	s2, err := mgr2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	// Resume with the tail (batch again), finish, and check every acked
	// assignment survived.
	for lo := cut; lo < len(recs); lo += batch {
		hi := min(lo+batch, len(recs))
		nodes := make([]service.PushNode, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			nodes = append(nodes, framed(r.u, r.w, r.adj, r.ew))
		}
		if _, err := s2.IngestBatch(context.Background(), mgr2.Pool(), nodes); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := s2.Finish(context.Background(), mgr2.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Assigned != cfg.Stats.N {
		t.Fatalf("finish assigned %d, want %d", sum.Assigned, cfg.Stats.N)
	}
	res, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) != cut {
		t.Fatalf("acked %d assignments, want %d", len(acked), cut)
	}
	for u, b := range acked {
		if res.Parts[u] != b {
			t.Fatalf("node %d recovered as %d, client was acknowledged %d", u, res.Parts[u], b)
		}
	}
}
