// Manager-level durability tests: they live in package wal (not
// service) because service's internal tests cannot import wal without a
// cycle, and exercise the full Store wiring — log on push, seal on
// finish, recover by replaying the whole log after a simulated crash.
package wal

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"oms"
	"oms/internal/service"
	"oms/internal/store"
)

// ingestAll pushes recs through a manager session in chunks.
func ingestAll(t *testing.T, mgr *service.Manager, s *service.Session, recs []pushRec) {
	t.Helper()
	const chunk = 64
	for lo := 0; lo < len(recs); lo += chunk {
		hi := min(lo+chunk, len(recs))
		nodes := make([]store.PushNode, 0, hi-lo)
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

	// First process: ingest 60% of the stream, then crash (Close flushes
	// logs but removes nothing).
	st := openStore(t, dir)
	mgr := service.NewManager(service.Config{Store: st})
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
	mgr2 := service.NewManager(service.Config{Store: st2})
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
	if _, err := s2.Ingest(context.Background(), mgr2.Pool(), []store.PushNode{{U: 0}}); err == nil {
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
	// The recovered session must rebuild its server-side stream copy
	// from the replayed log, not just its assignments.
	mgr := service.NewManager(service.Config{Store: st})
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
// session created with "threads": 4 (accepted and ignored), process
// killed, recovered — every assignment the first process acknowledged
// must come back verbatim (the WAL's batch frames record the decisions,
// and recovery replays them rather than re-scoring the stream).
func TestBatchRecoveryPreservesAckedAssignments(t *testing.T) {
	dir := t.TempDir()
	recs, cfg := testStream(t, 3000)

	st := openStore(t, dir)
	mgr := service.NewManager(service.Config{Store: st})
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
		nodes := make([]store.PushNode, 0, hi-lo)
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
	mgr2 := service.NewManager(service.Config{Store: st2})
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
		nodes := make([]store.PushNode, 0, hi-lo)
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

// TestFailedRecoveryLeavesLogUntouched: recovery cuts a log only after
// a replay that read it to a clean stop. Two crashed logs, each still
// running on into its zero tail, fail to come back: one logs a node id
// past its spec's n, so the engine refuses it mid-replay; the other
// declares an n over the server's node cap, so it is rejected before
// replay. Both files stay byte-identical, and a later, permissive
// recovery gets every record back.
func TestFailedRecoveryLeavesLogUntouched(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	const badID, bigID = "s1-0000bad1", "s2-0000b162"
	for _, c := range []struct {
		id   string
		n    int32
		last int32
	}{{badID, 8, 9}, {bigID, 1000, 2}} {
		slg, err := st.Create(c.id, spec(c.n, 8))
		if err != nil {
			t.Fatal(err)
		}
		lg := slg.(*Log)
		for _, u := range []int32{0, 1, c.last} {
			if err := lg.AppendNodeFrame(framed(u, 1, []int32{(u + 1) % 2}, nil).Frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := lg.Flush(); err != nil {
			t.Fatal(err)
		}
		lg.f.Close() // crash: the zero tail stays
	}
	raw := map[string][]byte{}
	for _, id := range []string{badID, bigID} {
		b, err := os.ReadFile(st.LogPath(id))
		if err != nil {
			t.Fatal(err)
		}
		raw[id] = b
	}

	mgr := service.NewManager(service.Config{Store: openStore(t, dir), MaxNodes: 100})
	if n, err := mgr.RecoverSessions(); n != 0 || err == nil {
		t.Fatalf("recovered %d sessions (err %v), want 0 and an error", n, err)
	}
	mgr.Close()
	for id, want := range raw {
		if got, err := os.ReadFile(st.LogPath(id)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: failed recovery changed its log (%d bytes, was %d; %v)", id, len(got), len(want), err)
		}
	}

	recs, err := openStore(t, dir).Recover()
	if err != nil || len(recs) != 2 {
		t.Fatalf("permissive recovery found %d sessions (%v), want 2", len(recs), err)
	}
	for _, rec := range recs {
		rl, _, replayed := replayAll(t, rec)
		if replayed != 3 || rl.Nodes() != 3 || fileSize(t, st, rec.ID) != rl.Flushed() {
			t.Fatalf("%s: replayed %d, log holds %d nodes at offset %d of a %d-byte file; want 3 records and the zero tail cut",
				rec.ID, replayed, rl.Nodes(), rl.Flushed(), fileSize(t, st, rec.ID))
		}
		rl.Close()
	}
	mgr2 := service.NewManager(service.Config{Store: openStore(t, dir)})
	defer mgr2.Close()
	if n, err := mgr2.RecoverSessions(); n != 1 {
		t.Fatalf("recovery under the default node cap brought back %d sessions (err %v), want %s", n, err, bigID)
	}
	if _, err := mgr2.Get(bigID); err != nil {
		t.Fatal(err)
	}
}

// TestIngestWritesOnlyTheLog: the log is a session's only durable state.
// A session ingested in 64-node chunks, fsynced chunk by chunk, then
// finished, leaves exactly its spec and its log on disk — no file beside
// the log appears or grows during ingest.
func TestIngestWritesOnlyTheLog(t *testing.T) {
	recs, cfg := testStream(t, 1<<14)
	st := openStore(t, t.TempDir()) // SyncInterval 0: fsync every chunk
	mgr := service.NewManager(service.Config{Store: st})
	defer mgr.Close()
	s, err := mgr.Create(spec(cfg.Stats.N, cfg.Stats.M))
	if err != nil {
		t.Fatal(err)
	}
	sizes := func() map[string]int64 {
		t.Helper()
		entries, err := os.ReadDir(st.SessionDir(s.ID))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64, len(entries))
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = fi.Size()
		}
		return out
	}
	created := sizes()
	for lo := 0; lo < len(recs); lo += 64 {
		ingestAll(t, mgr, s, recs[lo:min(lo+64, len(recs))])
		for name, size := range sizes() {
			if was, ok := created[name]; name != logName && (!ok || size != was) {
				t.Fatalf("after %d nodes: %s is %d bytes, was %d at create", min(lo+64, len(recs)), name, size, was)
			}
		}
	}
	if _, err := s.Finish(context.Background(), mgr.Pool()); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range sizes() {
		names = append(names, name)
	}
	slices.Sort(names)
	if !slices.Equal(names, []string{logName, specName}) {
		t.Fatalf("session directory holds %v, want only %s and %s", names, logName, specName)
	}
}

// BenchmarkRecoverSession measures recovery of one unsealed RGG session
// logged in 64-node chunks: a fresh manager over the store replays the
// whole log, reported per logged node.
func BenchmarkRecoverSession(b *testing.B) {
	for _, logN := range []int{17, 20} {
		b.Run(fmt.Sprintf("rgg-2^%d", logN), func(b *testing.B) {
			g := oms.GenRGG2D(int32(1)<<logN, 1)
			dir := b.TempDir()
			st, err := Open(dir, Options{SyncInterval: 100 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			mgr := service.NewManager(service.Config{Store: st})
			s, err := mgr.Create(store.CreateSpec{N: g.NumNodes(), M: g.NumEdges(), K: 8})
			if err != nil {
				b.Fatal(err)
			}
			chunk := make([]store.PushNode, 0, 64)
			for u := range g.NumNodes() {
				chunk = append(chunk, framed(u, 1, g.Neighbors(u), nil))
				if len(chunk) == cap(chunk) || u == g.NumNodes()-1 {
					if _, err := s.Ingest(context.Background(), mgr.Pool(), chunk); err != nil {
						b.Fatal(err)
					}
					chunk = chunk[:0]
				}
			}
			mgr.Close()

			b.ResetTimer()
			for range b.N {
				st, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				mgr := service.NewManager(service.Config{Store: st})
				if n, err := mgr.RecoverSessions(); err != nil || n != 1 {
					b.Fatalf("recovered %d sessions (err %v), want 1", n, err)
				}
				b.StopTimer()
				mgr.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumNodes()), "ns/node")
		})
	}
}
