// Manager-level durability tests: they live in package wal (not
// service) because service's internal tests cannot import wal without a
// cycle, and exercise the full Store wiring — log on push, seal on
// finish, recover by replaying the whole log after a simulated crash.
package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"oms"
	"oms/internal/service"
	"oms/internal/store"
)

// ingestAll pushes recs through a manager session in /nodes chunks of
// 64 and returns the blocks the session acknowledged, in stream order.
func ingestAll(t *testing.T, mgr *service.Manager, s *service.Session, recs []pushRec) []int32 {
	t.Helper()
	const chunk = 64
	acked := make([]int32, 0, len(recs))
	for lo := 0; lo < len(recs); lo += chunk {
		hi := min(lo+chunk, len(recs))
		nodes := make([]store.PushNode, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			nodes = append(nodes, framed(r.u, r.w, r.adj, r.ew))
		}
		blocks, err := s.Ingest(context.Background(), mgr.Pool(), nodes)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, blocks...)
	}
	return acked
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

// finishParts recovers the one session of the store at dir, finishes it
// and returns its assignment.
func finishParts(t *testing.T, dir, id string) []int32 {
	t.Helper()
	mgr := service.NewManager(service.Config{Store: openStore(t, dir)})
	defer mgr.Close()
	if n, err := mgr.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions (err %v), want 1", n, err)
	}
	s, err := mgr.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(context.Background(), mgr.Pool()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res.Parts
}

// countChanged reports how many acknowledged blocks parts does not keep.
func countChanged(parts []int32, acked map[int32]int32) int {
	changed := 0
	for u, b := range acked {
		if parts[u] != b {
			changed++
		}
	}
	return changed
}

// TestRecoveryKeepsAcknowledgedNodesBlocks: recovery replays what a
// /nodes session acknowledged, never a fresh decision. A session logged
// in 64-node chunks is recovered after its spec.json scorer is rewritten
// to hashing, an engine that would place nearly every node elsewhere,
// and every acknowledged block comes back unchanged.
func TestRecoveryKeepsAcknowledgedNodesBlocks(t *testing.T) {
	dir := t.TempDir()
	recs, cfg := testStream(t, 4096)
	st := openStore(t, dir)
	mgr := service.NewManager(service.Config{Store: st})
	s, err := mgr.Create(spec(cfg.Stats.N, cfg.Stats.M))
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	blocks := ingestAll(t, mgr, s, recs)
	mgr.Close()

	path := filepath.Join(st.SessionDir(id), specName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env specEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	env.Spec.Scorer = "hashing"
	if raw, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	acked := make(map[int32]int32, len(recs))
	for i, r := range recs {
		acked[r.u] = blocks[i]
	}
	if n := countChanged(finishParts(t, dir, id), acked); n != 0 {
		t.Fatalf("%d of %d acknowledged blocks changed across recovery", n, len(acked))
	}
}

// legacyID names the session of testdata/legacy-nodes: an unsealed
// /nodes session of 320 nodes (k = 8) of a 384-node Delaunay graph,
// written by the release whose log held one verbatim TypeNode frame per
// freshly assigned node and no block. stream.ndjson holds the whole
// graph as node lines, acked.ndjson the {"u","b"} lines that release
// acknowledged.
const legacyID = "s1-36249bd8"

// readNDJSON decodes every line of one testdata file into a T.
func readNDJSON[T any](t *testing.T, path string) []T {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []T
	dec := json.NewDecoder(f)
	for dec.More() {
		var v T
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// TestLegacyNodeLogRecoversAndContinues: a log of per-node records,
// written before /nodes logged its blocks, recovers every block that
// release acknowledged. The session then takes one more /nodes chunk,
// logged as a group frame with its blocks, and a restart over the log
// holding both record shapes brings back every acknowledged block.
func TestLegacyNodeLogRecoversAndContinues(t *testing.T) {
	const fixture = "testdata/legacy-nodes"
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, sessionsDir, legacyID), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{specName, logName} {
		b, err := os.ReadFile(filepath.Join(fixture, sessionsDir, legacyID, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sessionsDir, legacyID, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var recs []pushRec
	for _, nd := range readNDJSON[store.PushNode](t, filepath.Join(fixture, "stream.ndjson")) {
		recs = append(recs, pushRec{u: nd.U, w: 1, adj: nd.Adj})
	}
	acked := map[int32]int32{}
	for _, a := range readNDJSON[struct{ U, B int32 }](t, filepath.Join(fixture, "acked.ndjson")) {
		acked[a.U] = a.B
	}
	logged := len(acked)

	mgr := service.NewManager(service.Config{Store: openStore(t, dir)})
	if n, err := mgr.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions (err %v), want 1", n, err)
	}
	s, err := mgr.Get(legacyID)
	if err != nil {
		t.Fatal(err)
	}
	// Re-pushing the logged nodes reads their recovered blocks back and
	// logs nothing; the rest of the graph is one more chunk.
	again := ingestAll(t, mgr, s, recs[:logged])
	for i, r := range recs[:logged] {
		if again[i] != acked[r.u] {
			t.Fatalf("node %d recovered in block %d, acknowledged in %d", r.u, again[i], acked[r.u])
		}
	}
	for i, b := range ingestAll(t, mgr, s, recs[logged:]) {
		acked[recs[logged+i].u] = b
	}
	mgr.Close()

	shapes := map[bool]int{} // per-node records (false) and group-frame nodes (true)
	f, err := os.Open(filepath.Join(dir, sessionsDir, legacyID, logName))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = walkLog(f, func(_, _ int32, _, _ []int32, block int32) error {
		shapes[block >= 0]++
		return nil
	}, nil)
	f.Close()
	if err != nil || shapes[false] != logged || shapes[true] != len(recs)-logged {
		t.Fatalf("log holds %d per-node and %d group-frame nodes (err %v), want %d and %d",
			shapes[false], shapes[true], err, logged, len(recs)-logged)
	}
	if n := countChanged(finishParts(t, dir, legacyID), acked); n != 0 {
		t.Fatalf("%d of %d acknowledged blocks changed across the upgrade", n, len(acked))
	}
}
