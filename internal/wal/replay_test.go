package wal

import (
	"os"
	"path/filepath"
	"testing"

	"oms/internal/store"
)

// TestReplaySourceMatchesIngestedStream: the replay source yields the
// exact logged records, in order, as many times as it is read — the
// contract restream passes depend on.
func TestReplaySourceMatchesIngestedStream(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, _ := testStream(t, 500)

	lg, err := st.Create("s1-0000feed", spec(500, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := lg.AppendNodeFrame(framed(r.u, r.w, r.adj, r.ew).Frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}

	src, err := st.ReplaySource("s1-0000feed")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 500 || stats.TotalNodeWeight != 500 {
		t.Fatalf("replay stats %+v", stats)
	}

	// Two full passes must both match the ingested stream exactly.
	for pass := 0; pass < 2; pass++ {
		i := 0
		err := src.ForEach(func(u int32, w int32, adj []int32, ew []int32) {
			r := recs[i]
			if u != r.u || w != r.w || len(adj) != len(r.adj) {
				t.Fatalf("pass %d record %d: got (%d,%d,%d edges), want (%d,%d,%d edges)",
					pass, i, u, w, len(adj), r.u, r.w, len(r.adj))
			}
			for j := range adj {
				if adj[j] != r.adj[j] {
					t.Fatalf("pass %d record %d: adjacency differs at %d", pass, i, j)
				}
			}
			i++
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(recs) {
			t.Fatalf("pass %d visited %d records, want %d", pass, i, len(recs))
		}
	}

	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplaySourceCoversBatchFrames: group-committed batch frames replay
// node by node like everything else.
func TestReplaySourceCoversBatchFrames(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)

	lg, err := st.Create("s1-0000beef", spec(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	// The batch repeats node 1 (clients may retry or repeat nodes; the
	// engine dedups on ingest, but the log keeps the whole batch), and
	// a later per-node record repeats node 0: replay must collapse both
	// to their first occurrence, like the engine's own push semantics.
	nodes := []store.PushNode{
		framed(0, 1, []int32{1}, nil),
		framed(1, 1, []int32{0, 2}, nil),
		framed(1, 1, []int32{0, 2}, nil),
		framed(2, 1, []int32{1}, nil),
	}
	if err := lg.AppendBatch(nodes, []int32{0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendNodeFrame(framed(3, 1, []int32{2}, nil).Frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendNodeFrame(framed(0, 1, []int32{1}, nil).Frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	src, err := st.ReplaySource("s1-0000beef")
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // dedup must reset per pass
		var got []int32
		if err := src.ForEach(func(u int32, _ int32, _ []int32, _ []int32) { got = append(got, u) }); err != nil {
			t.Fatal(err)
		}
		want := []int32{0, 1, 2, 3}
		if len(got) != len(want) {
			t.Fatalf("pass %d replayed %v, want %v", pass, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d replayed %v, want %v", pass, got, want)
			}
		}
	}
}

// TestVersionRoundTripAndRecovery: saved versions come back whole and
// ordered; a torn version file (the crash's bytes) is dropped, never
// served.
func TestVersionRoundTripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, _ := testStream(t, 50)

	lg, err := st.Create("s1-0000cafe", spec(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := lg.AppendNodeFrame(framed(r.u, r.w, r.adj, r.ew).Frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	mkParts := func(fill int32) []int32 {
		p := make([]int32, 50)
		for i := range p {
			p[i] = fill
		}
		return p
	}
	v1 := store.RefinedVersion{Version: 1, Pass: 1, EdgeCut: 42, Parts: mkParts(1)}
	v2 := store.RefinedVersion{Version: 2, Pass: 2, EdgeCut: 17, Parts: mkParts(2)}
	if err := lg.SaveVersion(v1); err != nil {
		t.Fatal(err)
	}
	if err := lg.SaveVersion(v2); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	// Tear version 2 mid-file, as a crash during a (non-atomic) write
	// would; and drop a stale tmp from an interrupted rename dance.
	sdir := filepath.Join(dir, sessionsDir, "s1-0000cafe")
	v2path := filepath.Join(sdir, versionName(2))
	b, err := os.ReadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, versionName(3)+".tmp"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := openStore(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(recovered))
	}
	vs := recovered[0].Versions
	if len(vs) != 1 {
		t.Fatalf("recovered %d versions, want 1 (the torn one dropped)", len(vs))
	}
	if vs[0].Version != 1 || vs[0].Pass != 1 || vs[0].EdgeCut != 42 {
		t.Fatalf("recovered version %+v", vs[0])
	}
	// Recovery carries metadata only; the assignment reloads whole
	// through the log on demand.
	if vs[0].Parts != nil {
		t.Fatalf("recovery materialized %d parts, want metadata only", len(vs[0].Parts))
	}
	lg, _, err = recovered[0].Replay(func(u, w int32, adj, ew []int32, block int32) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	loaded, err := lg.LoadVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Parts) != 50 {
		t.Fatalf("loaded %d parts, want 50", len(loaded.Parts))
	}
	for i, p := range loaded.Parts {
		if p != 1 {
			t.Fatalf("loaded parts[%d] = %d, want 1", i, p)
		}
	}
	if _, err := lg.LoadVersion(2); err == nil {
		t.Fatal("torn version 2 loaded whole")
	}
}
