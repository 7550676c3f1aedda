package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"oms"
	"oms/internal/gen"
	"oms/internal/store"
	"oms/internal/wal"
	"oms/internal/wire"
)

// legacyStatsLogFrame is a type-4 frame of the given payload size. At 81
// bytes it is the stats-revision frame adaptive logs carried before the
// logged nodes became the estimator's only record: the type byte, then
// ten little-endian int64 estimator fields. The fields here are far from
// any state the test session reaches, so a recovery that applied them
// would diverge.
func legacyStatsLogFrame(size int) []byte {
	payload := []byte{wire.TypeStats}
	for i := int64(0); len(payload)+8 <= size; i++ {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(1<<30+i))
	}
	payload = append(payload, make([]byte, size-len(payload))...)
	return wire.AppendFrame(nil, payload)
}

// TestLegacyStatsFramesAreReadPast: an adaptive log with legacy stats
// frames between its batch frames recovers to the same status and the
// same later assignments as the same log with the frames cut out. A
// type-4 frame of 80 or 82 payload bytes is no such frame: the walk
// ends there like at a torn tail, and the session recovers the batches
// before it.
func TestLegacyStatsFramesAreReadPast(t *testing.T) {
	ctx := context.Background()
	g := gen.RMAT(1500, 6000, gen.SocialRMAT, 5)
	n := g.NumNodes()
	const chunk, logged = 250, 1000
	spec := store.CreateSpec{K: 8, Adaptive: true, Seed: 1}
	nodes := func(lo, hi int32) []store.PushNode {
		out := make([]store.PushNode, 0, hi-lo)
		for u := lo; u < hi; u++ {
			adj := g.Neighbors(u)
			out = append(out, store.PushNode{U: u, W: 1, Adj: adj, Frame: wire.AppendNodeFrame(nil, u, 1, adj, nil)})
		}
		return out
	}
	// push sends [lo, n) in chunks, alternating the two ingest routes.
	push := func(mgr *Manager, s *Session, lo int32) []int32 {
		var acks []int32
		for i := 0; lo < n; i++ {
			hi := min(lo+chunk, n)
			ingest := s.Ingest
			if i%2 == 1 {
				ingest = s.IngestBatch
			}
			blocks, err := ingest(ctx, mgr.Pool(), nodes(lo, hi))
			if err != nil {
				t.Fatal(err)
			}
			acks = append(acks, blocks...)
			lo = hi
		}
		return acks
	}

	// The log as ingest writes it: one batch frame per job, nothing else.
	src := t.TempDir()
	st, err := wal.Open(src, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := testManager(t, Config{Store: st})
	s, err := mgr.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	for lo := int32(0); lo < logged; lo += chunk {
		if _, err := s.Ingest(ctx, mgr.Pool(), nodes(lo, lo+chunk)); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Close()
	sessionDir := filepath.Join(src, "sessions", id)
	specJSON, err := os.ReadFile(filepath.Join(sessionDir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(sessionDir, "log.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for rd := wire.NewReader(bytes.NewReader(written)); ; {
		payload, frame, err := rd.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != wire.TypeBatch {
			t.Fatalf("ingest wrote a frame of type %d", payload[0])
		}
		frames = append(frames, bytes.Clone(frame))
	}
	if len(frames) != logged/chunk {
		t.Fatalf("log holds %d frames, want %d batch frames", len(frames), logged/chunk)
	}

	type status struct {
		assigned, k int32
		lmax        int64
		info        oms.AdaptiveInfo
	}
	// recoverLog recovers the session from log bytes in a fresh store and
	// returns it with its status and the recovered log's size on disk.
	recoverLog := func(log []byte) (*Manager, *Session, status, int64) {
		dir := t.TempDir()
		sd := filepath.Join(dir, "sessions", id)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sd, "spec.json"), specJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sd, "log.wal"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mgr := testManager(t, Config{Store: st})
		if got, err := mgr.RecoverSessions(); got != 1 || err != nil {
			t.Fatalf("recovered %d sessions: %v", got, err)
		}
		s, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		info, ok := s.eng.AdaptiveInfo()
		if !ok {
			t.Fatal("recovered session is not adaptive")
		}
		fi, err := os.Stat(filepath.Join(sd, "log.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return mgr, s, status{s.eng.Assigned(), s.K(), s.Lmax(), info}, fi.Size()
	}
	// sameRun recovers both logs and checks equal status, equal later
	// assignments and equal results after finish.
	sameRun := func(name string, got, want []byte) int32 {
		gm, gs, gst, _ := recoverLog(got)
		wm, ws, wst, _ := recoverLog(want)
		if gst != wst {
			t.Fatalf("%s: recovered status %+v, want %+v", name, gst, wst)
		}
		if !slices.Equal(push(gm, gs, gst.assigned), push(wm, ws, wst.assigned)) {
			t.Fatalf("%s: later assignments differ", name)
		}
		if _, err := gs.Finish(ctx, gm.Pool()); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Finish(ctx, wm.Pool()); err != nil {
			t.Fatal(err)
		}
		gr, err := gs.Result()
		if err != nil {
			t.Fatal(err)
		}
		wr, err := ws.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gr.Parts, wr.Parts) || gr.Lmax != wr.Lmax {
			t.Fatalf("%s: finished results differ", name)
		}
		return gst.assigned
	}

	var withStats []byte
	for _, fr := range frames {
		withStats = append(withStats, fr...)
		withStats = append(withStats, legacyStatsLogFrame(81)...)
	}
	if got := sameRun("legacy stats frames", withStats, written); got != logged {
		t.Fatalf("recovered at node %d, want %d", got, logged)
	}

	const kept = 2
	prefix := slices.Concat(frames[:kept]...)
	for _, size := range []int{80, 82} {
		log := slices.Concat(append([][]byte{prefix, legacyStatsLogFrame(size)}, frames[kept:]...)...)
		if got := sameRun("stats frame of the wrong size", log, prefix); got != kept*chunk {
			t.Fatalf("%d-byte stats frame: recovered at node %d, want %d", size, got, kept*chunk)
		}
		if _, _, _, end := recoverLog(log); end != int64(len(prefix)) {
			t.Fatalf("%d-byte stats frame: recovery kept %d log bytes, want the %d before it", size, end, len(prefix))
		}
	}
}
