package service_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"oms/internal/gen"
	"oms/internal/service"
	"oms/internal/wal"
	"oms/internal/wire"
)

// TestBatchIngestParallelSession: a session's "threads" is accepted and
// ignored. A /batch session created with threads 4 acknowledges the same
// blocks and writes a byte-identical log.wal as one created with
// threads 1, because every batch is assigned in order on one engine
// worker.
func TestBatchIngestParallelSession(t *testing.T) {
	g := gen.RMAT(2048, 10000, gen.SocialRMAT, 7)
	ingest := func(threads int) (acks []int32, log []byte) {
		dir := t.TempDir()
		st, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mgr := service.NewManager(service.Config{Store: st})
		defer mgr.Close()
		s, err := mgr.Create(service.CreateSpec{N: g.NumNodes(), M: g.NumEdges(), K: 16, Seed: 3, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		const batch = 512
		for lo := int32(0); lo < g.NumNodes(); lo += batch {
			nodes := make([]service.PushNode, 0, batch)
			for u := lo; u < min(lo+batch, g.NumNodes()); u++ {
				adj := g.Neighbors(u)
				nodes = append(nodes, service.PushNode{U: u, W: 1, Adj: adj, Frame: wire.AppendNodeFrame(nil, u, 1, adj, nil)})
			}
			blocks, err := s.IngestBatch(ctx, mgr.Pool(), nodes)
			if err != nil {
				t.Fatal(err)
			}
			acks = append(acks, blocks...)
		}
		if _, err := s.Finish(ctx, mgr.Pool()); err != nil {
			t.Fatal(err)
		}
		log, err = os.ReadFile(filepath.Join(dir, "sessions", s.ID, "log.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return acks, log
	}
	acks1, log1 := ingest(1)
	acks4, log4 := ingest(4)
	if !slices.Equal(acks4, acks1) {
		t.Fatal("threads 4 acknowledged different blocks than threads 1")
	}
	if !bytes.Equal(log4, log1) {
		t.Fatalf("threads 4 wrote a different log.wal than threads 1 (%d vs %d bytes)", len(log4), len(log1))
	}
}
