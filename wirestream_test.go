package oms

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"oms/internal/wire"
)

// TestWireStreamRoundTrip: a graph written as a wire-stream file and
// partitioned through NewWireSource produces exactly the in-memory
// result — the file is a faithful transport of the stream.
func TestWireStreamRoundTrip(t *testing.T) {
	g := GenDelaunay(2000, 11)
	path := filepath.Join(t.TempDir(), "g.omsw")
	if err := WriteWireFile(path, g); err != nil {
		t.Fatal(err)
	}

	src := NewWireSource(path)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.N != g.NumNodes() || st.M != g.NumEdges() {
		t.Fatalf("stats %+v, want n=%d m=%d", st, g.NumNodes(), g.NumEdges())
	}

	want, err := PartitionGraph(g, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Partition(src, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := range want.Parts {
		if want.Parts[u] != got.Parts[u] {
			t.Fatalf("node %d: wire-stream part %d, in-memory part %d", u, got.Parts[u], want.Parts[u])
		}
	}
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

// TestIngestLoopsStayAllocationFree: the two per-node ingest loops — a
// plain Session.Push stream, and omsd's binary route in miniature
// (wire.Reader.NextNode → Session.Push → Arena.Reset) — allocate at
// most 0.05 times per node over a whole stream, the session created
// beforehand. The slack is warm-up (decode buffers, engine scratch
// growing to the largest degree seen) amortised over the stream; an
// allocation per node in either loop reads about 1.
func TestIngestLoopsStayAllocationFree(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := GenRMATSocial(20000, 160000, 7)
	n := g.NumNodes()
	var stream bytes.Buffer
	if err := WriteWireStream(&stream, g); err != nil {
		t.Fatal(err)
	}

	push := func(s *Session) error {
		for u := int32(0); u < n; u++ {
			if _, err := s.Push(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u)); err != nil {
				return err
			}
		}
		return nil
	}
	decodeAndPush := func(s *Session) error {
		rd := wire.NewReader(bytes.NewReader(stream.Bytes()))
		if _, err := readWireHeader(rd); err != nil {
			return err
		}
		for {
			nd, _, err := rd.NextNode()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if _, err := s.Push(nd.U, nd.W, nd.Adj, nd.EW); err != nil {
				return err
			}
			rd.Arena.Reset()
		}
	}

	for _, loop := range []struct {
		name   string
		ingest func(*Session) error
	}{{"push", push}, {"wire", decodeAndPush}} {
		s, err := NewSession(SessionConfig{
			Stats: StreamStats{
				N: n, M: g.NumEdges(),
				TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
			},
			K: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = loop.ingest(s)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", loop.name, err)
		}
		perNode := float64(after.Mallocs-before.Mallocs) / float64(n)
		t.Logf("%s: %.4f allocs/node", loop.name, perNode)
		if perNode > 0.05 {
			t.Errorf("%s loop: %.3f allocs/node, want <= 0.05", loop.name, perNode)
		}
	}
}
