package stream

import (
	"testing"

	"oms/internal/gen"
)

// recordStream replays src into a fresh Buffer, as a push session does.
func recordStream(t *testing.T, src Source) *Buffer {
	t.Helper()
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(st)
	if err := src.ForEach(b.Append); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBufferReplaysArrivalOrder(t *testing.T) {
	g := gen.Delaunay(2000, 7)
	mem := NewMemory(g)
	buf := recordStream(t, mem)
	if len(buf.ids) != int(g.NumNodes()) {
		t.Fatalf("recorded %d nodes, want %d", len(buf.ids), g.NumNodes())
	}
	st, _ := buf.Stats()
	if st.N != g.NumNodes() || st.M != g.NumEdges() {
		t.Fatalf("stats %+v do not match graph (n=%d m=%d)", st, g.NumNodes(), g.NumEdges())
	}

	var next int32
	err := buf.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		if u != next {
			t.Fatalf("replay out of order: got %d want %d", u, next)
		}
		if vwgt != g.NodeWeight(u) {
			t.Fatalf("node %d weight %d, want %d", u, vwgt, g.NodeWeight(u))
		}
		want := g.Neighbors(u)
		if len(adj) != len(want) {
			t.Fatalf("node %d degree %d, want %d", u, len(adj), len(want))
		}
		for i := range adj {
			if adj[i] != want[i] {
				t.Fatalf("node %d neighbor %d: got %d want %d", u, i, adj[i], want[i])
			}
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != g.NumNodes() {
		t.Fatalf("replayed %d nodes, want %d", next, g.NumNodes())
	}
}

func TestBufferBackfillsEdgeWeights(t *testing.T) {
	b := NewBuffer(Stats{N: 3, M: 3, TotalNodeWeight: 3, TotalEdgeWeight: 4})
	b.Append(0, 1, []int32{1, 2}, nil)
	b.Append(1, 1, []int32{0, 2}, []int32{1, 2})
	b.Append(2, 1, []int32{0, 1}, nil)
	want := [][]int32{{1, 1}, {1, 2}, {1, 1}}
	i := 0
	_ = b.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		if ewgt == nil {
			t.Fatalf("node %d: weights not backfilled", u)
		}
		for j := range ewgt {
			if ewgt[j] != want[i][j] {
				t.Fatalf("node %d edge %d weight %d, want %d", u, j, ewgt[j], want[i][j])
			}
		}
		i++
	})
}
