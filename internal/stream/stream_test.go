package stream

import (
	"os"
	"path/filepath"
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/graphio"
)

func writeTempMetis(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.metis")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteMetis(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func collectSeq(t *testing.T, s Source) ([]int32, [][]int32) {
	t.Helper()
	var ids []int32
	var adjs [][]int32
	err := s.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		ids = append(ids, u)
		adjs = append(adjs, append([]int32(nil), adj...))
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids, adjs
}

func TestMemoryStats(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 1)
	s, err := NewMemory(g).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 100 || s.M != g.NumEdges() || s.TotalNodeWeight != 100 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMemorySequentialOrder(t *testing.T) {
	g := gen.ErdosRenyi(50, 120, 2)
	ids, adjs := collectSeq(t, NewMemory(g))
	if len(ids) != 50 {
		t.Fatalf("visited %d nodes", len(ids))
	}
	for i, u := range ids {
		if u != int32(i) {
			t.Fatalf("order broken at %d: %d", i, u)
		}
		want := g.Neighbors(u)
		if len(adjs[i]) != len(want) {
			t.Fatalf("node %d adjacency mismatch", u)
		}
	}
}

func TestDiskMatchesMemory(t *testing.T) {
	g := gen.RandomGeometric(200, 0.55, 7)
	path := writeTempMetis(t, g)
	d := NewDisk(path)
	ids, adjs := collectSeq(t, d)
	if len(ids) != int(g.NumNodes()) {
		t.Fatalf("visited %d nodes want %d", len(ids), g.NumNodes())
	}
	for i, u := range ids {
		want := g.Neighbors(u)
		if len(adjs[i]) != len(want) {
			t.Fatalf("node %d: %d neighbors want %d", u, len(adjs[i]), len(want))
		}
		for j := range want {
			if adjs[i][j] != want[j] {
				t.Fatalf("node %d neighbor %d mismatch", u, j)
			}
		}
	}
}

func TestDiskStats(t *testing.T) {
	g := gen.ErdosRenyi(80, 200, 9)
	d := NewDisk(writeTempMetis(t, g))
	s, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 80 || s.M != g.NumEdges() {
		t.Fatalf("stats %+v", s)
	}
	// Second call uses the cache.
	s2, err := d.Stats()
	if err != nil || s2 != s {
		t.Fatal("cached stats differ")
	}
}

func TestDiskStatsWeighted(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 4)
	b.AddWeightedEdge(1, 2, 6)
	b.SetNodeWeight(0, 5)
	g := b.Finish()
	d := NewDisk(writeTempMetis(t, g))
	s, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalNodeWeight != 7 {
		t.Fatalf("node weight %d want 7", s.TotalNodeWeight)
	}
	if s.TotalEdgeWeight != 10 {
		t.Fatalf("edge weight %d want 10", s.TotalEdgeWeight)
	}
}

// TestDiskParallelCoversAll: a pass whose parse runs ahead on its own
// goroutine and hands the visitor several ring batches still visits
// every node once with its whole adjacency.
func TestDiskParallelCoversAll(t *testing.T) {
	g := gen.ErdosRenyi(3000, 9000, 11)
	d := NewDisk(writeTempMetis(t, g))
	seen := make([]int, 3000)
	degs := make([]int, 3000)
	err := d.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		seen[u]++
		degs[u] = len(adj)
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := range seen {
		if seen[u] != 1 {
			t.Fatalf("node %d visited %d times", u, seen[u])
		}
		if degs[u] != int(g.Degree(int32(u))) {
			t.Fatalf("node %d degree %d want %d", u, degs[u], g.Degree(int32(u)))
		}
	}
}

// TestDiskParallelSingleThread: the parse runs ahead on a goroutine of
// its own, but the visitor runs on one, in file order.
func TestDiskParallelSingleThread(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 13)
	d := NewDisk(writeTempMetis(t, g))
	var order []int32
	err := d.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		order = append(order, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("visited %d nodes, want 100", len(order))
	}
	for i, u := range order {
		if u != int32(i) {
			t.Fatal("the pass must visit the nodes in file order")
		}
	}
}

func TestDiskMissingFile(t *testing.T) {
	d := NewDisk("/nonexistent/file.metis")
	if _, err := d.Stats(); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := d.ForEach(func(int32, int32, []int32, []int32) {}); err == nil {
		t.Fatal("missing file accepted by ForEach")
	}
}

func TestDiskEdgeWeightsStreamed(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 9)
	b.AddWeightedEdge(1, 2, 2)
	g := b.Finish()
	d := NewDisk(writeTempMetis(t, g))
	var got []int32
	err := d.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		if u == 1 {
			got = append([]int32(nil), ewgt...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 9 || got[1] != 2 {
		t.Fatalf("edge weights %v want [9 2]", got)
	}
}
