package stream

import (
	"os"
	"path/filepath"
	"sync"
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

func TestMemoryParallelCoversAll(t *testing.T) {
	g := gen.ErdosRenyi(500, 1500, 3)
	var mu sync.Mutex
	seen := make([]int, 500)
	err := Parallel(NewMemory(g), 4, func(w int, u int32, vwgt int32, adj []int32, ewgt []int32) {
		mu.Lock()
		seen[u]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, c := range seen {
		if c != 1 {
			t.Fatalf("node %d visited %d times", u, c)
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

func TestDiskParallelCoversAll(t *testing.T) {
	g := gen.ErdosRenyi(3000, 9000, 11)
	d := NewDisk(writeTempMetis(t, g))
	var mu sync.Mutex
	seen := make([]int, 3000)
	degs := make([]int, 3000)
	err := Parallel(d, 4, func(w int, u int32, vwgt int32, adj []int32, ewgt []int32) {
		mu.Lock()
		seen[u]++
		degs[u] = len(adj)
		mu.Unlock()
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

func TestDiskParallelSingleThread(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 13)
	d := NewDisk(writeTempMetis(t, g))
	var order []int32
	err := Parallel(d, 1, func(w int, u int32, vwgt int32, adj []int32, ewgt []int32) {
		order = append(order, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range order {
		if u != int32(i) {
			t.Fatal("single-thread parallel pass must preserve order")
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
