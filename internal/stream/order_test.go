package stream

import (
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
)

func orderTestGraph() *graph.Graph {
	return gen.RMAT(1024, 5000, gen.SocialRMAT, 3)
}

func permIsValid(t *testing.T, perm []int32, n int32) {
	t.Helper()
	if len(perm) != int(n) {
		t.Fatalf("perm length %d != n %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, u := range perm {
		if u < 0 || u >= n || seen[u] {
			t.Fatalf("perm is not a permutation at %d", u)
		}
		seen[u] = true
	}
}

func TestOrderNaturalIsIdentity(t *testing.T) {
	g := orderTestGraph()
	r := NewReordered(g, OrderNatural, 0)
	for i, u := range r.Perm {
		if u != int32(i) {
			t.Fatalf("natural order broken at %d", i)
		}
	}
}

func TestOrderRandomIsSeededPermutation(t *testing.T) {
	g := orderTestGraph()
	a := NewReordered(g, OrderRandom, 7)
	b := NewReordered(g, OrderRandom, 7)
	c := NewReordered(g, OrderRandom, 8)
	permIsValid(t, a.Perm, g.NumNodes())
	same := true
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			t.Fatal("same seed produced different permutations")
		}
		if a.Perm[i] != c.Perm[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical permutations")
	}
	identity := true
	for i, u := range a.Perm {
		if u != int32(i) {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("random order equals natural order")
	}
}

func TestOrderDegreeSorted(t *testing.T) {
	g := orderTestGraph()
	desc := NewReordered(g, OrderDegreeDesc, 0)
	permIsValid(t, desc.Perm, g.NumNodes())
	for i := 1; i < len(desc.Perm); i++ {
		if g.Degree(desc.Perm[i-1]) < g.Degree(desc.Perm[i]) {
			t.Fatal("degree-desc order not non-increasing")
		}
	}
	asc := NewReordered(g, OrderDegreeAsc, 0)
	for i := 1; i < len(asc.Perm); i++ {
		if g.Degree(asc.Perm[i-1]) > g.Degree(asc.Perm[i]) {
			t.Fatal("degree-asc order not non-decreasing")
		}
	}
}

func TestOrderDegreeIsStable(t *testing.T) {
	// Equal degrees keep natural relative order (deterministic streams).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Finish()
	r := NewReordered(g, OrderDegreeDesc, 0)
	want := []int32{0, 1, 2, 3}
	for i := range want {
		if r.Perm[i] != want[i] {
			t.Fatalf("stable sort violated: %v", r.Perm)
		}
	}
}

func TestOrderBFSVisitsNeighborsBeforeStrangers(t *testing.T) {
	// On a path graph, BFS from node 0 is exactly the natural order.
	lists := make([][]int32, 50)
	for i := range lists {
		if i > 0 {
			lists[i] = append(lists[i], int32(i-1))
		}
		if i < len(lists)-1 {
			lists[i] = append(lists[i], int32(i+1))
		}
	}
	g := graph.FromAdjacency(lists)
	r := NewReordered(g, OrderBFS, 0)
	for i, u := range r.Perm {
		if u != int32(i) {
			t.Fatalf("BFS on path diverges at %d: %d", i, u)
		}
	}
}

func TestOrderBFSCoversDisconnected(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4) // node 2 and 5 isolated
	g := b.Finish()
	r := NewReordered(g, OrderBFS, 0)
	permIsValid(t, r.Perm, 6)
}

func TestReorderedForEachDeliversPermOrder(t *testing.T) {
	g := orderTestGraph()
	r := NewReordered(g, OrderDegreeDesc, 0)
	var got []int32
	if err := r.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		got = append(got, u)
		if int32(len(adj)) != g.Degree(u) {
			t.Fatalf("node %d adjacency truncated", u)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != r.Perm[i] {
			t.Fatal("ForEach order differs from Perm")
		}
	}
}

func TestReorderedStatsMatchMemory(t *testing.T) {
	g := orderTestGraph()
	a, err := NewReordered(g, OrderRandom, 1).Stats()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMemory(g).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{
		OrderNatural:    "natural",
		OrderRandom:     "random",
		OrderDegreeDesc: "degree-desc",
		OrderDegreeAsc:  "degree-asc",
		OrderBFS:        "bfs",
		Order(99):       "order(99)",
	} {
		if got := o.String(); got != want {
			t.Fatalf("Order(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestNewReorderedUnknownOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReordered(orderTestGraph(), Order(42), 0)
}
