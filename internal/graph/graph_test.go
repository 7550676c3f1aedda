package graph

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"oms/internal/util"
)

// path5 returns the path 0-1-2-3-4.
func path5() *Graph {
	b := NewBuilder(5)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Finish()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Finish()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedNodes(t *testing.T) {
	g := NewBuilder(10).Finish()
	if g.NumNodes() != 10 || g.NumEdges() != 0 {
		t.Fatalf("got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.TotalNodeWeight() != 10 {
		t.Fatalf("total node weight %d", g.TotalNodeWeight())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPathGraph(t *testing.T) {
	g := path5()
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees wrong: d(0)=%d d(2)=%d", g.Degree(0), g.Degree(2))
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 4) {
		t.Fatal("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2)
	g := b.Finish()
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelEdgesMerged(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	g := b.Finish()
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d want 1", g.NumEdges())
	}
	// Merged weight must be 3.
	if g.AdjWgt == nil {
		t.Fatal("expected explicit weights after merge")
	}
	if w := g.EdgeWeights(0)[0]; w != 3 {
		t.Fatalf("merged weight %d want 3", w)
	}
	if g.TotalEdgeWeight() != 3 {
		t.Fatalf("total edge weight %d want 3", g.TotalEdgeWeight())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitWeightsImplicit(t *testing.T) {
	g := path5()
	if g.AdjWgt != nil {
		t.Fatal("unit graph should not materialize AdjWgt")
	}
	if g.VWgt != nil {
		t.Fatal("unit graph should not materialize VWgt")
	}
	if g.TotalEdgeWeight() != 4 {
		t.Fatalf("total edge weight %d", g.TotalEdgeWeight())
	}
}

func TestWeightedEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 2, 7)
	g := b.Finish()
	if g.TotalEdgeWeight() != 12 {
		t.Fatalf("total edge weight %d want 12", g.TotalEdgeWeight())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.SetNodeWeight(2, 10)
	g := b.Finish()
	if g.NodeWeight(0) != 1 || g.NodeWeight(2) != 10 {
		t.Fatalf("node weights wrong: %d %d", g.NodeWeight(0), g.NodeWeight(2))
	}
	if g.TotalNodeWeight() != 12 {
		t.Fatalf("total %d want 12", g.TotalNodeWeight())
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { NewBuilder(2).AddEdge(0, 2) },
		func() { NewBuilder(2).AddEdge(-1, 0) },
		func() { NewBuilder(2).AddWeightedEdge(0, 1, 0) },
		func() { NewBuilder(2).SetNodeWeight(0, -1) },
		func() { NewBuilder(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	g := b.Finish()
	adj := g.Neighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]int32{{1, 2}, {0, 2}, {0, 1}})
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle wrong: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	g := path5()
	c := g.Clone()
	c.Adjncy[0] = 99
	if g.Adjncy[0] == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &Graph{
		Xadj:   []int64{0, 1, 1},
		Adjncy: []int32{1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric graph passed validation")
	}
}

func TestValidateCatchesSelfLoop(t *testing.T) {
	g := &Graph{
		Xadj:   []int64{0, 1},
		Adjncy: []int32{0},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("self loop passed validation")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	g := &Graph{
		Xadj:   []int64{0, 1, 2},
		Adjncy: []int32{5, 0},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range neighbor passed validation")
	}
}

func TestBuilderRandomGraphsValid(t *testing.T) {
	// Property: any edge multiset the builder accepts yields a valid graph
	// whose edge count equals the number of distinct non-loop pairs.
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int32(nRaw%50) + 2
		m := int(mRaw % 500)
		rng := util.NewRNG(seed)
		b := NewBuilder(n)
		distinct := map[[2]int32]bool{}
		for i := 0; i < m; i++ {
			u := int32(rng.Intn(int(n)))
			v := int32(rng.Intn(int(n)))
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				distinct[[2]int32{u, v}] = true
			}
		}
		g := b.Finish()
		if g.Validate() != nil {
			return false
		}
		return g.NumEdges() == int64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderMatchesReference: for random edge multisets mixing unit and
// weighted edges, Build produces exactly the CSR arrays of a naive
// reference (sorted distinct neighbours, weights summed), with AdjWgt
// present only when some edge weighs more than 1.
func TestBuilderMatchesReference(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16, weighted bool) bool {
		n := int32(nRaw%40) + 1
		m := int(mRaw % 400)
		rng := util.NewRNG(seed)
		b := NewBuilder(n)
		sum := map[[2]int32]int64{}
		for i := 0; i < m; i++ {
			u, v, w := int32(rng.Intn(int(n))), int32(rng.Intn(int(n))), int32(1)
			if weighted && rng.Intn(4) == 0 {
				w = int32(1 + rng.Intn(9))
			}
			b.AddWeightedEdge(u, v, w)
			if u != v {
				sum[[2]int32{u, v}] += int64(w)
				sum[[2]int32{v, u}] += int64(w)
			}
		}
		g, err := b.Build()
		if err != nil || g.Validate() != nil {
			return false
		}
		heavy := false
		for _, w := range sum {
			heavy = heavy || w > 1
		}
		if heavy != (g.AdjWgt != nil) {
			return false
		}
		var arcs int64
		for u := int32(0); u < n; u++ {
			if g.Xadj[u] != arcs {
				return false
			}
			for v := int32(0); v < n; v++ {
				w, ok := sum[[2]int32{u, v}]
				if !ok {
					continue
				}
				if g.Adjncy[arcs] != v || (heavy && int64(g.AdjWgt[arcs]) != w) {
					return false
				}
				arcs++
			}
		}
		return g.Xadj[n] == arcs && int64(len(g.Adjncy)) == arcs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderLateWeightKeepsEarlierUnitEdges(t *testing.T) {
	b := NewBuilder(4)
	b.Reserve(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddWeightedEdge(2, 3, 6)
	g := b.Finish()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeWeights(1); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("node 1 weights %v, want [1 1]", got)
	}
	if g.TotalEdgeWeight() != 8 {
		t.Fatalf("total edge weight %d want 8", g.TotalEdgeWeight())
	}
}

func TestBuildReportsWeightOverflow(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, math.MaxInt32-1)
	b.AddEdge(1, 0) // sums to exactly MaxInt32: still representable
	b.AddWeightedEdge(2, 1, math.MaxInt32)
	b.AddWeightedEdge(1, 2, 1)
	_, err := b.Build()
	var ov *WeightOverflowError
	if !errors.As(err, &ov) || ov.U != 1 || ov.V != 2 {
		t.Fatalf("Build error %v, want overflow of edge {1,2}", err)
	}

	b = NewBuilder(2)
	b.AddWeightedEdge(0, 1, math.MaxInt32-1)
	b.AddEdge(1, 0)
	if g := b.Finish(); g.EdgeWeights(0)[0] != math.MaxInt32 {
		t.Fatalf("merged weight %d want %d", g.EdgeWeights(0)[0], math.MaxInt32)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Finish did not panic on an overflowing merge")
		}
	}()
	b = NewBuilder(2)
	b.AddWeightedEdge(0, 1, math.MaxInt32)
	b.AddWeightedEdge(0, 1, math.MaxInt32)
	b.Finish()
}

func TestValidateCatchesNonPositiveWeight(t *testing.T) {
	for _, w := range []int32{0, -2} {
		g := &Graph{
			Xadj:   []int64{0, 1, 2},
			Adjncy: []int32{1, 0},
			AdjWgt: []int32{w, w},
		}
		if err := g.Validate(); err == nil {
			t.Fatalf("edge weight %d passed validation", w)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Square 0-1-2-3-0 with diagonal 0-2.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 2)
	g := b.Finish()
	sub := g.InducedSubgraph([]int32{0, 1, 2})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced triangle wrong: n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 4)
	b.AddWeightedEdge(1, 2, 9)
	b.SetNodeWeight(1, 7)
	g := b.Finish()
	sub := g.InducedSubgraph([]int32{1, 2})
	if sub.TotalEdgeWeight() != 9 {
		t.Fatalf("sub edge weight %d want 9", sub.TotalEdgeWeight())
	}
	if sub.NodeWeight(0) != 7 {
		t.Fatalf("sub node weight %d want 7", sub.NodeWeight(0))
	}
}

func TestInducedSubgraphEmpty(t *testing.T) {
	g := path5()
	sub := g.InducedSubgraph(nil)
	if sub.NumNodes() != 0 {
		t.Fatal("empty induced subgraph not empty")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionNodeSets(t *testing.T) {
	parts := []int32{0, 1, 0, 2, 1}
	sets := PartitionNodeSets(parts, 3)
	want := [][]int32{{0, 2}, {1, 4}, {3}}
	for b := range want {
		if len(sets[b]) != len(want[b]) {
			t.Fatalf("block %d: %v want %v", b, sets[b], want[b])
		}
		for i := range want[b] {
			if sets[b][i] != want[b][i] {
				t.Fatalf("block %d: %v want %v", b, sets[b], want[b])
			}
		}
	}
}

func TestStats(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Finish()
	s := ComputeStats(g)
	if s.MaxDegree != 3 || s.MinDegree != 0 || s.Isolated != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.AvgDegree != 1.2 {
		t.Fatalf("avg degree %v want 1.2", s.AvgDegree)
	}
}

func TestMaxDegree(t *testing.T) {
	g := path5()
	if g.MaxDegree() != 2 {
		t.Fatalf("max degree %d want 2", g.MaxDegree())
	}
}

func TestStatsEmpty(t *testing.T) {
	s := ComputeStats(NewBuilder(0).Finish())
	if s.N != 0 || s.M != 0 {
		t.Fatalf("stats on empty graph: %+v", s)
	}
}
