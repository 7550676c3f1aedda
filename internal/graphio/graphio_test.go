package graphio

import (
	"bytes"
	"strings"
	"testing"

	"oms/internal/graph"
	"oms/internal/util"
)

func triangle() *graph.Graph {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	return b.Finish()
}

func randomGraph(n int32, m int, seed uint64) *graph.Graph {
	rng := util.NewRNG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(int(n))), int32(rng.Intn(int(n))))
	}
	return b.Finish()
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := int32(0); u < a.NumNodes(); u++ {
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
		if a.NodeWeight(u) != b.NodeWeight(u) {
			return false
		}
		wa, wb := a.EdgeWeights(u), b.EdgeWeights(u)
		for i := range na {
			va, vb := int32(1), int32(1)
			if wa != nil {
				va = wa[i]
			}
			if wb != nil {
				vb = wb[i]
			}
			if va != vb {
				return false
			}
		}
	}
	return true
}

func TestParseHeaderBasic(t *testing.T) {
	h, err := ParseHeader("10 20")
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 10 || h.M != 20 || h.HasEdgeWeights || h.HasNodeWeights {
		t.Fatalf("header %+v", h)
	}
}

func TestParseHeaderFmtCodes(t *testing.T) {
	cases := []struct {
		code   string
		ew, nw bool
	}{
		{"0", false, false}, {"1", true, false}, {"10", false, true},
		{"11", true, true}, {"011", true, true}, {"000", false, false},
		{"001", true, false}, {"010", false, true},
	}
	for _, c := range cases {
		h, err := ParseHeader("5 4 " + c.code)
		if err != nil {
			t.Fatalf("code %q: %v", c.code, err)
		}
		if h.HasEdgeWeights != c.ew || h.HasNodeWeights != c.nw {
			t.Fatalf("code %q: got ew=%v nw=%v", c.code, h.HasEdgeWeights, h.HasNodeWeights)
		}
	}
}

func TestParseHeaderErrors(t *testing.T) {
	for _, line := range []string{"", "5", "x y", "5 -1", "5 4 2", "5 4 01x", "5 4 011 2"} {
		if _, err := ParseHeader(line); err == nil {
			t.Errorf("header %q accepted", line)
		}
	}
}

func TestReadMetisTriangle(t *testing.T) {
	in := "% a comment\n3 3\n2 3\n1 3\n1 2\n"
	g, err := ReadMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, triangle()) {
		t.Fatal("triangle mismatch")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMetisWeighted(t *testing.T) {
	// fmt 011: node weights then (neighbor, edge weight) pairs.
	in := "3 2 011\n5 2 7\n1 1 7 3 9\n2 2 9\n"
	g, err := ReadMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeWeight(0) != 5 || g.NodeWeight(1) != 1 || g.NodeWeight(2) != 2 {
		t.Fatalf("node weights: %d %d %d", g.NodeWeight(0), g.NodeWeight(1), g.NodeWeight(2))
	}
	if g.TotalEdgeWeight() != 16 {
		t.Fatalf("edge weight total %d want 16", g.TotalEdgeWeight())
	}
}

func TestReadMetisIsolated(t *testing.T) {
	in := "3 1\n2\n1\n\n"
	g, err := ReadMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 || g.Degree(2) != 0 {
		t.Fatalf("got %v", g)
	}
}

func TestReadMetisErrors(t *testing.T) {
	cases := []string{
		"3 1\n2\n",           // truncated
		"2 1\n3\n1\n",        // neighbor out of range
		"2 1\n0\n1\n",        // neighbor zero (1-indexed format)
		"2 1 1\n2\n1\n",      // missing edge weight
		"2 1 10\nx 2\n1 1\n", // bad node weight
		"2 1 1\n2 0\n1 0\n",  // non-positive edge weight
	}
	// An overstated edge header ("2 5\n2\n1\n") is tolerated per the
	// reader contract (some public instances have such headers);
	// understating is the error, covered below.
	for _, in := range cases {
		if _, err := ReadMetis(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadMetisHeaderUnderstatesEdges(t *testing.T) {
	in := "3 1\n2 3\n1 3\n1 2\n" // 3 actual edges, header claims 1
	if _, err := ReadMetis(strings.NewReader(in)); err == nil {
		t.Fatal("understated header accepted")
	}
}

func TestMetisRoundTrip(t *testing.T) {
	g := randomGraph(100, 400, 17)
	var buf bytes.Buffer
	if err := WriteMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("METIS round trip mismatch")
	}
}

func TestMetisRoundTripWeighted(t *testing.T) {
	rng := util.NewRNG(3)
	b := graph.NewBuilder(50)
	for i := 0; i < 200; i++ {
		b.AddWeightedEdge(int32(rng.Intn(50)), int32(rng.Intn(50)), int32(rng.Intn(9))+1)
	}
	for u := int32(0); u < 50; u++ {
		b.SetNodeWeight(u, int32(rng.Intn(5))+1)
	}
	g := b.Finish()
	var buf bytes.Buffer
	if err := WriteMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("weighted METIS round trip mismatch")
	}
}

func TestMetisRoundTripEmptyAndIsolated(t *testing.T) {
	for _, g := range []*graph.Graph{graph.NewBuilder(0).Finish(), graph.NewBuilder(7).Finish()} {
		var buf bytes.Buffer
		if err := WriteMetis(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadMetis(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, g2) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestScannerStreamsNodes(t *testing.T) {
	g := randomGraph(60, 150, 5)
	var buf bytes.Buffer
	if err := WriteMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	sc, err := NewMetisScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var count int32
	for sc.Next() {
		if sc.Node() != count {
			t.Fatalf("node id %d want %d", sc.Node(), count)
		}
		adj, _ := sc.Adjacency()
		want := g.Neighbors(count)
		if len(adj) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", count, len(adj), len(want))
		}
		for i := range adj {
			if adj[i] != want[i] {
				t.Fatalf("node %d neighbor %d: %d want %d", count, i, adj[i], want[i])
			}
		}
		count++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if count != g.NumNodes() {
		t.Fatalf("scanned %d nodes want %d", count, g.NumNodes())
	}
}

func TestScannerCommentsAndBlank(t *testing.T) {
	// Blank body lines encode isolated nodes; comments are skipped.
	in := "% c1\n\n3 1\n% mid\n2\n\n% tail\n1\n"
	sc, err := NewMetisScanner(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	degs := []int{}
	for sc.Next() {
		adj, _ := sc.Adjacency()
		degs = append(degs, len(adj))
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(degs) != 3 || degs[0] != 1 || degs[1] != 0 || degs[2] != 1 {
		t.Fatalf("degrees %v, want [1 0 1]", degs)
	}
}
