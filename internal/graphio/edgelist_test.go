package graphio

import (
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# SNAP-style comment
% matrix-market-style comment
0 1
1 2
2 0
`
	g, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle parsed as n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if len(ids) != 3 {
		t.Fatalf("id map size %d", len(ids))
	}
}

func TestReadEdgeListCompactsSparseIDs(t *testing.T) {
	in := "1000000 5\n5 70000\n"
	g, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("n=%d, want 3", g.NumNodes())
	}
	// First-appearance order: 1000000 -> 0, 5 -> 1, 70000 -> 2.
	if ids[1000000] != 0 || ids[5] != 1 || ids[70000] != 2 {
		t.Fatalf("compaction order wrong: %v", ids)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("edges misplaced after compaction")
	}
}

func TestReadEdgeListDropsSelfLoopsAndMergesDuplicates(t *testing.T) {
	in := "0 0\n1 2\n2 1\n1 2\n"
	g, _, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 exists (interned) but is isolated; the 1-2 edge appears once.
	if g.NumNodes() != 3 {
		t.Fatalf("n=%d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d, want 1", g.NumEdges())
	}
	if g.Degree(0) != 0 {
		t.Fatal("self-loop created an edge")
	}
}

func TestReadEdgeListWeights(t *testing.T) {
	in := "0 1 5\n1 2 7\n0 1 2\n"
	g, _, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate edges merge by summing: 5 + 2 = 7.
	adj := g.Neighbors(0)
	ew := g.EdgeWeights(0)
	if len(adj) != 1 || ew == nil || ew[0] != 7 {
		t.Fatalf("weight merge wrong: adj=%v ew=%v", adj, ew)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for name, in := range map[string]string{
		"one field":       "42\n",
		"negative-ish id": "a b\n",
		"bad weight":      "0 1 x\n",
		"zero weight":     "0 1 0\n",
		"weight overflow": "0 1 1073741824\n1 0 1073741824\n",
	} {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted %q", name, in)
		}
	}
}

func TestReadEdgeListNamesOverflowingEdge(t *testing.T) {
	in := "7 40 3\n40 90 1073741824\n90 40 1073741824\n"
	_, _, err := ReadEdgeList(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "edge {40,90}") {
		t.Fatalf("error %v, want one naming edge {40,90}", err)
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	g, ids, err := ReadEdgeList(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || len(ids) != 0 {
		t.Fatal("empty input produced nodes")
	}
}

func TestReadEdgeListValidAfterParse(t *testing.T) {
	in := "3 7\n7 9\n9 3\n3 9\n11 3\n"
	g, _, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
