package multilevel

import (
	"errors"
	"math"
	"testing"

	"oms/internal/graph"
	"oms/internal/metrics"
)

// heavyNodes returns a path of n nodes, each of node weight w.
func heavyNodes(n, w int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		b.SetNodeWeight(u, w)
		if u > 0 {
			b.AddEdge(u-1, u)
		}
	}
	return b.Finish()
}

// crossedPairs returns copies of a four-node gadget: a heavy edge holds
// each of {4i, 4i+1} and {4i+2, 4i+3} together, and two edges of weight
// w cross between the pairs, so contracting the pairs merges the crossing
// edges into one of weight 2w.
func crossedPairs(copies, w int32) *graph.Graph {
	b := graph.NewBuilder(4 * copies)
	for i := int32(0); i < copies; i++ {
		a := 4 * i
		b.AddWeightedEdge(a, a+1, math.MaxInt32)
		b.AddWeightedEdge(a+2, a+3, math.MaxInt32)
		b.AddWeightedEdge(a, a+2, w)
		b.AddWeightedEdge(a+1, a+3, w)
	}
	return b.Finish()
}

// TestPartitionSurvivesWeightOverflow: coarse weights that do not fit a
// Graph's int32 weights used to wrap (nodes) or panic in Finish (edges).
// Coarsening now never forms a cluster heavier than math.MaxInt32, so
// heavy nodes still partition; parallel edges that merge past it are an
// error from Partition. Eight crossed nodes stop coarsening at once, so
// the fine graph with its weighted degrees near 2^31 reaches FM, whose
// gain buckets then exceed their budget: FM is skipped, where it used to
// ask for tens of GB.
func TestPartitionSurvivesWeightOverflow(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		k       int32
		wantErr bool
	}{
		// Twelve nodes of 2^30 at k = 2: the cluster cap before the clamp
		// was about 2.2e9, so two nodes formed a cluster of 2^31.
		{"node-weights", heavyNodes(12, 1<<30), 2, false},
		{"edge-weights", crossedPairs(4, 1<<30+1), 2, true},
		{"fm-gain-range", crossedPairs(2, 1<<30+1), 2, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parts, err := Partition(c.g, c.k, Options{Epsilon: 0.03, CoarsestPerBlock: 1})
			if c.wantErr {
				var wo *graph.WeightOverflowError
				if !errors.As(err, &wo) {
					t.Fatalf("err = %v, want a *graph.WeightOverflowError", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if int32(len(parts)) != c.g.NumNodes() {
				t.Fatalf("%d assignments for %d nodes", len(parts), c.g.NumNodes())
			}
			for u, p := range parts {
				if p < 0 || p >= c.k {
					t.Fatalf("node %d on block %d", u, p)
				}
			}
			if err := metrics.CheckBalanced(c.g, parts, c.k, 0.03); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestContractRejectsOverweightNodes: contracting two nodes of 2^30 is a
// coarse node of 2^31, which contract and contractMap report instead of
// wrapping it to a negative weight.
func TestContractRejectsOverweightNodes(t *testing.T) {
	g := heavyNodes(2, 1<<30)
	if _, _, err := contract(g, []int32{1, 0}); err == nil {
		t.Fatal("contract: no error for a coarse node of 2^31")
	}
	if _, err := contractMap(g, []int32{0, 0}, 1); err == nil {
		t.Fatal("contractMap: no error for a coarse node of 2^31")
	}
	// At math.MaxInt32 exactly the coarse node still fits.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.SetNodeWeight(0, 1<<30)
	b.SetNodeWeight(1, math.MaxInt32-1<<30)
	coarse, _, err := contract(b.Finish(), []int32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if w := coarse.NodeWeight(0); w != math.MaxInt32 {
		t.Fatalf("coarse node weighs %d, want %d", w, math.MaxInt32)
	}
}
