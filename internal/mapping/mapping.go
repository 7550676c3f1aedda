// Package mapping implements offline (in-memory) process mapping: the
// recursive multi-section of Schulz–Träff and Kirchbach et al. applied
// with the in-memory multilevel partitioner, plus the swap-based local
// search of Brandfass et al. on the block communication graph. It plays
// the role of the paper's IntMap comparator (§4.1): an integrated
// partition-and-map tool with full-graph access — the best mapping
// quality in the evaluation, at the highest running time and memory cost,
// and sequential only.
package mapping

import (
	"sort"

	"oms/internal/graph"
	"oms/internal/hierarchy"
)

// BlockEdge is one weighted adjacency entry of the block communication
// graph. Weights are int64 because a single block pair can accumulate the
// weight of millions of graph edges.
type BlockEdge struct {
	To int32
	W  int64
}

// BlockGraph is the communication graph between blocks: node b is the set
// of graph nodes assigned to block b, and an edge {a,b} carries the total
// weight of graph edges running between the two sets.
type BlockGraph struct {
	K   int32
	Adj [][]BlockEdge
}

// BuildBlockGraph condenses a k-way partition of g into its block
// communication graph. parts values must lie in [0,k). Each adjacency
// list is sorted by To, so the graph (and the swap order that walks it)
// does not depend on map iteration.
func BuildBlockGraph(g *graph.Graph, parts []int32, k int32) *BlockGraph {
	acc := make([]map[int32]int64, k)
	n := g.NumNodes()
	for u := int32(0); u < n; u++ {
		bu := parts[u]
		adj := g.Neighbors(u)
		ew := g.EdgeWeights(u)
		for i, v := range adj {
			if v <= u {
				continue
			}
			bv := parts[v]
			if bu == bv {
				continue
			}
			w := int64(1)
			if ew != nil {
				w = int64(ew[i])
			}
			if acc[bu] == nil {
				acc[bu] = make(map[int32]int64)
			}
			if acc[bv] == nil {
				acc[bv] = make(map[int32]int64)
			}
			acc[bu][bv] += w
			acc[bv][bu] += w
		}
	}
	bg := &BlockGraph{K: k, Adj: make([][]BlockEdge, k)}
	for b := int32(0); b < k; b++ {
		m := acc[b]
		if len(m) == 0 {
			continue
		}
		edges := make([]BlockEdge, 0, len(m))
		for to, w := range m {
			edges = append(edges, BlockEdge{To: to, W: w})
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].To < edges[j].To })
		bg.Adj[b] = edges
	}
	return bg
}

// CostJ evaluates the mapping objective J on the block graph for the
// block-to-PE assignment pe (each undirected block pair counted once,
// matching metrics.MappingCost).
func (bg *BlockGraph) CostJ(top *hierarchy.Topology, pe []int32) float64 {
	var cost float64
	for a := int32(0); a < bg.K; a++ {
		for _, e := range bg.Adj[a] {
			if e.To <= a {
				continue
			}
			cost += float64(float64(e.W) * top.PEDistance(pe[a], pe[e.To]))
		}
	}
	return cost
}

// Identity returns the identity block-to-PE assignment of length k: block
// b runs on PE b. This is how flat partitioners (Fennel, Hashing,
// KaMinPar) are evaluated for the mapping objective — they ignore the
// hierarchy, exactly as the paper describes.
func Identity(k int32) []int32 {
	pe := make([]int32, k)
	for i := range pe {
		pe[i] = int32(i)
	}
	return pe
}

// Apply composes a node partition with a block-to-PE assignment in place:
// parts[u] becomes pe[parts[u]].
func Apply(parts []int32, pe []int32) {
	for u := range parts {
		parts[u] = pe[parts[u]]
	}
}
