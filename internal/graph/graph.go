// Package graph provides the compressed-sparse-row (CSR) graph
// representation used throughout the OMS codebase, together with a
// symmetrizing/deduplicating builder, induced subgraphs, validation, and
// degree statistics.
//
// The model follows the paper's preliminaries (§2.1): undirected graphs
// without self loops or parallel edges, non-negative integer node weights
// and positive integer edge weights. Node ids are int32 (the paper's
// largest instance has 7.7M nodes), CSR offsets are int64 (edges counted
// with both directions can exceed 2^31).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is an undirected graph in CSR form. Adjacency of node u is
// Adjncy[Xadj[u]:Xadj[u+1]], with parallel edge weights in AdjWgt. Both
// directions of every undirected edge are stored. The zero value is an
// empty graph.
type Graph struct {
	// Xadj has length NumNodes()+1; Xadj[0] == 0.
	Xadj []int64
	// Adjncy holds neighbor ids; length 2*NumEdges().
	Adjncy []int32
	// AdjWgt holds edge weights parallel to Adjncy. A nil AdjWgt means
	// all edges have weight 1 (the common case for the paper's instances;
	// keeping it implicit halves memory traffic).
	AdjWgt []int32
	// VWgt holds node weights. A nil VWgt means all nodes weigh 1.
	VWgt []int32

	totalVWgt int64 // cached; 0 means "not computed yet"
	totalEWgt int64
}

// NumNodes returns n.
func (g *Graph) NumNodes() int32 { return int32(len(g.Xadj) - 1) }

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.Adjncy)) / 2 }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int32) int32 {
	return int32(g.Xadj[u+1] - g.Xadj[u])
}

// Neighbors returns the neighbor slice of u. The slice aliases the graph's
// storage and must not be modified.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.Adjncy[g.Xadj[u]:g.Xadj[u+1]]
}

// EdgeWeights returns the edge-weight slice parallel to Neighbors(u), or
// nil if the graph is unit-weighted.
func (g *Graph) EdgeWeights(u int32) []int32 {
	if g.AdjWgt == nil {
		return nil
	}
	return g.AdjWgt[g.Xadj[u]:g.Xadj[u+1]]
}

// NodeWeight returns c(u).
func (g *Graph) NodeWeight(u int32) int32 {
	if g.VWgt == nil {
		return 1
	}
	return g.VWgt[u]
}

// TotalNodeWeight returns c(V). The value is computed once and cached.
func (g *Graph) TotalNodeWeight() int64 {
	if g.totalVWgt == 0 {
		if g.VWgt == nil {
			g.totalVWgt = int64(g.NumNodes())
		} else {
			var s int64
			for _, w := range g.VWgt {
				s += int64(w)
			}
			g.totalVWgt = s
		}
	}
	return g.totalVWgt
}

// TotalEdgeWeight returns omega(E), counting each undirected edge once.
func (g *Graph) TotalEdgeWeight() int64 {
	if g.totalEWgt == 0 {
		if g.AdjWgt == nil {
			g.totalEWgt = g.NumEdges()
		} else {
			var s int64
			for _, w := range g.AdjWgt {
				s += int64(w)
			}
			g.totalEWgt = s / 2
		}
	}
	return g.totalEWgt
}

// MaxDegree returns Delta(G), or 0 for the empty graph.
func (g *Graph) MaxDegree() int32 {
	var d int32
	for u := int32(0); u < g.NumNodes(); u++ {
		if dd := g.Degree(u); dd > d {
			d = dd
		}
	}
	return d
}

// HasEdge reports whether {u,v} is an edge, via binary search if the
// adjacency is sorted and linear scan otherwise.
func (g *Graph) HasEdge(u, v int32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return true
	}
	// The builder always sorts, but be robust to hand-built graphs.
	for _, w := range adj {
		if w == v {
			return true
		}
	}
	return false
}

// Validate checks structural invariants: monotone Xadj, neighbor ids in
// range, no self loops, positive edge weights, symmetric adjacency with
// matching weights, sorted neighbor lists without duplicates. It is
// O(m log d) and intended for tests and after-IO checks, not hot paths.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if n < 0 {
		return errors.New("graph: negative node count")
	}
	if len(g.Xadj) == 0 {
		return errors.New("graph: missing Xadj")
	}
	if g.Xadj[0] != 0 {
		return errors.New("graph: Xadj[0] != 0")
	}
	for u := int32(0); u < n; u++ {
		if g.Xadj[u+1] < g.Xadj[u] {
			return fmt.Errorf("graph: Xadj not monotone at node %d", u)
		}
	}
	if g.Xadj[n] != int64(len(g.Adjncy)) {
		return fmt.Errorf("graph: Xadj[n]=%d != len(Adjncy)=%d", g.Xadj[n], len(g.Adjncy))
	}
	if g.AdjWgt != nil && len(g.AdjWgt) != len(g.Adjncy) {
		return errors.New("graph: AdjWgt length mismatch")
	}
	if g.VWgt != nil && len(g.VWgt) != int(n) {
		return errors.New("graph: VWgt length mismatch")
	}
	for i, w := range g.AdjWgt {
		if w <= 0 {
			return fmt.Errorf("graph: non-positive edge weight %d at arc %d", w, i)
		}
	}
	for u := int32(0); u < n; u++ {
		adj := g.Neighbors(u)
		for i, v := range adj {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self loop at node %d", u)
			}
			if i > 0 && adj[i-1] >= v {
				return fmt.Errorf("graph: adjacency of node %d not sorted/unique at %d", u, i)
			}
		}
	}
	// Symmetry with matching weights.
	for u := int32(0); u < n; u++ {
		adj := g.Neighbors(u)
		w := g.EdgeWeights(u)
		for i, v := range adj {
			radj := g.Neighbors(v)
			j := sort.Search(len(radj), func(j int) bool { return radj[j] >= u })
			if j >= len(radj) || radj[j] != u {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", u, v)
			}
			if g.AdjWgt != nil {
				if rw := g.EdgeWeights(v); w[i] != rw[j] {
					return fmt.Errorf("graph: edge {%d,%d} weight mismatch %d vs %d", u, v, w[i], rw[j])
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Xadj:   append([]int64(nil), g.Xadj...),
		Adjncy: append([]int32(nil), g.Adjncy...),
	}
	if g.AdjWgt != nil {
		c.AdjWgt = append([]int32(nil), g.AdjWgt...)
	}
	if g.VWgt != nil {
		c.VWgt = append([]int32(nil), g.VWgt...)
	}
	return c
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.NumNodes(), g.NumEdges())
}
