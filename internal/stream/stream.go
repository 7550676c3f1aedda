// Package stream provides the one-pass node sources consumed by the
// streaming partitioners: nodes arrive one at a time together with their
// adjacency list (the paper's one-pass model, §2.1) either from an
// in-memory CSR graph or from a METIS file on disk, sequentially or
// split across shared-memory workers (§3.4).
package stream

import (
	"oms/internal/graph"
	"oms/internal/util"
)

// Stats carries the global quantities a one-pass partitioner must know
// before streaming: they size the balance constraint Lmax and Fennel's
// alpha. For files these come from the header (plus one pre-pass when the
// file carries node weights).
type Stats struct {
	N               int32
	M               int64
	TotalNodeWeight int64
	TotalEdgeWeight int64
}

// Visitor receives one streamed node: its id, weight, neighbors, and
// parallel edge weights (nil = all ones). The adjacency slices are only
// valid during the call.
type Visitor func(u int32, vwgt int32, adj []int32, ewgt []int32)

// ParallelVisitor additionally receives the worker index (for per-worker
// scratch state).
type ParallelVisitor func(worker int, u int32, vwgt int32, adj []int32, ewgt []int32)

// Source is a restartable one-pass node stream. ForEach and
// ForEachParallel each perform one full pass in natural node order
// (parallel passes interleave workers over disjoint contiguous ranges).
type Source interface {
	Stats() (Stats, error)
	ForEach(fn Visitor) error
	ForEachParallel(threads int, fn ParallelVisitor) error
}

// Memory streams an in-memory CSR graph. It implements Source.
type Memory struct {
	G *graph.Graph
}

// NewMemory wraps g.
func NewMemory(g *graph.Graph) *Memory { return &Memory{G: g} }

// Stats implements Source.
func (m *Memory) Stats() (Stats, error) {
	return Stats{
		N:               m.G.NumNodes(),
		M:               m.G.NumEdges(),
		TotalNodeWeight: m.G.TotalNodeWeight(),
		TotalEdgeWeight: m.G.TotalEdgeWeight(),
	}, nil
}

// ForEach implements Source.
func (m *Memory) ForEach(fn Visitor) error {
	g := m.G
	n := g.NumNodes()
	for u := int32(0); u < n; u++ {
		fn(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
	}
	return nil
}

// ForEachParallel implements Source: workers process disjoint contiguous
// node ranges concurrently, the vertex-centric scheme of §3.4.
func (m *Memory) ForEachParallel(threads int, fn ParallelVisitor) error {
	g := m.G
	n := int(g.NumNodes())
	util.ParallelFor(n, threads, func(worker, lo, hi int) {
		for u := int32(lo); u < int32(hi); u++ {
			fn(worker, u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
		}
	})
	return nil
}
