// Package stream provides the one-pass node sources consumed by the
// streaming partitioners: nodes arrive one at a time together with their
// adjacency list (the paper's one-pass model, §2.1) either from an
// in-memory CSR graph or from a file on disk.
//
// A Source only streams in order, and every pass visits its nodes on the
// caller's goroutine. A file's parse is sequential and the bound of its
// pass, so it runs ahead of that pass on a core of its own through
// DecodeAhead, the one producer/consumer pipeline for reading files.
package stream

import "oms/internal/graph"

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

// Source is a restartable one-pass node stream: ForEach performs one
// full pass in stream order, one node at a time.
type Source interface {
	Stats() (Stats, error)
	ForEach(fn Visitor) error
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
	for u := range g.NumNodes() {
		fn(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
	}
	return nil
}
