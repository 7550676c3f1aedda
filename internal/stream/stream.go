// Package stream provides the one-pass node sources consumed by the
// streaming partitioners: nodes arrive one at a time together with their
// adjacency list (the paper's one-pass model, §2.1) either from an
// in-memory CSR graph or from a file on disk.
//
// A Source only streams in order. Parallel is the one place a pass fans
// out over shared-memory workers (§3.4), and it decides from the source
// itself: the sources that hold their nodes (Memory, Reordered, Buffer)
// split into contiguous worker ranges, and every other source, a file
// above all, runs one in-order pass on worker 0. A file's parse is
// sequential and the bound of its pass, so it runs ahead of that pass on
// a core of its own through DecodeAhead, the one producer/consumer
// pipeline for reading files.
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

// Source is a restartable one-pass node stream: ForEach performs one
// full pass in stream order, one node at a time. Parallel fans a pass
// out over workers where the source allows it.
type Source interface {
	Stats() (Stats, error)
	ForEach(fn Visitor) error
}

// indexed is implemented by the sources that hold their nodes: node(i)
// is the i-th node of a pass, for i in [0, Len()).
type indexed interface {
	Len() int
	node(i int) (u int32, vwgt int32, adj []int32, ewgt []int32)
}

// Parallel performs one full pass of src with up to threads workers.
// With threads <= 1 it is src.ForEach on worker 0. Over Memory,
// Reordered and Buffer, workers visit disjoint contiguous ranges of the
// pass concurrently, the vertex-centric scheme of §3.4. Any other source
// is one in-order pass on worker 0 whatever threads asks for: its nodes
// exist only as they are decoded, and the decode already runs ahead of
// the pass on a core of its own, so its output equals the sequential
// pass bit for bit.
func Parallel(src Source, threads int, fn ParallelVisitor) error {
	if s, ok := src.(indexed); ok && threads > 1 {
		util.ParallelFor(s.Len(), threads, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				u, vwgt, adj, ewgt := s.node(i)
				fn(worker, u, vwgt, adj, ewgt)
			}
		})
		return nil
	}
	return src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		fn(0, u, vwgt, adj, ewgt)
	})
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
	for i := range m.Len() {
		fn(m.node(i))
	}
	return nil
}

// Len returns the number of nodes in a pass.
func (m *Memory) Len() int { return int(m.G.NumNodes()) }

func (m *Memory) node(i int) (int32, int32, []int32, []int32) {
	g, u := m.G, int32(i)
	return u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u)
}
