package oms

import (
	"bufio"
	"os"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/graphio"
	"oms/internal/stream"
)

// Graph is an undirected graph in compressed-sparse-row form: no self
// loops, no parallel edges, int32 node weights, positive int32 edge
// weights (nil weight slices mean all ones).
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph; it symmetrizes input,
// drops self loops and merges parallel edges by summing their weights.
// Finish (or Build, which returns an error where Finish panics: merged
// weights past math.MaxInt32) runs in O(n + m) time with no comparison
// sort and a constant number of allocations.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph with n nodes; building it
// costs O(n + m) for m added edges.
func NewBuilder(n int32) *Builder { return graph.NewBuilder(n) }

// FromAdjacency builds a Graph from plain adjacency lists (unit weights).
func FromAdjacency(lists [][]int32) *Graph { return graph.FromAdjacency(lists) }

// MemorySource streams an in-memory graph in natural node order. It is
// restartable, so it also serves multi-pass restreaming.
type MemorySource = stream.Memory

// NewMemorySource wraps g as a streaming source.
func NewMemorySource(g *Graph) *MemorySource { return stream.NewMemory(g) }

// DiskSource streams a METIS-format graph file without loading it into
// memory: the streaming partitioners then run in O(n + k) memory total,
// the regime the paper targets.
type DiskSource = stream.Disk

// NewDiskSource streams the METIS file at path.
func NewDiskSource(path string) *DiskSource { return stream.NewDisk(path) }

// ReadMetisFile loads a whole METIS-format graph into memory.
func ReadMetisFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graphio.ReadMetis(bufio.NewReaderSize(f, 1<<20))
}

// ReadEdgeListFile loads a SNAP-style edge list ("u v [w]" per line,
// '#'/'%' comments, arbitrary node ids): the format the paper's
// benchmark instances are distributed in before conversion. Ids are
// compacted to 0..n-1 in first-appearance order (preserving the file's
// stream locality); the returned map translates original ids.
func ReadEdgeListFile(path string) (*Graph, map[int64]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return graphio.ReadEdgeList(bufio.NewReaderSize(f, 1<<20))
}

// WriteMetisFile writes g in METIS format (the paper's vertex-stream
// format: header "n m", one adjacency line per node, 1-based ids).
func WriteMetisFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := graphio.WriteMetis(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The Gen* functions are seeded synthetic graph generators covering the
// instance families of the paper's benchmark set (Table 1); they back the
// reproduction experiments and make the examples self-contained. All are
// deterministic for a fixed seed.

// GenRGG2D generates a random geometric graph: n points in the unit
// square, edges below Euclidean distance 0.55*sqrt(ln n / n) (the paper's
// rggX construction). Nodes are emitted in a spatially sorted order.
func GenRGG2D(n int32, seed uint64) *Graph { return gen.RandomGeometric(n, 0.55, seed) }

// GenDelaunay generates the Delaunay triangulation of n random points in
// the unit square (the paper's delX construction).
func GenDelaunay(n int32, seed uint64) *Graph { return gen.Delaunay(n, seed) }

// GenGrid2D generates a rows x cols mesh; diag adds one diagonal per
// cell, giving the connectivity character of FEM triangle meshes.
func GenGrid2D(rows, cols int32, diag bool) *Graph { return gen.Grid2D(rows, cols, diag) }

// GenGrid3D generates an x*y*z hexahedral mesh.
func GenGrid3D(x, y, z int32) *Graph { return gen.Grid3D(x, y, z) }

// GenRMATSocial generates an RMAT graph with the skewed parameters of
// social networks and web crawls (heavy-tailed degrees, weak locality).
func GenRMATSocial(n int32, m int64, seed uint64) *Graph {
	return gen.RMAT(n, m, gen.SocialRMAT, seed)
}

// GenRMATCitation generates an RMAT graph with milder skew, matching
// citation and co-purchasing networks.
func GenRMATCitation(n int32, m int64, seed uint64) *Graph {
	return gen.RMAT(n, m, gen.CitationRMAT, seed)
}

// GenBarabasiAlbert generates a preferential-attachment graph where each
// new node attaches deg edges.
func GenBarabasiAlbert(n, deg int32, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, deg, seed)
}

// GenWattsStrogatz generates a ring lattice with kHalf neighbors per side
// and rewiring probability beta: mostly local wiring with few long links,
// the connectivity character of circuits.
func GenWattsStrogatz(n, kHalf int32, beta float64, seed uint64) *Graph {
	return gen.WattsStrogatz(n, kHalf, beta, seed)
}

// GenRoadLike generates a bounded-degree planar-ish network with the
// character of road graphs: long paths, tiny separators.
func GenRoadLike(n int32, avgDeg float64, seed uint64) *Graph {
	return gen.RoadLike(n, avgDeg, seed)
}

// GenErdosRenyi generates a uniform random graph with n nodes and about
// m edges (unstructured control instance).
func GenErdosRenyi(n int32, m int64, seed uint64) *Graph {
	return gen.ErdosRenyi(n, m, seed)
}
