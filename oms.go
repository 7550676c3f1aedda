// Package oms is a shared-memory streaming graph partitioner and process
// mapper: a from-scratch Go implementation of "Recursive Multi-Section on
// the Fly: Shared-Memory Streaming Algorithms for Hierarchical Graph
// Partitioning and Process Mapping" (Faraj & Schulz, IEEE CLUSTER 2022).
//
// The core algorithm, online recursive multi-section (OMS), assigns every
// node of a streamed graph to its permanent block in a single pass: when
// a node arrives together with its adjacency list, it walks a
// multi-section tree from the root to a leaf, at each level scoring the
// children of the current block with a one-pass objective (Fennel, LDG,
// or Hashing) and descending into the best feasible one. With a machine
// topology S = a1:a2:...:al the leaves are processing elements and the
// result is a hierarchy-aware process mapping (Map); without one, an
// artificial recursive b-section tree solves plain balanced k-way graph
// partitioning (Partition).
//
// Compared to flat one-pass partitioners, the tree walk replaces the
// O(k) per-node block scan with O(sum a_i) — two orders of magnitude
// faster for large k — at a small edge-cut penalty, and it is the first
// streaming algorithm that optimizes the hierarchical process mapping
// objective J(C,D,Pi).
//
// The package also bundles every comparator of the paper's evaluation:
// the flat one-pass algorithms (PartitionOnePass, the same walk on a
// one-level tree of k leaves), an in-memory multilevel partitioner
// standing in for KaMinPar (PartitionMultilevel), and an offline
// recursive multi-section mapper standing in for IntMap (MapOffline).
//
// Basic usage:
//
//	g := oms.GenDelaunay(100_000, 42)
//	res, err := oms.PartitionGraph(g, 256, oms.Options{})
//	// res.Parts[u] is the block of node u
//
// Push-based usage — when no pull source exists because nodes arrive
// from outside (the serving shape of the omsd daemon), open a Session
// and push nodes as they come; each Push returns the node's permanent
// block immediately:
//
//	s, err := oms.NewSession(oms.SessionConfig{
//		Stats: oms.StreamStats{N: n, M: m, TotalNodeWeight: int64(n), TotalEdgeWeight: m},
//		K:     256,
//	})
//	b, err := s.Push(u, 1, adj, nil) // b is u's block, assigned on the fly
//	res, err := s.Finish()
//
// Process mapping onto a machine with 4 cores per processor, 16
// processors per node and 8 nodes, with level distances 1, 10, 100:
//
//	top, err := oms.NewTopology("4:16:8", "1:10:100")
//	res, err := oms.MapGraph(g, top, oms.Options{})
//	cost := res.MappingCost(g, top)
package oms

import (
	"fmt"

	"oms/internal/core"
	"oms/internal/hierarchy"
	"oms/internal/metrics"
	"oms/internal/stream"
)

// Scorer selects the one-pass objective that ranks tree blocks during
// the streaming pass.
type Scorer = core.Scorer

// Scorer values. Fennel is the paper's tuned default.
const (
	// ScorerFennel ranks blocks by neighbors-gained minus a load penalty
	// alpha*gamma*load^(gamma-1) (Tsourakakis et al.), with alpha adapted
	// per multi-section subproblem (§3.2 of the paper).
	ScorerFennel = core.ScorerFennel
	// ScorerLDG ranks blocks by neighbors-gained times the remaining
	// relative capacity (Stanton & Kliot).
	ScorerLDG = core.ScorerLDG
	// ScorerHashing places nodes pseudo-randomly; fastest, worst quality.
	ScorerHashing = core.ScorerHashing
)

// DefaultEpsilon is the paper's balance slack: every block may exceed
// the average weight by at most 3%.
const DefaultEpsilon = 0.03

// DefaultBase is the paper's tuned fanout for the artificial b-section
// tree used when no topology is given (16.7% faster, 3.2% fewer cut
// edges than base 2).
const DefaultBase = 4

// Options configures a streaming run. The zero value reproduces the
// paper's tuned configuration: Fennel scoring with adapted alpha,
// epsilon 3%, base-4 artificial hierarchies, sequential execution.
type Options struct {
	// Epsilon is the allowed imbalance; 0 selects DefaultEpsilon (3%).
	// Every block obeys c(V_i) <= ceil((1+Epsilon) c(V)/k).
	Epsilon float64
	// Scorer is the objective for non-hashed layers (default Fennel).
	Scorer Scorer
	// Base is the fanout of the artificial hierarchy built by Partition
	// when no topology is given; 0 selects DefaultBase (4).
	Base int32
	// HashLayers solves this many bottom layers of the multi-section with
	// Hashing instead of Scorer: the paper's hybrid mode (§3.2), trading
	// quality on the cheap hierarchy levels for speed.
	HashLayers int
	// VanillaAlpha disables the per-subproblem adapted Fennel alpha and
	// uses the flat k-way value everywhere (ablation; the adapted value
	// is 3.1% faster and maps 9.7% better in the paper's tuning).
	VanillaAlpha bool
	// Gamma is the Fennel exponent, a finite value >= 1; 0 means the
	// paper's 1.5.
	Gamma float64
	// Threads is accepted and ignored: every pass assigns in stream order
	// on one worker, so results do not depend on it. The paper's §3.4
	// shared-memory fan-out is not reproduced; Blocked 1A(h) removes the
	// field.
	Threads int
	// Seed randomizes hashing and tie-breaking.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Base == 0 {
		o.Base = DefaultBase
	}
	return o
}

func (o Options) coreConfig() core.Config {
	return core.Config{
		Epsilon:      o.Epsilon,
		Scorer:       o.Scorer,
		Gamma:        o.Gamma,
		VanillaAlpha: o.VanillaAlpha,
		HashLayers:   o.HashLayers,
		Seed:         o.Seed,
	}
}

// Result is a computed partition or process mapping.
type Result struct {
	// Parts assigns every node its block id (plain partitioning) or PE id
	// (process mapping), in [0, K).
	Parts []int32
	// K is the number of blocks / PEs.
	K int32
	// Lmax is the balance threshold ceil((1+eps) c(V)/k) the run obeyed.
	Lmax int64
}

// EdgeCut returns the total weight of edges crossing blocks.
func (r *Result) EdgeCut(g *Graph) int64 { return metrics.EdgeCut(g, r.Parts) }

// MappingCost returns the process-mapping objective J(C,D,Pi) of the
// result on the given topology.
func (r *Result) MappingCost(g *Graph, top *Topology) float64 {
	return metrics.MappingCost(g, r.Parts, top)
}

// Imbalance returns max_b c(V_b) * k / c(V) - 1: 0 is perfect balance,
// and values <= Epsilon satisfy the balance constraint.
func (r *Result) Imbalance(g *Graph) float64 { return metrics.Imbalance(g, r.Parts, r.K) }

// LevelCuts decomposes the result's cut edges by hierarchy level:
// element i is the weight of edges whose endpoints share level i
// (0 = innermost, cheapest) and nothing lower. The entries sum to the
// edge-cut; weighted by the level distances they sum to MappingCost.
// This shows directly whether an algorithm pushed its cut edges toward
// the cheap levels — the mechanism behind hierarchical mapping quality.
func (r *Result) LevelCuts(g *Graph, top *Topology) []float64 {
	return metrics.LevelCuts(g, r.Parts, top)
}

// CheckBalanced verifies the balance constraint with slack eps, returning
// a descriptive error for the first violating block.
func (r *Result) CheckBalanced(g *Graph, eps float64) error {
	return metrics.CheckBalanced(g, r.Parts, r.K, eps)
}

// Source is a restartable one-pass node stream: nodes arrive one at a
// time together with their adjacency lists. Use NewMemorySource for
// in-memory graphs or NewDiskSource to stream a METIS file from disk
// without loading it. A pass assigns in stream order; a file source
// decodes ahead of it on a core of its own.
type Source = stream.Source

// Topology describes a hierarchical machine: a spec S = a1:a2:...:al
// (a1 cores per processor, a2 processors per node, ...) with level
// distances D = d1:d2:...:dl. It provides the PE distance oracle of the
// mapping objective.
type Topology = hierarchy.Topology

// NewTopology parses a topology from its spec and distance strings, e.g.
// NewTopology("4:16:8", "1:10:100") for the paper's experimental setup.
func NewTopology(spec, dist string) (*Topology, error) {
	s, err := hierarchy.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	d, err := hierarchy.ParseDistances(dist)
	if err != nil {
		return nil, err
	}
	return hierarchy.NewTopology(s, d)
}

// MustTopology is NewTopology for constant inputs; it panics on error.
func MustTopology(spec, dist string) *Topology {
	t, err := NewTopology(spec, dist)
	if err != nil {
		panic(err)
	}
	return t
}

// Partition streams src once and partitions it into k balanced blocks
// with the online recursive multi-section over an artificial base-b
// hierarchy (the paper's nh-OMS). Runtime is O((m + n b) log_b k) —
// compare O(m + n k) for flat one-pass partitioners.
func Partition(src Source, k int32, opt Options) (*Result, error) {
	return run(src, k, nil, 0, opt)
}

// Map streams src once and maps it onto the PEs of top with the online
// recursive multi-section along the topology hierarchy (the paper's OMS):
// the multi-section tree mirrors the machine, so cut edges are pushed
// toward the cheap inner levels and the mapping objective J is optimized
// implicitly, in a single pass.
func Map(src Source, top *Topology, opt Options) (*Result, error) {
	return run(src, 0, top, 0, opt)
}

// PartitionGraph is Partition over an in-memory graph.
func PartitionGraph(g *Graph, k int32, opt Options) (*Result, error) {
	return Partition(stream.NewMemory(g), k, opt)
}

// MapGraph is Map over an in-memory graph.
func MapGraph(g *Graph, top *Topology, opt Options) (*Result, error) {
	return Map(stream.NewMemory(g), top, opt)
}

// Restream improves a partition or mapping with extra sequential passes
// over the multi-section tree: the paper's §3.2 remapping extension, in
// the spirit of ReFennel/ReLDG. After the first pass, each pass re-scores
// every node with full knowledge of the previous pass, first removing the
// node's weight from its old root-to-leaf path.
// Passes counts the additional passes after the first; top may be nil for
// plain partitioning (then k and opt.Base define the hierarchy).
func Restream(src Source, k int32, top *Topology, passes int, opt Options) (*Result, error) {
	return run(src, k, top, passes, opt)
}

// run is the one pull path: it sizes an engine by src's stats, streams
// the first pass and then passes extra ones. Partition and Map run no
// extra pass.
func run(src Source, k int32, top *Topology, passes int, opt Options) (*Result, error) {
	if passes < 0 {
		return nil, fmt.Errorf("oms: negative restream passes %d", passes)
	}
	opt = opt.withDefaults()
	st, err := src.Stats()
	if err != nil {
		return nil, err
	}
	o, err := newEngine(top, k, opt.Base, st, opt.coreConfig())
	if err != nil {
		return nil, err
	}
	if _, err := o.Run(src); err != nil {
		return nil, err
	}
	parts, err := o.RestreamPasses(src, passes)
	if err != nil {
		return nil, err
	}
	return &Result{Parts: parts, K: o.K(), Lmax: o.LmaxValue()}, nil
}

// newEngine builds the engine of a pull run or a push session: the
// multi-section tree mirrors top when one is given, and is otherwise
// Algorithm 2's artificial base-section tree over k blocks.
func newEngine(top *Topology, k, base int32, st stream.Stats, cfg core.Config) (*core.OMS, error) {
	if top != nil {
		return core.New(hierarchy.FromSpec(top.Spec), st, cfg)
	}
	return core.NewGP(k, base, st, cfg)
}
