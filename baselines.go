package oms

import (
	"oms/internal/core"
	"oms/internal/mapping"
	"oms/internal/multilevel"
)

// PartitionOnePass streams src once with a flat (non-hierarchical)
// one-pass partitioner: the algorithms the paper evaluates against. Flat
// Fennel, LDG and Hashing are the online recursive multi-section on a
// one-level tree of k leaves, so this is Partition with base max(k, 2)
// and no hashed layers. ScorerFennel and ScorerLDG still visit all k
// blocks per node (O(m + nk) total, as Theorem 2 counts them), but the
// walk ranks Fennel's zero-gain blocks by load instead of scoring each;
// ScorerHashing assigns pseudo-randomly in O(n). Results carry the same
// balance guarantee as Partition.
func PartitionOnePass(src Source, k int32, scorer Scorer, opt Options) (*Result, error) {
	opt.Scorer, opt.Base, opt.HashLayers = scorer, max(k, 2), 0
	return Partition(src, k, opt)
}

// MultilevelOptions tunes the in-memory multilevel partitioner.
type MultilevelOptions = multilevel.Options

// PartitionMultilevel partitions an in-memory graph with the bundled
// multilevel partitioner (label-propagation-clustering coarsening,
// recursive-bisection initial partitioning with FM refinement,
// size-constrained label-propagation uncoarsening). It is this module's
// stand-in for KaMinPar: the quality reference that every streaming
// algorithm loses to on edge-cut, at in-memory time and space cost.
func PartitionMultilevel(g *Graph, k int32, opt MultilevelOptions) (*Result, error) {
	if opt.Epsilon == 0 {
		opt.Epsilon = DefaultEpsilon
	}
	parts, err := multilevel.Partition(g, k, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Parts: parts, K: k, Lmax: core.Lmax(g.TotalNodeWeight(), k, opt.Epsilon)}, nil
}

// OfflineMapOptions tunes the offline recursive multi-section mapper.
type OfflineMapOptions = mapping.Options

// MapOffline maps an in-memory graph onto top with offline recursive
// multi-section over the multilevel partitioner plus greedy block-to-PE
// swap refinement. It is this module's stand-in for IntMap: the best
// mapping quality of the evaluation, sequential only, with full-graph
// memory cost.
func MapOffline(g *Graph, top *Topology, opt OfflineMapOptions) (*Result, error) {
	if opt.Epsilon == 0 {
		opt.Epsilon = DefaultEpsilon
	}
	parts, err := mapping.OfflineMap(g, top, opt)
	if err != nil {
		return nil, err
	}
	k := top.Spec.K()
	return &Result{Parts: parts, K: k, Lmax: core.Lmax(g.TotalNodeWeight(), k, opt.Epsilon)}, nil
}
