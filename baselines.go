package oms

import (
	"fmt"

	"oms/internal/mapping"
	"oms/internal/multilevel"
	"oms/internal/onepass"
	"oms/internal/stream"
)

// PartitionOnePass streams src once with a flat (non-hierarchical)
// one-pass partitioner: the algorithms the paper evaluates against.
// ScorerFennel and ScorerLDG score all k blocks per node (O(m + nk)
// total); ScorerHashing assigns pseudo-randomly in O(n). Results carry
// the same balance guarantee as Partition.
func PartitionOnePass(src Source, k int32, scorer Scorer, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	st, err := src.Stats()
	if err != nil {
		return nil, err
	}
	cfg := onepass.Config{K: k, Epsilon: opt.Epsilon, Gamma: opt.Gamma, Seed: opt.Seed}
	threads := opt.Threads
	if threads < 1 {
		threads = 1
	}
	var alg onepass.Algorithm
	switch scorer {
	case ScorerFennel:
		alg, err = onepass.NewFennel(cfg, st, threads)
	case ScorerLDG:
		alg, err = onepass.NewLDG(cfg, st, threads)
	case ScorerHashing:
		alg, err = onepass.NewHashing(cfg, st)
	default:
		return nil, fmt.Errorf("oms: unknown scorer %v", scorer)
	}
	if err != nil {
		return nil, err
	}
	parts, err := onepass.Run(src, alg, threads)
	if err != nil {
		return nil, err
	}
	return &Result{Parts: parts, K: k, Lmax: onepass.Lmax(st.TotalNodeWeight, k, opt.Epsilon)}, nil
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
	st, _ := stream.NewMemory(g).Stats()
	return &Result{Parts: parts, K: k, Lmax: onepass.Lmax(st.TotalNodeWeight, k, opt.Epsilon)}, nil
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
	st, _ := stream.NewMemory(g).Stats()
	return &Result{Parts: parts, K: k, Lmax: onepass.Lmax(st.TotalNodeWeight, k, opt.Epsilon)}, nil
}
