package multilevel

import (
	"fmt"
	"math"

	"oms/internal/graph"
	"oms/internal/util"
)

// Options tunes the multilevel pipeline. The zero value plus a positive
// Epsilon is a sensible configuration.
type Options struct {
	Epsilon float64 // balance slack, e.g. 0.03
	Seed    uint64
	// CoarsestPerBlock stops coarsening once the graph has fewer than
	// this many nodes per block; 0 means 30.
	CoarsestPerBlock int32
	// LPIterations bounds label-propagation rounds per level; 0 means 8.
	LPIterations int
	// InitialTries repeats the coarsest-level recursive bisection with
	// different seeds and keeps the best cut; 0 means 3. The coarsest
	// graph is small, so extra tries are cheap relative to uncoarsening.
	InitialTries int
}

// Partition computes a balanced k-way partition of g with the multilevel
// scheme. The result satisfies the paper's balance constraint
// c(V_i) <= ceil((1+eps) c(V)/k). Coarsening that would merge parallel
// edges past math.MaxInt32 is an error wrapping a
// *graph.WeightOverflowError.
func Partition(g *graph.Graph, k int32, opt Options) ([]int32, error) {
	if k < 1 {
		return nil, fmt.Errorf("multilevel: k=%d < 1", k)
	}
	if !(opt.Epsilon >= 0) || math.IsInf(opt.Epsilon, 1) {
		return nil, fmt.Errorf("multilevel: epsilon %v not a finite value >= 0", opt.Epsilon)
	}
	n := g.NumNodes()
	parts := make([]int32, n)
	if k == 1 || n == 0 {
		return parts, nil
	}
	if int64(k) > int64(n) {
		return nil, fmt.Errorf("multilevel: k=%d exceeds n=%d", k, n)
	}
	perBlock := opt.CoarsestPerBlock
	if perBlock == 0 {
		perBlock = 60
	}
	iters := opt.LPIterations
	if iters == 0 {
		iters = 8
	}
	tries := opt.InitialTries
	if tries == 0 {
		tries = 3
	}
	rng := util.NewRNG(opt.Seed ^ 0x6d756c7469) // "multi"
	total := g.TotalNodeWeight()
	lmax := int64(math.Ceil((1 + opt.Epsilon) * float64(total) / float64(k)))
	maxVW := lmax / 3
	if maxVW < 1 {
		maxVW = 1
	}
	targetN := perBlock * k
	if targetN < 2*k {
		targetN = 2 * k
	}
	levels, err := coarsen(g, targetN, maxVW, rng)
	if err != nil {
		return nil, err
	}

	caps := make([]int64, k)
	for b := range caps {
		caps[b] = lmax
	}
	coarsest := levels[len(levels)-1].g
	// Repeated initial partitions are only worthwhile when coarsening has
	// made them cheap relative to uncoarsening; in the degenerate regime
	// where the graph barely shrank (k close to n), one try costs as much
	// as the whole rest of the pipeline.
	if coarsest.NumNodes()*4 > g.NumNodes() {
		tries = 1
	}
	var cur []int32
	var curCut int64 = -1
	for t := 0; t < tries; t++ {
		cand := initialPartition(coarsest, k, lmax, rng.Fork())
		refineLP(coarsest, cand, k, caps, iters, rng.Fork())
		rebalance(coarsest, cand, k, caps)
		if c := cutOf(coarsest, cand); curCut < 0 || c < curCut {
			cur, curCut = cand, c
		}
	}

	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		projected := make([]int32, fine.g.NumNodes())
		for u := range projected {
			projected[u] = cur[fine.toCoarse[u]]
		}
		cur = projected
		refineLP(fine.g, cur, k, caps, iters, rng.Fork())
		rebalance(fine.g, cur, k, caps)
	}
	return cur, nil
}
