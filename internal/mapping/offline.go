package mapping

import (
	"fmt"
	"math"

	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/multilevel"
)

// Options configures the offline recursive multi-section mapper.
type Options struct {
	// Epsilon is the global balance slack; the per-level slack is derived
	// as (1+eps)^(1/l) - 1 so the l levels compound to exactly (1+eps),
	// the adaptive-imbalance trick of the offline multi-section papers.
	Epsilon float64
	Seed    uint64
	// SwapRounds bounds the block-to-PE greedy swap refinement after the
	// multi-section (0 disables it; the paper's IntMap line includes such
	// a local search).
	SwapRounds int
	// ML carries tuning knobs for the inner multilevel partitioner;
	// Epsilon and Seed inside it are overridden per subproblem.
	ML multilevel.Options
}

// OfflineMap maps the nodes of g onto the PEs of top by offline recursive
// multi-section: partition g into a_l blocks with the in-memory
// multilevel partitioner, then each block into a_{l-1} sub-blocks, and so
// on down to single PEs (the offline counterpart of the paper's §3
// algorithm, following Schulz–Träff and Kirchbach et al.). The returned
// slice assigns every node its PE in [0, k).
func OfflineMap(g *graph.Graph, top *hierarchy.Topology, opt Options) ([]int32, error) {
	if !(opt.Epsilon >= 0) || math.IsInf(opt.Epsilon, 1) {
		return nil, fmt.Errorf("mapping: epsilon %v not a finite value >= 0", opt.Epsilon)
	}
	factors := top.Spec.Factors
	l := len(factors)
	if l == 0 {
		return nil, fmt.Errorf("mapping: empty topology")
	}
	epsLevel := math.Pow(1+opt.Epsilon, 1/float64(l)) - 1

	// spans[fi] = PEs covered by one block of the subproblem at factor
	// index fi (factors[fi] children each covering spans[fi-1]... PEs).
	spans := make([]int32, l)
	span := int32(1)
	for fi := 0; fi < l; fi++ {
		spans[fi] = span
		span *= factors[fi]
	}

	parts := make([]int32, g.NumNodes())
	seed := opt.Seed

	var rec func(sub *graph.Graph, nodes []int32, fi int, firstPE int32) error
	rec = func(sub *graph.Graph, nodes []int32, fi int, firstPE int32) error {
		if len(nodes) == 0 {
			return nil
		}
		if fi < 0 {
			for _, u := range nodes {
				parts[u] = firstPE
			}
			return nil
		}
		a := factors[fi]
		childSpan := spans[fi]
		if int64(sub.NumNodes()) < int64(a) {
			// Fewer nodes than blocks: spread them over distinct children
			// (leftmost leaf of each), preserving balance trivially.
			for i, u := range nodes {
				parts[u] = firstPE + int32(i)*childSpan
			}
			return nil
		}
		mlOpt := opt.ML
		mlOpt.Epsilon = epsLevel
		mlOpt.Seed = seed
		seed = seed*0x9e3779b97f4a7c15 + 1
		sp, err := multilevel.Partition(sub, a, mlOpt)
		if err != nil {
			return fmt.Errorf("mapping: level %d: %w", fi, err)
		}
		sets := graph.PartitionNodeSets(sp, a)
		for b := int32(0); b < a; b++ {
			set := sets[b]
			if len(set) == 0 {
				continue
			}
			globalSet := make([]int32, len(set))
			for i, lu := range set {
				globalSet[i] = nodes[lu]
			}
			childFirst := firstPE + b*childSpan
			if fi == 0 {
				for _, u := range globalSet {
					parts[u] = childFirst
				}
				continue
			}
			if err := rec(sub.InducedSubgraph(set), globalSet, fi-1, childFirst); err != nil {
				return err
			}
		}
		return nil
	}

	if err := rec(g, identity(g.NumNodes()), l-1, 0); err != nil {
		return nil, err
	}

	if opt.SwapRounds > 0 {
		k := top.Spec.K()
		bg := BuildBlockGraph(g, parts, k)
		pe := Identity(k)
		if GreedySwapRefine(bg, top, pe, opt.SwapRounds) > 0 {
			Apply(parts, pe)
		}
	}
	return parts, nil
}

func identity(n int32) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}
