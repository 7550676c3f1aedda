// Package metrics computes the solution-quality and aggregation measures
// of the paper's evaluation (§4): edge-cut, balance, the process-mapping
// communication cost J, geometric means, improvement percentages, and
// performance profiles.
//
// A partition may be partial: a node whose entry is negative, or missing
// because the vector is shorter than the graph, is unassigned. It carries
// no load, and no edge into it counts. Only CheckBalanced, a completeness
// check, rejects such a partition.
package metrics

import (
	"fmt"

	"oms/internal/graph"
	"oms/internal/hierarchy"
)

// blockOf returns u's block, or -1 when u is unassigned.
func blockOf(parts []int32, u int32) int32 {
	if int(u) >= len(parts) || parts[u] < 0 {
		return -1
	}
	return parts[u]
}

// assignedEdges calls fn once per undirected edge whose endpoints are
// both assigned, with their blocks and the edge's weight.
func assignedEdges(g *graph.Graph, parts []int32, fn func(pu, pv, w int32)) {
	n := g.NumNodes()
	for u := int32(0); u < n; u++ {
		pu := blockOf(parts, u)
		if pu < 0 {
			continue
		}
		ew := g.EdgeWeights(u)
		for i, v := range g.Neighbors(u) {
			pv := blockOf(parts, v)
			if v <= u || pv < 0 {
				continue
			}
			w := int32(1)
			if ew != nil {
				w = ew[i]
			}
			fn(pu, pv, w)
		}
	}
}

// EdgeCut returns the total weight of edges crossing blocks, each
// undirected edge counted once.
func EdgeCut(g *graph.Graph, parts []int32) int64 {
	var cut int64
	assignedEdges(g, parts, func(pu, pv, w int32) {
		if pu != pv {
			cut += int64(w)
		}
	})
	return cut
}

// BlockLoads returns the node-weight of every block.
func BlockLoads(g *graph.Graph, parts []int32, k int32) []int64 {
	loads := make([]int64, k)
	n := g.NumNodes()
	for u := int32(0); u < n; u++ {
		if p := blockOf(parts, u); p >= 0 {
			loads[p] += int64(g.NodeWeight(u))
		}
	}
	return loads
}

// Imbalance returns max_i c(V_i) / (c(V)/k) - 1, the conventional
// imbalance measure (0 = perfectly balanced, eps = at the constraint).
// c(V) is the assigned weight, which is the graph's total weight for a
// complete partition.
func Imbalance(g *graph.Graph, parts []int32, k int32) float64 {
	loads := BlockLoads(g, parts, k)
	var maxLoad, total int64
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	avg := float64(total) / float64(k)
	if avg == 0 {
		return 0
	}
	return float64(maxLoad)/avg - 1
}

// CheckBalanced verifies the paper's balance constraint
// c(V_i) <= ceil((1+eps) c(V)/k) for every block and that every node is
// assigned a block in range. It returns a descriptive error on violation.
func CheckBalanced(g *graph.Graph, parts []int32, k int32, eps float64) error {
	if int32(len(parts)) != g.NumNodes() {
		return fmt.Errorf("metrics: %d assignments for %d nodes", len(parts), g.NumNodes())
	}
	for u, p := range parts {
		if p < 0 || p >= k {
			return fmt.Errorf("metrics: node %d assigned to block %d outside [0,%d)", u, p, k)
		}
	}
	lmax := lmaxOf(g.TotalNodeWeight(), k, eps)
	loads := BlockLoads(g, parts, k)
	for b, l := range loads {
		if l > lmax {
			return fmt.Errorf("metrics: block %d load %d exceeds Lmax %d", b, l, lmax)
		}
	}
	return nil
}

func lmaxOf(total int64, k int32, eps float64) int64 {
	v := (1 + eps) * float64(total) / float64(k)
	l := int64(v)
	if float64(l) < v {
		l++
	}
	return l
}

// MappingCost returns J(C, D, Pi) = sum over communicating pairs of
// C_uv * D(Pi(u), Pi(v)), counting each undirected edge once. (The
// paper's double sum counts ordered pairs; with symmetric C and D that is
// exactly twice this value, a constant factor that cancels from every
// ratio reported in the evaluation.)
func MappingCost(g *graph.Graph, parts []int32, top *hierarchy.Topology) float64 {
	var cost float64
	assignedEdges(g, parts, func(pu, pv, w int32) {
		if d := top.PEDistance(pu, pv); d != 0 {
			cost += float64(w) * d
		}
	})
	return cost
}

// LevelCuts decomposes a mapping's cut edges by hierarchy level:
// LevelCuts(...)[i] is the total weight of edges whose endpoints share
// level i (0 = innermost, cheapest) but nothing lower. The weighted sum
// with the level distances equals MappingCost; the decomposition shows
// directly whether an algorithm pushed its mistakes to the cheap levels,
// the mechanism behind the multi-section's mapping quality (paper §3.1).
func LevelCuts(g *graph.Graph, parts []int32, top *hierarchy.Topology) []float64 {
	cuts := make([]float64, top.Spec.Levels())
	assignedEdges(g, parts, func(pu, pv, w int32) {
		if lvl := top.SharedLevel(pu, pv); lvl >= 0 {
			cuts[lvl] += float64(w)
		}
	})
	return cuts
}
