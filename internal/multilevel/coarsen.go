// Package multilevel implements a from-scratch in-memory multilevel graph
// partitioner. It substitutes for the external comparators of the paper's
// evaluation (KaMinPar for partitioning; combined with the offline
// recursive multi-section in internal/mapping it plays IntMap's role):
// an algorithm with access to the whole graph that produces far better
// cuts than any streaming method at far higher time and memory cost.
//
// Pipeline: heavy-edge-matching coarsening -> greedy-growing recursive
// bisection on the coarsest graph -> size-constrained label-propagation
// refinement during uncoarsening, with a final rebalance enforcing the
// same balance constraint as the streaming algorithms.
package multilevel

import (
	"oms/internal/graph"
	"oms/internal/util"
)

// heavyEdgeMatching computes a matching that prefers heavy edges: nodes
// are visited in random order and matched to their heaviest unmatched
// neighbor whose combined weight stays below maxVW. match[u] == partner,
// or u itself when unmatched.
func heavyEdgeMatching(g *graph.Graph, rng *util.RNG, maxVW int64) []int32 {
	n := g.NumNodes()
	match := make([]int32, n)
	for u := range match {
		match[u] = int32(u)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	rng.ShuffleInt32(order)
	for _, u := range order {
		if match[u] != u {
			continue
		}
		adj := g.Neighbors(u)
		ew := g.EdgeWeights(u)
		best := int32(-1)
		bestW := int32(0)
		wu := int64(g.NodeWeight(u))
		for i, v := range adj {
			if match[v] != v || v == u {
				continue
			}
			if wu+int64(g.NodeWeight(v)) > maxVW {
				continue
			}
			w := int32(1)
			if ew != nil {
				w = ew[i]
			}
			if w > bestW {
				best, bestW = v, w
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
		}
	}
	return match
}

// contract collapses matched pairs into single coarse nodes, summing node
// and parallel edge weights. It returns the coarse graph and the
// fine-to-coarse node map.
func contract(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	n := g.NumNodes()
	toCoarse := make([]int32, n)
	next := int32(0)
	for u := int32(0); u < n; u++ {
		if match[u] >= u { // representative: smaller endpoint of the pair
			toCoarse[u] = next
			next++
		}
	}
	for u := int32(0); u < n; u++ {
		if match[u] < u {
			toCoarse[u] = toCoarse[match[u]]
		}
	}
	b := graph.NewBuilder(next)
	cw := make([]int64, next)
	for u := int32(0); u < n; u++ {
		cw[toCoarse[u]] += int64(g.NodeWeight(u))
		adj := g.Neighbors(u)
		ew := g.EdgeWeights(u)
		for i, v := range adj {
			if v <= u {
				continue
			}
			cu, cv := toCoarse[u], toCoarse[v]
			if cu == cv {
				continue
			}
			w := int32(1)
			if ew != nil {
				w = ew[i]
			}
			b.AddWeightedEdge(cu, cv, w)
		}
	}
	for c := int32(0); c < next; c++ {
		b.SetNodeWeight(c, int32(cw[c]))
	}
	return b.Finish(), toCoarse
}

// lpClustering groups nodes into clusters by size-constrained label
// propagation: every node starts as its own cluster and, over a few
// rounds in random order, joins the neighboring cluster it is most
// strongly connected to among clusters that stay below maxVW. This is the
// coarsening style of KaMinPar-class partitioners; unlike matching it
// shrinks power-law graphs aggressively because a hub absorbs its whole
// fringe in one round. Returns a dense cluster id per node and the
// cluster count.
func lpClustering(g *graph.Graph, maxVW int64, rounds int, rng *util.RNG) ([]int32, int32) {
	n := g.NumNodes()
	cluster := make([]int32, n)
	cw := make([]int64, n) // cluster weights
	for u := int32(0); u < n; u++ {
		cluster[u] = u
		cw[u] = int64(g.NodeWeight(u))
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	gain := make([]int64, n)
	mark := make([]uint32, n)
	var epoch uint32
	touched := make([]int32, 0, 64)
	for r := 0; r < rounds; r++ {
		rng.ShuffleInt32(order)
		moved := 0
		for _, u := range order {
			adj := g.Neighbors(u)
			if len(adj) == 0 {
				continue
			}
			ew := g.EdgeWeights(u)
			epoch++
			if epoch == 0 {
				for i := range mark {
					mark[i] = 0
				}
				epoch = 1
			}
			touched = touched[:0]
			for i, v := range adj {
				c := cluster[v]
				w := int64(1)
				if ew != nil {
					w = int64(ew[i])
				}
				if mark[c] != epoch {
					mark[c] = epoch
					gain[c] = 0
					touched = append(touched, c)
				}
				gain[c] += w
			}
			cur := cluster[u]
			w := int64(g.NodeWeight(u))
			best := cur
			var bestGain int64 = -1
			if mark[cur] == epoch {
				bestGain = gain[cur]
			}
			for _, c := range touched {
				if c == cur {
					continue
				}
				if cw[c]+w > maxVW {
					continue
				}
				if gain[c] > bestGain {
					best, bestGain = c, gain[c]
				}
			}
			if best != cur {
				cw[cur] -= w
				cw[best] += w
				cluster[u] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	// Relabel cluster ids densely in first-appearance order.
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	next := int32(0)
	for u := int32(0); u < n; u++ {
		c := cluster[u]
		if remap[c] < 0 {
			remap[c] = next
			next++
		}
		cluster[u] = remap[c]
	}
	return cluster, next
}

// contractMap collapses an arbitrary fine-to-coarse cluster map into the
// coarse graph, summing node weights and merging parallel edges.
func contractMap(g *graph.Graph, toCoarse []int32, numCoarse int32) *graph.Graph {
	n := g.NumNodes()
	b := graph.NewBuilder(numCoarse)
	cw := make([]int64, numCoarse)
	for u := int32(0); u < n; u++ {
		cw[toCoarse[u]] += int64(g.NodeWeight(u))
		adj := g.Neighbors(u)
		ew := g.EdgeWeights(u)
		for i, v := range adj {
			if v <= u {
				continue
			}
			cu, cv := toCoarse[u], toCoarse[v]
			if cu == cv {
				continue
			}
			w := int32(1)
			if ew != nil {
				w = ew[i]
			}
			b.AddWeightedEdge(cu, cv, w)
		}
	}
	for c := int32(0); c < numCoarse; c++ {
		b.SetNodeWeight(c, int32(cw[c]))
	}
	return b.Finish()
}

// level is one rung of the multilevel ladder.
type level struct {
	g        *graph.Graph
	toCoarse []int32 // this level's node -> next (coarser) level's node
}

// coarsen builds the ladder down to roughly targetN nodes (or until
// clustering stops shrinking the graph). Each step contracts a size-
// constrained label-propagation clustering; the cluster size cap tightens
// toward maxVW as the graph shrinks so early rounds cannot produce
// unsplittable super-nodes.
func coarsen(g *graph.Graph, targetN int32, maxVW int64, rng *util.RNG) []level {
	levels := []level{{g: g}}
	cur := g
	for cur.NumNodes() > targetN {
		// Cap cluster weight at a fraction of the remaining shrink head-
		// room: at most maxVW, at least the current max node weight.
		cap := cur.TotalNodeWeight() / int64(targetN)
		if cap > maxVW {
			cap = maxVW
		}
		if cap < 1 {
			cap = 1
		}
		clusterOf, num := lpClustering(cur, cap, 3, rng.Fork())
		if num >= cur.NumNodes() || num < 2 {
			break // no further shrinkage possible
		}
		if float64(num) > 0.98*float64(cur.NumNodes()) {
			break
		}
		coarse := contractMap(cur, clusterOf, num)
		levels[len(levels)-1].toCoarse = clusterOf
		levels = append(levels, level{g: coarse})
		cur = coarse
	}
	return levels
}
