package gen

import (
	"oms/internal/graph"
	"oms/internal/util"
)

// RMATParams are the quadrant probabilities of the R-MAT recursive matrix
// model. They must be positive and sum to 1.
type RMATParams struct {
	A, B, C, D float64
}

// SocialRMAT is the classic skewed parameterization producing power-law
// degree distributions similar to social networks and web crawls.
var SocialRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// CitationRMAT is a milder skew matching citation/co-purchasing networks.
var CitationRMAT = RMATParams{A: 0.45, B: 0.22, C: 0.22, D: 0.11}

// RMAT generates an undirected R-MAT graph with n nodes (rounded up to a
// power of two internally and then truncated) and approximately m edges
// (self loops and duplicates are merged away, so the final count is
// slightly lower at high density). Node ids are scrambled within the
// generation so the power-law hubs spread over the stream, as in the
// paper's converted SNAP instances.
func RMAT(n int32, m int64, p RMATParams, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.NewBuilder(max32(n, 0)).Finish()
	}
	levels := 0
	for int64(1)<<levels < int64(n) {
		levels++
	}
	rng := util.NewRNG(seed)
	b := graph.NewBuilder(n)
	b.Reserve(int(m))
	ab := p.A + p.B
	abc := p.A + p.B + p.C
	for i := int64(0); i < m; i++ {
		var u, v int64
		for {
			u, v = 0, 0
			for l := 0; l < levels; l++ {
				// One draw picks the quadrant: [0,A) is (0,0), then B
				// is (0,1), C is (1,0) and D is (1,1). Both bits come
				// from comparisons, not a branch per quadrant.
				r := rng.Float64()
				ub := b2i(r >= ab)
				u |= ub << l
				v |= (b2i(r >= p.A) ^ ub ^ b2i(r >= abc)) << l
			}
			if u < int64(n) && v < int64(n) && u != v {
				break
			}
		}
		b.AddEdge(int32(u), int32(v))
	}
	return b.Finish()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// BarabasiAlbert generates a preferential-attachment graph: nodes arrive
// one at a time and connect to deg existing nodes chosen proportionally to
// their current degree. Models co-authorship / co-purchasing networks.
// Node order is arrival order, the natural order of such datasets.
func BarabasiAlbert(n int32, deg int32, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.NewBuilder(max32(n, 0)).Finish()
	}
	if deg < 1 {
		deg = 1
	}
	rng := util.NewRNG(seed)
	b := graph.NewBuilder(n)
	b.Reserve(int(n) * int(deg))
	// endpoints holds every edge endpoint ever created; sampling a
	// uniform element implements degree-proportional selection.
	endpoints := make([]int32, 0, 2*int(n)*int(deg))
	// Seed clique among the first deg+1 nodes.
	seedN := deg + 1
	if seedN > n {
		seedN = n
	}
	for u := int32(0); u < seedN; u++ {
		for v := u + 1; v < seedN; v++ {
			b.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	targets := make([]int32, 0, deg)
	for u := seedN; u < n; u++ {
		targets = targets[:0]
		want := int(deg)
		if int(u) < want {
			want = int(u)
		}
		for len(targets) < want {
			t := endpoints[rng.Intn(len(endpoints))]
			if t == u || containsInt32(targets, t) {
				continue
			}
			targets = append(targets, t)
		}
		for _, t := range targets {
			b.AddEdge(u, t)
			endpoints = append(endpoints, u, t)
		}
	}
	return b.Finish()
}

func containsInt32(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
