package stream

import (
	"fmt"
	"sort"

	"oms/internal/graph"
	"oms/internal/util"
)

// Order selects the node arrival order of a Reordered source. One-pass
// partitioners are sensitive to stream order (Awadelkarim & Ugander's
// prioritized streaming); the paper streams all instances in natural
// order, and the other orders support the stream-order ablation.
type Order int

// Stream orders.
const (
	// OrderNatural is the graph's given node order (the paper's setting).
	OrderNatural Order = iota
	// OrderRandom is a seeded uniform permutation — the adversarial case
	// for locality-dependent algorithms.
	OrderRandom
	// OrderDegreeDesc streams hubs first (the static degree priority that
	// Awadelkarim & Ugander report as nearly best).
	OrderDegreeDesc
	// OrderDegreeAsc streams low-degree fringe first.
	OrderDegreeAsc
	// OrderBFS streams a breadth-first traversal from node 0 (components
	// in sequence): maximal locality.
	OrderBFS
)

func (o Order) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderRandom:
		return "random"
	case OrderDegreeDesc:
		return "degree-desc"
	case OrderDegreeAsc:
		return "degree-asc"
	case OrderBFS:
		return "bfs"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// Reordered streams an in-memory graph in a chosen node order. Node ids
// are unchanged — only the arrival sequence differs. It implements
// Source.
type Reordered struct {
	G    *graph.Graph
	Perm []int32 // arrival sequence: Perm[i] streams i-th
}

// NewReordered builds a reordered source over g. seed matters only for
// OrderRandom.
func NewReordered(g *graph.Graph, order Order, seed uint64) *Reordered {
	n := g.NumNodes()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	switch order {
	case OrderNatural:
	case OrderRandom:
		util.NewRNG(seed).ShuffleInt32(perm)
	case OrderDegreeDesc:
		sort.SliceStable(perm, func(i, j int) bool {
			return g.Degree(perm[i]) > g.Degree(perm[j])
		})
	case OrderDegreeAsc:
		sort.SliceStable(perm, func(i, j int) bool {
			return g.Degree(perm[i]) < g.Degree(perm[j])
		})
	case OrderBFS:
		perm = bfsOrder(g)
	default:
		panic(fmt.Sprintf("stream: unknown order %d", order))
	}
	return &Reordered{G: g, Perm: perm}
}

// bfsOrder returns a breadth-first arrival sequence covering every
// component (restarting from the smallest unvisited id).
func bfsOrder(g *graph.Graph) []int32 {
	n := g.NumNodes()
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, 1024)
	for s := int32(0); s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range g.Neighbors(u) {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return order
}

// Stats implements Source.
func (r *Reordered) Stats() (Stats, error) { return NewMemory(r.G).Stats() }

// ForEach implements Source: one pass in the permuted order.
func (r *Reordered) ForEach(fn Visitor) error {
	g := r.G
	for _, u := range r.Perm {
		fn(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
	}
	return nil
}
