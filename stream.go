package oms

import "oms/internal/stream"

// StreamOrder selects the node arrival order of an ordered source. The
// paper streams instances in their natural order; the other orders
// support stream-order sensitivity studies (cf. Awadelkarim & Ugander's
// prioritized streaming).
type StreamOrder = stream.Order

// Stream orders for NewOrderedSource.
const (
	// OrderNatural streams nodes in the graph's given order.
	OrderNatural = stream.OrderNatural
	// OrderRandom streams a seeded uniform permutation.
	OrderRandom = stream.OrderRandom
	// OrderDegreeDesc streams high-degree nodes first.
	OrderDegreeDesc = stream.OrderDegreeDesc
	// OrderDegreeAsc streams low-degree nodes first.
	OrderDegreeAsc = stream.OrderDegreeAsc
	// OrderBFS streams a breadth-first traversal (maximal locality).
	OrderBFS = stream.OrderBFS
)

// OrderedSource streams an in-memory graph in a chosen node order.
type OrderedSource = stream.Reordered

// NewOrderedSource wraps g with a non-natural arrival order; seed
// matters only for OrderRandom.
func NewOrderedSource(g *Graph, order StreamOrder, seed uint64) *OrderedSource {
	return stream.NewReordered(g, order, seed)
}
