package graph

import (
	"fmt"
	"math"
	"slices"
)

// Builder accumulates edges and produces a clean CSR Graph: undirected,
// symmetric, self loops dropped, parallel edges merged (weights summed),
// adjacency sorted. Generators and IO readers both funnel through it so
// every Graph in the system satisfies Validate().
type Builder struct {
	n    int32
	us   []int32
	vs   []int32
	ws   []int32 // nil while every edge weighs 1
	vwgt []int32
}

// NewBuilder creates a builder for a graph with n nodes.
func NewBuilder(n int32) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// Reserve pre-sizes internal buffers for m undirected edges.
func (b *Builder) Reserve(m int) {
	if cap(b.us) < m {
		b.us = slices.Grow(b.us, m-len(b.us))
		b.vs = slices.Grow(b.vs, m-len(b.vs))
		if b.ws != nil {
			b.ws = slices.Grow(b.ws, m-len(b.ws))
		}
	}
}

// AddEdge records the undirected edge {u,v} with weight 1. Self loops are
// silently dropped; duplicates are merged at Finish time.
func (b *Builder) AddEdge(u, v int32) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the undirected edge {u,v} with weight w.
func (b *Builder) AddWeightedEdge(u, v, w int32) {
	if u == v {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if w <= 0 {
		panic(fmt.Sprintf("graph: non-positive edge weight %d", w))
	}
	if w != 1 && b.ws == nil {
		// The first non-unit weight: every edge before it weighed 1.
		b.ws = make([]int32, len(b.us), cap(b.us))
		for i := range b.ws {
			b.ws[i] = 1
		}
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	if b.ws != nil {
		b.ws = append(b.ws, w)
	}
}

// SetNodeWeight assigns c(u) = w (default 1). The weight vector grows
// with the largest node actually touched, not the declared n, so a
// reader fed a short file with an enormous header cannot be tricked
// into an O(n) allocation before the body disproves the claim; Finish
// pads the tail.
func (b *Builder) SetNodeWeight(u, w int32) {
	if w < 0 {
		panic("graph: negative node weight")
	}
	if u < 0 || u >= b.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, b.n))
	}
	if int32(len(b.vwgt)) <= u {
		grown := max(2*len(b.vwgt), int(u)+1, 64)
		if grown > int(b.n) {
			grown = int(b.n)
		}
		fresh := make([]int32, grown)
		copy(fresh, b.vwgt)
		for i := len(b.vwgt); i < grown; i++ {
			fresh[i] = 1
		}
		b.vwgt = fresh
	}
	b.vwgt[u] = w
}

// WeightOverflowError reports parallel edges {U,V} whose weights sum past
// math.MaxInt32, the largest edge weight a Graph holds.
type WeightOverflowError struct {
	U, V int32
}

func (e *WeightOverflowError) Error() string {
	return fmt.Sprintf("graph: merged weight of edge {%d,%d} exceeds %d", e.U, e.V, math.MaxInt32)
}

// Finish builds the CSR graph in O(n + m); see Build. It panics where
// Build returns an error, so callers whose edge weights cannot sum past
// math.MaxInt32 (unit weights, generators) need not check.
func (b *Builder) Finish() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Build builds the CSR graph, or returns a *WeightOverflowError if
// parallel edges merge to a weight above math.MaxInt32. The builder must
// not be reused afterwards.
//
// Construction is O(n + m) with no comparison sort: a counting sort on
// the source buckets both directions of every edge into unsorted rows,
// then one transpose visits the rows in ascending id and appends each id
// to its neighbours' rows, which leaves every row sorted. The arc set is
// symmetric, so the transpose is the graph itself, with parallel arcs
// adjacent for the merge. Unit-weight input gets a weight array only
// once a parallel edge merges; a merged unit edge weighs its multiplicity.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	xadj := make([]int64, n+1)
	for i, u := range b.us {
		xadj[u+1]++
		xadj[b.vs[i]+1]++
	}
	for u := int32(0); u < n; u++ {
		xadj[u+1] += xadj[u]
	}
	arcs := xadj[n]

	// Scatter each edge into both endpoints' rows. The cursors count down
	// from each row's end, so the pass leaves them at the row starts the
	// transpose fills from.
	cursor := make([]int64, n)
	copy(cursor, xadj[1:])
	rows := make([]int32, arcs)
	var rowW []int32
	if b.ws != nil {
		rowW = make([]int32, arcs)
	}
	for i, u := range b.us {
		v := b.vs[i]
		cu, cv := cursor[u]-1, cursor[v]-1
		cursor[u], cursor[v] = cu, cv
		rows[cu], rows[cv] = v, u
		if rowW != nil {
			rowW[cu], rowW[cv] = b.ws[i], b.ws[i]
		}
	}
	b.us, b.vs, b.ws = nil, nil, nil

	adj := make([]int32, arcs)
	var wgt []int32
	if rowW != nil {
		wgt = make([]int32, arcs)
	}
	for u := int32(0); u < n; u++ {
		for j := xadj[u]; j < xadj[u+1]; j++ {
			v := rows[j]
			adj[cursor[v]] = u
			if wgt != nil {
				wgt[cursor[v]] = rowW[j]
			}
			cursor[v]++
		}
	}

	// Merge parallel arcs in place; xadj compacts as the rows shrink.
	var write, lo int64
	for u := int32(0); u < n; u++ {
		hi := xadj[u+1]
		xadj[u] = write
		last := int32(-1)
		for i := lo; i < hi; i++ {
			v := adj[i]
			if v != last {
				adj[write] = v
				if wgt != nil {
					wgt[write] = wgt[i]
				}
				write++
				last = v
				continue
			}
			if wgt == nil {
				// The first merge of unit-weight input: the scatter
				// rows are dead, so they become the weights, all 1.
				wgt = rows
				for k := range wgt {
					wgt[k] = 1
				}
			}
			sum := int64(wgt[write-1]) + int64(wgt[i])
			if sum > math.MaxInt32 {
				return nil, &WeightOverflowError{U: u, V: v}
			}
			wgt[write-1] = int32(sum)
		}
		lo = hi
	}
	xadj[n] = write
	if b.vwgt != nil && int32(len(b.vwgt)) != n {
		// Pad the lazily grown weight vector to its declared length.
		padded := make([]int32, n)
		copy(padded, b.vwgt)
		for i := len(b.vwgt); i < int(n); i++ {
			padded[i] = 1
		}
		b.vwgt = padded
	}
	g := &Graph{
		Xadj:   xadj,
		Adjncy: adj[:write:write],
		VWgt:   b.vwgt,
	}
	if wgt != nil {
		g.AdjWgt = wgt[:write:write]
	}
	return g, nil
}

// FromAdjacency builds a graph directly from per-node neighbor lists
// (convenience for tests). Lists may be asymmetric or contain duplicates;
// the builder normalizes them.
func FromAdjacency(lists [][]int32) *Graph {
	b := NewBuilder(int32(len(lists)))
	for u, l := range lists {
		for _, v := range l {
			if int32(u) < v { // add each undirected edge once
				b.AddEdge(int32(u), v)
			}
		}
	}
	return b.Finish()
}
