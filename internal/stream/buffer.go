package stream

import "fmt"

// Buffer is the push-source adapter: a Source populated one node at a
// time by Append instead of pulled from a graph or file. It backs the
// push-based sessions — every node a client pushes is (optionally)
// recorded here, so the multi-pass machinery built for pull sources
// (Restream, quality metrics over a second pass) works unchanged on
// pushed streams. Replay order is arrival order, which for a push stream
// IS the natural stream order of the one-pass model.
type Buffer struct {
	stats Stats

	ids  []int32
	vwgt []int32
	off  []int64 // per recorded node, offsets into adj/ewgt; len = count+1
	adj  []int32
	ewgt []int32 // nil until the first weighted append
}

// NewBuffer prepares a push source for a stream with the given declared
// stats (the same up-front quantities every one-pass partitioner needs).
// Storage grows with what is actually pushed, not with the declared N —
// the declaration is a claim, not an allocation.
func NewBuffer(st Stats) *Buffer {
	return &Buffer{stats: st, off: make([]int64, 1)}
}

// Append records one pushed node. The adjacency slices are copied, so
// callers may reuse them. Mixing weighted and unweighted appends is
// allowed; once any edge weight arrives, unweighted edges replay as 1.
func (b *Buffer) Append(u int32, vwgt int32, adj []int32, ewgt []int32) {
	if ewgt != nil && len(ewgt) != len(adj) {
		panic(fmt.Sprintf("stream: node %d has %d edge weights for %d edges", u, len(ewgt), len(adj)))
	}
	b.ids = append(b.ids, u)
	b.vwgt = append(b.vwgt, vwgt)
	b.adj = append(b.adj, adj...)
	if ewgt == nil && b.ewgt != nil {
		for range adj {
			b.ewgt = append(b.ewgt, 1)
		}
	} else if ewgt != nil {
		if b.ewgt == nil {
			// Backfill unit weights for everything recorded so far.
			b.ewgt = make([]int32, b.off[len(b.off)-1], cap(b.adj))
			for i := range b.ewgt {
				b.ewgt[i] = 1
			}
		}
		b.ewgt = append(b.ewgt, ewgt...)
	}
	b.off = append(b.off, int64(len(b.adj)))
}

// Stats implements Source, returning the declared stream stats.
func (b *Buffer) Stats() (Stats, error) { return b.stats, nil }

// ForEach implements Source: one pass over the recorded nodes in arrival
// order.
func (b *Buffer) ForEach(fn Visitor) error {
	for i, u := range b.ids {
		lo, hi := b.off[i], b.off[i+1]
		var ewgt []int32
		if b.ewgt != nil {
			ewgt = b.ewgt[lo:hi]
		}
		fn(u, b.vwgt[i], b.adj[lo:hi], ewgt)
	}
	return nil
}
