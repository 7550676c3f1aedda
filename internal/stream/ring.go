package stream

import "oms/internal/wire"

// The decode-ahead ring: ringSize batches, each holding up to batchNodes
// nodes whose slices point into the batch's own arena of about
// batchInts int32s. Three would double-buffer; the fourth absorbs jitter
// between the two goroutines.
const (
	ringSize   = 4
	batchNodes = 1024
	batchInts  = 16 << 10
)

// Batch is one slot of a decode-ahead ring: consecutive nodes of a pass
// whose adjacency and edge-weight slices point into Arena.
type Batch struct {
	Arena wire.Arena
	Nodes []wire.Node
}

// add appends a node, copying adj and ewgt into the arena; a nil ewgt
// stays nil.
func (b *Batch) add(u, vwgt int32, adj, ewgt []int32) {
	nd := wire.Node{U: u, W: vwgt, Adj: b.copyInts(adj)}
	if ewgt != nil {
		nd.EW = b.copyInts(ewgt)
	}
	b.Nodes = append(b.Nodes, nd)
}

func (b *Batch) copyInts(s []int32) []int32 {
	lo := len(b.Arena.Ints)
	b.Arena.Ints = append(b.Arena.Ints, s...)
	return b.Arena.Ints[lo:len(b.Arena.Ints):len(b.Arena.Ints)]
}

// Ring is the producer's end of a decode-ahead pass (see DecodeAhead).
type Ring struct {
	full, free chan *Batch
	done       chan struct{}
	cur        *Batch
}

// Next returns the batch the producer's next node goes into, with room
// for ints more int32s in its arena; the producer appends that one node
// to it before it calls Next again. When the current batch is out of
// nodes or room it goes to the consumer and a recycled one takes its
// place. A node larger than a whole batch gets a batch of its own, whose
// arena grows. Next returns nil once the consumer has stopped; the
// producer then returns.
func (r *Ring) Next(ints int) *Batch {
	if b := r.cur; b != nil && len(b.Nodes) > 0 && (len(b.Nodes) == batchNodes || len(b.Arena.Ints)+ints > cap(b.Arena.Ints)) {
		r.full <- b
		r.cur = nil
	}
	if r.cur == nil {
		select {
		case b := <-r.free:
			b.Arena.Reset()
			b.Nodes = b.Nodes[:0]
			r.cur = b
		case <-r.done:
			return nil
		}
	}
	return r.cur
}

// DecodeAhead is the one producer/consumer pipeline for reading a file:
// produce runs on a goroutine of its own and fills batches taken from
// r.Next, while fn, the single consumer, is called for every node on the
// caller's goroutine, one node at a time and in the order produced. On
// two cores a pass then costs the slower of decode and visit per node
// rather than their sum. The nodes produce added before it returns are
// all visited, so when it fails at node i fn has seen exactly the nodes
// before it, and DecodeAhead returns produce's error. The producer stops
// at the end of its input, on an error, or when fn panics, and
// DecodeAhead joins it before it returns or lets the panic through.
func DecodeAhead(fn Visitor, produce func(r *Ring) error) error {
	// Each channel can hold the whole ring, so no send on either blocks.
	r := &Ring{
		full: make(chan *Batch, ringSize),
		free: make(chan *Batch, ringSize),
		done: make(chan struct{}),
	}
	for range ringSize {
		r.free <- &Batch{
			Arena: wire.Arena{Ints: make([]int32, 0, batchInts)},
			Nodes: make([]wire.Node, 0, batchNodes),
		}
	}
	var err error
	go func() {
		defer close(r.full)
		err = produce(r)
		if b := r.cur; b != nil && len(b.Nodes) > 0 {
			r.full <- b
		}
	}()
	defer func() {
		// After a normal pass full is already closed and drained; after a
		// panic in fn this stops the producer and waits for it to exit.
		close(r.done)
		for range r.full {
		}
	}()
	for b := range r.full {
		for _, nd := range b.Nodes {
			fn(nd.U, nd.W, nd.Adj, nd.EW)
		}
		r.free <- b
	}
	return err
}
