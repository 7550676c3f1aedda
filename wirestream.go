package oms

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"oms/internal/stream"
	"oms/internal/wire"
)

// WriteWireStream writes g as a v2 wire stream: one stream-header frame
// declaring the global stats, then one node frame per node in natural
// order — the same frames omsd's binary ingest route accepts and its
// WAL records, so a file written here can be replayed straight onto the
// network or fed to Partition via NewWireSource.
func WriteWireStream(w io.Writer, g *Graph) error {
	buf := wire.AppendFrame(nil, wire.AppendStreamHeaderPayload(nil, wire.StreamHeader{
		N:               g.NumNodes(),
		M:               g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(),
		TotalEdgeWeight: g.TotalEdgeWeight(),
	}))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		ew := g.EdgeWeights(u)
		if len(ew) == 0 {
			ew = nil
		}
		buf = wire.AppendNodeFrame(buf[:0], u, g.NodeWeight(u), g.Neighbors(u), ew)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteWireFile writes g as a v2 wire-stream file.
func WriteWireFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := WriteWireStream(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WireSource streams a v2 wire-stream file as an oms.Source: stats come
// from the header frame, each pass re-reads the node frames in file
// order. A pass decodes ahead of its visitor: one goroutine reads,
// checksums and decodes frames into a small ring of recycled batches
// while the caller's goroutine visits the nodes, so on two cores a pass
// costs the slower of decode and assignment per node rather than their
// sum. Assignment is the slower side: with the node decoder's inline
// varint fast paths, oms.Map of a 2^17-node edge-weighted RMAT file
// onto 4:16:8 ran at 1.26 M nodes/s against 0.92 M when decode bounded
// the pass (medians of 10 alternating pairs on a 2-core x86-64 host,
// every pair won). The file is input from outside the program, so
// every node id and neighbour is checked against the header's n, and
// each of the n nodes must appear exactly once. It implements Source.
type WireSource struct {
	Path string
}

// NewWireSource wraps the wire-stream file at path.
func NewWireSource(path string) *WireSource { return &WireSource{Path: path} }

// Stats implements Source: it reads the header frame only.
func (s *WireSource) Stats() (stream.Stats, error) {
	f, err := os.Open(s.Path)
	if err != nil {
		return stream.Stats{}, err
	}
	defer f.Close()
	rd := wire.NewReader(f)
	h, err := readWireHeader(rd)
	if err != nil {
		return stream.Stats{}, err
	}
	return stream.Stats{
		N:               h.N,
		M:               h.M,
		TotalNodeWeight: h.TotalNodeWeight,
		TotalEdgeWeight: h.TotalEdgeWeight,
	}, nil
}

// The decode-ahead ring: wireRing batches, each holding up to
// wireBatchNodes nodes whose slices point into the batch's own arena of
// about wireBatchInts int32s. Three would double-buffer; the fourth
// absorbs jitter between the two goroutines.
const (
	wireRing       = 4
	wireBatchNodes = 1024
	wireBatchInts  = 16 << 10
)

// wireBatch is one slot of the decode-ahead ring.
type wireBatch struct {
	arena wire.Arena
	nodes []wire.Node
}

// ForEach implements Source: one pass over the node frames, in file
// order. The header is read on the caller's goroutine; then a decoder
// goroutine reads, verifies and decodes frames into the ring while fn,
// the single consumer, is called for every node on the caller's
// goroutine, one node at a time and in file order. On a malformed
// frame, an id outside [0, n), a repeated id or a file that ends before
// n nodes, fn has seen exactly the nodes before the fault and ForEach
// returns an error that wraps wire.ErrMalformed. The decoder stops at
// the end of the file, on an error, or when fn panics, and ForEach
// joins it before it closes the file and returns.
func (s *WireSource) ForEach(fn stream.Visitor) error {
	f, err := os.Open(s.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := wire.NewReader(f)
	h, err := readWireHeader(rd)
	if err != nil {
		return err
	}
	// Each channel can hold the whole ring, so no send on either blocks.
	full := make(chan *wireBatch, wireRing)
	free := make(chan *wireBatch, wireRing)
	for range wireRing {
		free <- &wireBatch{
			arena: wire.Arena{Ints: make([]int32, 0, wireBatchInts)},
			nodes: make([]wire.Node, 0, wireBatchNodes),
		}
	}
	done := make(chan struct{})
	var decodeErr error
	go func() {
		defer close(full)
		decodeErr = s.decode(rd, h.N, free, full, done)
	}()
	defer func() {
		// After a normal pass full is already closed and drained; after a
		// panic in fn this stops the decoder and waits for it to exit.
		close(done)
		for range full {
		}
	}()
	for b := range full {
		for _, nd := range b.nodes {
			fn(nd.U, nd.W, nd.Adj, nd.EW)
		}
		free <- b
	}
	return decodeErr
}

// decode is ForEach's decoder goroutine: it fills batches taken from
// free with the node frames of rd and sends each to full, checking every
// id against n. It returns at the end of the file, at the first fault
// (after sending the nodes before it), or when done closes.
func (s *WireSource) decode(rd *wire.Reader, n int32, free <-chan *wireBatch, full chan<- *wireBatch, done <-chan struct{}) error {
	seen := make([]uint64, (int(n)+63)/64)
	count := int32(0)
	var b *wireBatch
	defer func() {
		if b != nil && len(b.nodes) > 0 {
			full <- b
		}
	}()
	for {
		payload, _, err := rd.NextFrame()
		if err == io.EOF {
			if count != n {
				return fmt.Errorf("wire stream %s: ends after %d of %d nodes: %w", s.Path, count, n, wire.ErrMalformed)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("wire stream %s: %w", s.Path, err)
		}
		// A node needs at most one int per payload byte, so this keeps
		// the arena from growing unless one node outweighs a batch.
		if b != nil && (len(b.nodes) == wireBatchNodes || len(b.arena.Ints)+len(payload) > cap(b.arena.Ints)) {
			full <- b
			b = nil
		}
		if b == nil {
			select {
			case b = <-free:
			case <-done:
				return nil
			}
			b.arena.Reset()
			b.nodes = b.nodes[:0]
		}
		nd, err := wire.DecodeNodeInto(&b.arena, payload)
		rd.Arena.Reset()
		if err != nil {
			return fmt.Errorf("wire stream %s: node frame %d: %w", s.Path, count, err)
		}
		if uint32(nd.U) >= uint32(n) {
			return fmt.Errorf("wire stream %s: node %d outside [0, %d): %w", s.Path, nd.U, n, wire.ErrMalformed)
		}
		for _, v := range nd.Adj {
			if uint32(v) >= uint32(n) {
				return fmt.Errorf("wire stream %s: node %d: neighbour %d outside [0, %d): %w", s.Path, nd.U, v, n, wire.ErrMalformed)
			}
		}
		if seen[nd.U>>6]&(1<<(nd.U&63)) != 0 {
			return fmt.Errorf("wire stream %s: node %d appears twice: %w", s.Path, nd.U, wire.ErrMalformed)
		}
		seen[nd.U>>6] |= 1 << (nd.U & 63)
		count++
		b.nodes = append(b.nodes, nd)
	}
}

// ForEachParallel implements Source. Frame decoding is inherently
// sequential (frames are self-delimiting) and already runs on a core of
// its own, so the whole pass is ForEach's single in-order consumer on
// worker 0 whatever threads asks for: oms.Partition and oms.Map with
// Threads > 1 over a wire file assign on one worker.
func (s *WireSource) ForEachParallel(threads int, fn stream.ParallelVisitor) error {
	return s.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		fn(0, u, vwgt, adj, ewgt)
	})
}

// readWireHeader reads the mandatory leading stream-header frame.
func readWireHeader(rd *wire.Reader) (wire.StreamHeader, error) {
	payload, _, err := rd.NextFrame()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return wire.StreamHeader{}, fmt.Errorf("wire stream: empty file: %w", wire.ErrMalformed)
		}
		return wire.StreamHeader{}, err
	}
	h, err := wire.DecodeStreamHeaderPayload(payload)
	if err != nil {
		return wire.StreamHeader{}, fmt.Errorf("wire stream: missing header frame: %w", err)
	}
	rd.Arena.Reset()
	return h, nil
}
