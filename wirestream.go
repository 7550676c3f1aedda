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
		buf = wire.AppendNodeFrame(buf[:0], u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
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
// order. A pass decodes ahead of its visitor through stream.DecodeAhead:
// one goroutine reads, checksums and decodes frames into a small ring of
// recycled batches while the caller's goroutine visits the nodes, so on
// two cores a pass costs the slower of decode and assignment per node
// rather than their sum. Assignment is the slower side: with the node
// decoder's inline varint fast paths, oms.Map of a 2^17-node
// edge-weighted RMAT file onto 4:16:8 ran at 1.26 M nodes/s against
// 0.92 M when decode bounded the pass (medians of 10 alternating pairs
// on a 2-core x86-64 host, every pair won). A pass assigns in file
// order on one worker. The file is input from outside the program, so
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

// ForEach implements Source: one pass over the node frames, in file
// order. The header is read on the caller's goroutine; then the frames
// are read, verified and decoded ahead of fn through stream.DecodeAhead,
// and fn is called for every node on the caller's goroutine, one node at
// a time and in file order. On a malformed frame, an id outside [0, n),
// a repeated id or a file that ends before n nodes, fn has seen exactly
// the nodes before the fault and ForEach returns an error that wraps
// wire.ErrMalformed.
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
	return stream.DecodeAhead(fn, func(r *stream.Ring) error { return s.decode(rd, h.N, r) })
}

// decode is ForEach's producer: it decodes the node frames of rd into
// the ring's batches, checking every id against n. It returns at the end
// of the file, at the first fault, or when the pass is abandoned.
func (s *WireSource) decode(rd *wire.Reader, n int32, r *stream.Ring) error {
	seen := make([]uint64, (int(n)+63)/64)
	count := int32(0)
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
		// A node needs at most one int per payload byte.
		b := r.Next(len(payload))
		if b == nil {
			return nil
		}
		nd, err := wire.DecodeNodeInto(&b.Arena, payload)
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
		b.Nodes = append(b.Nodes, nd)
	}
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
