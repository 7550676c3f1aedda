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
// order. It implements Source.
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
	rd := wire.NewReader(bufio.NewReaderSize(f, 64<<10))
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

// ForEach implements Source: one sequential pass over the node frames.
func (s *WireSource) ForEach(fn stream.Visitor) error {
	f, err := os.Open(s.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := wire.NewReader(bufio.NewReaderSize(f, 1<<20))
	if _, err := readWireHeader(rd); err != nil {
		return err
	}
	for {
		nd, _, err := rd.NextNode()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("wire stream %s: %w", s.Path, err)
		}
		fn(nd.U, nd.W, nd.Adj, nd.EW)
		rd.Arena.Reset()
	}
}

// ForEachParallel implements Source. Frame decoding is inherently
// sequential (frames are self-delimiting), so the whole pass runs on
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
