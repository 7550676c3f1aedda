// Package graphio reads and writes graphs in the METIS ascii format (the
// "vertex-stream format" the paper converts its instances to) and reads
// plain edge lists. The METIS scanner is also the backing parser for
// disk-based streaming (internal/stream).
package graphio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"oms/internal/graph"
)

// Header is the first non-comment line of a METIS file.
type Header struct {
	N int32 // number of nodes
	M int64 // number of undirected edges
	// Fmt is the METIS format code: bit 0 = edge weights present,
	// bit 1 = node weights present (after optional node size, which we do
	// not support), e.g. "011" means node+edge weights.
	HasEdgeWeights bool
	HasNodeWeights bool
	NCon           int // number of node weight constraints; only 1 supported
}

// ParseHeader parses the METIS header line.
func ParseHeader(line string) (Header, error) {
	fields := splitFields(nil, line)
	if len(fields) < 2 {
		return Header{}, fmt.Errorf("graphio: header needs at least 2 fields, got %q", line)
	}
	n, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil || n < 0 {
		return Header{}, fmt.Errorf("graphio: bad node count %q", fields[0])
	}
	m, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || m < 0 {
		return Header{}, fmt.Errorf("graphio: bad edge count %q", fields[1])
	}
	h := Header{N: int32(n), M: m, NCon: 1}
	if len(fields) >= 3 {
		code := fields[2]
		// The format code is read right-to-left: last digit = edge
		// weights, second-to-last = node weights.
		if len(code) == 0 || len(code) > 3 {
			return Header{}, fmt.Errorf("graphio: bad fmt code %q", code)
		}
		for _, c := range code {
			if c != '0' && c != '1' {
				return Header{}, fmt.Errorf("graphio: bad fmt code %q", code)
			}
		}
		h.HasEdgeWeights = code[len(code)-1] == '1'
		if len(code) >= 2 {
			h.HasNodeWeights = code[len(code)-2] == '1'
		}
	}
	if len(fields) >= 4 {
		ncon, err := strconv.Atoi(fields[3])
		if err != nil || ncon < 1 {
			return Header{}, fmt.Errorf("graphio: bad ncon %q", fields[3])
		}
		if ncon != 1 {
			return Header{}, fmt.Errorf("graphio: ncon=%d unsupported (only 1)", ncon)
		}
		h.NCon = ncon
	}
	return h, nil
}

// ReadMetis parses a whole METIS graph from r. The result passes
// graph.Validate (the reader funnels edges through the builder, which
// symmetrizes and deduplicates, tolerating slightly inconsistent files).
func ReadMetis(r io.Reader) (*graph.Graph, error) {
	sc, err := NewMetisScanner(r)
	if err != nil {
		return nil, err
	}
	h := sc.Header()
	b := graph.NewBuilder(h.N)
	// The reserve is a performance hint, so cap it: a header may claim
	// any edge count, and pre-allocating gigabytes on the header's word
	// alone would let a short malformed file exhaust memory before the
	// body disproves it (the builder grows by append past the hint).
	b.Reserve(int(min(h.M, 1<<20)))
	u := int32(0)
	for sc.Next() {
		if h.HasNodeWeights {
			b.SetNodeWeight(u, sc.NodeWeight())
		}
		adj, w := sc.Adjacency()
		for i, v := range adj {
			if v > u || v == u { // each undirected edge once; loops dropped by builder
				if w != nil {
					b.AddWeightedEdge(u, v, w[i])
				} else {
					b.AddEdge(u, v)
				}
			}
		}
		u++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if u != h.N {
		return nil, fmt.Errorf("graphio: header says %d nodes, file has %d adjacency lines", h.N, u)
	}
	g, err := b.Build()
	if err != nil {
		return nil, overflowError(err, func(id int32) int64 { return int64(id) + 1 })
	}
	if g.NumEdges() != h.M {
		// Tolerate, but only for files with duplicate/self edges; strict
		// inputs produced by WriteMetis always round-trip exactly.
		if g.NumEdges() > h.M {
			return nil, fmt.Errorf("graphio: file has %d edges, header claims %d", g.NumEdges(), h.M)
		}
	}
	return g, nil
}

// overflowError rewrites the builder's merged-weight overflow to name the
// edge by the ids of the file it came from.
func overflowError(err error, fileID func(int32) int64) error {
	var ov *graph.WeightOverflowError
	if errors.As(err, &ov) {
		return fmt.Errorf("graphio: edge {%d,%d}: parallel edge weights sum past %d", fileID(ov.U), fileID(ov.V), math.MaxInt32)
	}
	return err
}

// WriteMetis writes g in METIS format, emitting weight sections only when
// the graph carries non-unit weights.
func WriteMetis(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmtCode := ""
	hasE, hasV := g.AdjWgt != nil, g.VWgt != nil
	switch {
	case hasV && hasE:
		fmtCode = " 011"
	case hasV:
		fmtCode = " 010"
	case hasE:
		fmtCode = " 001"
	}
	if _, err := fmt.Fprintf(bw, "%d %d%s\n", g.NumNodes(), g.NumEdges(), fmtCode); err != nil {
		return err
	}
	var buf []byte
	for u := int32(0); u < g.NumNodes(); u++ {
		buf = buf[:0]
		if hasV {
			buf = strconv.AppendInt(buf, int64(g.VWgt[u]), 10)
		}
		adj := g.Neighbors(u)
		ew := g.EdgeWeights(u)
		for i, v := range adj {
			if len(buf) > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendInt(buf, int64(v)+1, 10) // METIS is 1-indexed
			if hasE {
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(ew[i]), 10)
			}
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MetisScanner streams a METIS file one node at a time without holding the
// graph in memory: the core of disk-based one-pass partitioning. Adjacency
// slices returned by Adjacency are valid until the next call to Next.
type MetisScanner struct {
	br     *bufio.Reader
	header Header
	node   int32
	vwgt   int32
	adj    []int32
	wgt    []int32
	fields []string // Next's scratch, reused line to line
	err    error
	done   bool
}

// NewMetisScanner reads the header and prepares per-node iteration.
func NewMetisScanner(r io.Reader) (*MetisScanner, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	line, err := nextContentLine(br)
	if err != nil {
		return nil, fmt.Errorf("graphio: missing header: %w", err)
	}
	h, err := ParseHeader(line)
	if err != nil {
		return nil, err
	}
	return &MetisScanner{br: br, header: h, node: -1}, nil
}

// Header returns the parsed file header.
func (s *MetisScanner) Header() Header { return s.header }

// Next advances to the next node's adjacency line. It returns false at end
// of input or on error (check Err).
func (s *MetisScanner) Next() bool {
	if s.done || s.err != nil {
		return false
	}
	if s.node+1 >= s.header.N {
		s.done = true
		return false
	}
	line, err := nextAdjacencyLine(s.br)
	if err != nil {
		if err == io.EOF {
			s.err = fmt.Errorf("graphio: unexpected EOF after %d of %d nodes", s.node+1, s.header.N)
		} else {
			s.err = err
		}
		return false
	}
	s.node++
	s.adj = s.adj[:0]
	s.wgt = s.wgt[:0]
	s.vwgt = 1
	s.fields = splitFields(s.fields[:0], line)
	fields := s.fields
	i := 0
	if s.header.HasNodeWeights {
		if len(fields) == 0 {
			s.err = fmt.Errorf("graphio: node %d: missing node weight", s.node)
			return false
		}
		v, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil || v < 0 {
			s.err = fmt.Errorf("graphio: node %d: bad node weight %q", s.node, fields[0])
			return false
		}
		s.vwgt = int32(v)
		i = 1
	}
	for i < len(fields) {
		v, err := strconv.ParseInt(fields[i], 10, 32)
		if err != nil || v < 1 || int32(v) > s.header.N {
			s.err = fmt.Errorf("graphio: node %d: bad neighbor %q", s.node, fields[i])
			return false
		}
		s.adj = append(s.adj, int32(v-1))
		i++
		if s.header.HasEdgeWeights {
			if i >= len(fields) {
				s.err = fmt.Errorf("graphio: node %d: missing edge weight", s.node)
				return false
			}
			w, err := strconv.ParseInt(fields[i], 10, 32)
			if err != nil || w < 1 {
				s.err = fmt.Errorf("graphio: node %d: bad edge weight %q", s.node, fields[i])
				return false
			}
			s.wgt = append(s.wgt, int32(w))
			i++
		}
	}
	return true
}

// Node returns the current node id (0-indexed).
func (s *MetisScanner) Node() int32 { return s.node }

// NodeWeight returns the current node's weight (1 if the file has none).
func (s *MetisScanner) NodeWeight() int32 { return s.vwgt }

// Adjacency returns the current adjacency and parallel edge weights (nil
// if the file carries none). Slices are reused by Next.
func (s *MetisScanner) Adjacency() ([]int32, []int32) {
	if s.header.HasEdgeWeights {
		return s.adj, s.wgt
	}
	return s.adj, nil
}

// Err returns the first error encountered.
func (s *MetisScanner) Err() error { return s.err }

// nextContentLine returns the next line that is not blank or a '%' comment
// (used for the header, where blank lines carry no meaning).
func nextContentLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		if len(line) == 0 && err != nil {
			return "", err
		}
		trimmed := trimSpace(line)
		if len(trimmed) == 0 || trimmed[0] == '%' {
			if err != nil {
				return "", io.EOF
			}
			continue
		}
		return trimmed, nil
	}
}

// nextAdjacencyLine returns the next non-comment line of the body. Blank
// lines are returned as empty strings: in METIS format they encode a node
// with no neighbors.
func nextAdjacencyLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		if len(line) == 0 && err != nil {
			return "", err
		}
		trimmed := trimSpace(line)
		if len(trimmed) > 0 && trimmed[0] == '%' {
			if err != nil {
				return "", io.EOF
			}
			continue
		}
		return trimmed, nil
	}
}

func trimSpace(s string) string {
	lo, hi := 0, len(s)
	for lo < hi && isSpace(s[lo]) {
		lo++
	}
	for hi > lo && isSpace(s[hi-1]) {
		hi--
	}
	return s[lo:hi]
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// splitFields appends the whitespace-separated fields of s to out; the
// fields share s's bytes.
func splitFields(out []string, s string) []string {
	i := 0
	for i < len(s) {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		j := i
		for j < len(s) && !isSpace(s[j]) {
			j++
		}
		if j > i {
			out = append(out, s[i:j])
		}
		i = j
	}
	return out
}
