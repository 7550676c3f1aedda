package wire

import (
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
)

// benchGraph is one graph the codec benchmarks stream.
type benchGraph struct {
	name string
	g    *graph.Graph
}

// benchGraphs are the unweighted RGG of part_rgg_k4096's family (deltas
// of a spatially sorted graph, mostly one byte; short decimal ids) and
// an RMAT like map_rmat_disk's (skewed degrees, long deltas, and edge
// weights from its merged parallel edges).
func benchGraphs(b *testing.B) []benchGraph {
	gs := []benchGraph{
		{"rgg-2^16", gen.RandomGeometric(1<<16, 0.55, 1)},
		{"rmat-ew-2^16", gen.RMAT(1<<16, 1<<20, gen.SocialRMAT, 1)},
	}
	for i, tc := range gs {
		if weighted := tc.g.AdjWgt != nil; weighted != (i == 1) {
			b.Fatalf("%s: edge weights present: %v", tc.name, weighted)
		}
	}
	return gs
}

// nodePayloads encodes every node of g as one node-record payload,
// concatenated in stream order, with the offset each record ends at.
func nodePayloads(g *graph.Graph) ([]byte, []int) {
	var buf []byte
	var ends []int
	for u := range g.NumNodes() {
		buf = AppendNodePayload(buf, u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// BenchmarkDecodeNode decodes a whole stream of node records per
// iteration into one arena that resets every 1024 nodes, as a stream
// reader's does, over each of benchGraphs.
func BenchmarkDecodeNode(b *testing.B) {
	for _, tc := range benchGraphs(b) {
		b.Run(tc.name, func(b *testing.B) {
			buf, ends := nodePayloads(tc.g)
			var arena Arena
			decodeAll := func() {
				from := 0
				for i, end := range ends {
					if i%1024 == 0 {
						arena.Reset()
					}
					if _, n, err := decodeNode(&arena, buf[from:end]); err != nil || from+n != end {
						b.Fatalf("node %d: %v (%d of %d bytes)", i, err, n, end-from)
					}
					from = end
				}
			}
			decodeAll() // size the arena
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for range b.N {
				decodeAll()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ends)), "ns/node")
		})
	}
}

// nodeLines writes every node of g as one NDJSON line (the lines a
// client pushes), concatenated in stream order, with the offset each
// line ends at; the ends exclude the '\n', as a line scanner's do.
func nodeLines(g *graph.Graph) ([]byte, []int) {
	var buf []byte
	var ends []int
	for u := range g.NumNodes() {
		buf = AppendNodeLine(buf, u, 0, g.Neighbors(u), g.EdgeWeights(u))
		ends = append(ends, len(buf)-1)
	}
	return buf, ends
}

// BenchmarkNodeLine times the NDJSON node line both ways over each of
// benchGraphs: parse reads every line into one arena that resets every
// 1024 lines, as the server's ingest shim does per chunk, and write
// renders every node into one buffer that restarts every 1024 lines,
// as the client's push encoder does per body.
func BenchmarkNodeLine(b *testing.B) {
	for _, tc := range benchGraphs(b) {
		buf, ends := nodeLines(tc.g)
		b.Run("parse/"+tc.name, func(b *testing.B) {
			var arena Arena
			parseAll := func() {
				from := 0
				for i, end := range ends {
					if i%1024 == 0 {
						arena.Reset()
					}
					if _, ok := ParseNodeLine(buf[from:end], &arena); !ok {
						b.Fatalf("line %d %q refused", i, buf[from:end])
					}
					from = end + 1
				}
			}
			parseAll() // size the arena
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for range b.N {
				parseAll()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ends)), "ns/line")
		})
		b.Run("write/"+tc.name, func(b *testing.B) {
			g := tc.g
			out := make([]byte, 0, 2*len(buf)/len(ends)*1024)
			writeAll := func() {
				for u := range g.NumNodes() {
					if u%1024 == 0 {
						out = out[:0]
					}
					out = AppendNodeLine(out, u, 0, g.Neighbors(u), g.EdgeWeights(u))
				}
			}
			writeAll() // size the buffer
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for range b.N {
				writeAll()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ends)), "ns/line")
		})
	}
}

// BenchmarkAssignLine times the NDJSON assignment line both ways over
// 2^16 replies with blocks spread over k = 4096, as the server writes
// them and the client's reply reader parses them.
func BenchmarkAssignLine(b *testing.B) {
	const n, k = 1 << 16, 4096
	var buf []byte
	var ends []int
	for u := range int32(n) {
		buf = AppendAssignLine(buf, u, int32(uint32(u)*2654435761%k))
		ends = append(ends, len(buf)-1)
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for range b.N {
			from := 0
			for i, end := range ends {
				if _, _, ok := ParseAssignLine(buf[from:end]); !ok {
					b.Fatalf("line %d %q refused", i, buf[from:end])
				}
				from = end + 1
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/line")
	})
	b.Run("write", func(b *testing.B) {
		out := make([]byte, 0, 64<<10)
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for range b.N {
			for u := range int32(n) {
				if u%1024 == 0 {
					out = out[:0]
				}
				out = AppendAssignLine(out, u, int32(uint32(u)*2654435761%k))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/line")
	})
}
