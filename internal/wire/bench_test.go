package wire

import (
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
)

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
// reader's does: the unweighted RGG of part_rgg_k4096's family (deltas
// of a spatially sorted graph, mostly one byte) and an RMAT like
// map_rmat_disk's (skewed degrees, long deltas, and edge weights from
// its merged parallel edges).
func BenchmarkDecodeNode(b *testing.B) {
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		weighted bool
	}{
		{"rgg-2^16", gen.RandomGeometric(1<<16, 0.55, 1), false},
		{"rmat-ew-2^16", gen.RMAT(1<<16, 1<<20, gen.SocialRMAT, 1), true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			if (tc.g.AdjWgt != nil) != tc.weighted {
				b.Fatalf("edge weights present: %v, want %v", tc.g.AdjWgt != nil, tc.weighted)
			}
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
