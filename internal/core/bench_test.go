package core

import (
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/stream"
)

// BenchmarkAssignWalk times one sequential pass of the walk over a graph
// held in memory, so no decode is in the figure, on the two library
// workloads' shapes: the deep base-4 tree of nh-OMS at k = 4096 over a
// low-degree RGG, and the shallow 4:16:8 mapping over an edge-weighted,
// skewed RMAT (duplicate edges merge into weights). Graph generation and
// New are outside the timer; each iteration is one fresh run.
//
//	go test -run '^$' -bench '^BenchmarkAssignWalk$' -count 10 ./internal/core
func BenchmarkAssignWalk(b *testing.B) {
	cases := []struct {
		name  string
		graph func() *graph.Graph
		tree  *hierarchy.Tree
	}{
		{"rgg-2^19-k4096", func() *graph.Graph { return gen.RandomGeometric(1<<19, 0.55, 4242) }, hierarchy.BuildArtificial(4096, 4)},
		{"rmat-2^17-2^21-4:16:8", func() *graph.Graph { return gen.RMAT(1<<17, 1<<21, gen.SocialRMAT, 9824) }, hierarchy.FromSpec(hierarchy.MustSpec("4:16:8"))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := c.graph()
			src := stream.NewMemory(g)
			st, err := src.Stats()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o, err := New(c.tree, st, Config{Epsilon: 0.03})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := o.Run(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumNodes()), "ns/node")
		})
	}
}
