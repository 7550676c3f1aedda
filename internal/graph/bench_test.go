package graph

import (
	"testing"

	"oms/internal/util"
)

// BenchmarkBuilderFinish prices one Builder round trip (add 2^21 unit
// edges on 2^17 nodes, then Finish) over a fixed edge list drawn once.
// The endpoints are skewed toward low ids, so hub lists are long and
// some edges repeat and merge.
func BenchmarkBuilderFinish(b *testing.B) {
	const n, m = 1 << 17, 1 << 21
	rng := util.NewRNG(1)
	us := make([]int32, m)
	vs := make([]int32, m)
	for i := range us {
		us[i] = int32(rng.Float64() * rng.Float64() * n)
		vs[i] = int32(rng.Intn(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(n)
		bl.Reserve(m)
		for j := range us {
			bl.AddEdge(us[j], vs[j])
		}
		bl.Finish()
	}
}
