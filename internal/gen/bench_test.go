package gen

import "testing"

// The generator benchmarks build the two benchmark-workload graphs at
// full size, so ns/op, B/op and allocs/op price one whole construction:
// drawing, ordering and Builder.Finish.

func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RMAT(1<<17, 1<<21, SocialRMAT, uint64(i)+1)
	}
}

func BenchmarkRandomGeometric(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomGeometric(1<<19, 0.55, uint64(i)+1)
	}
}
