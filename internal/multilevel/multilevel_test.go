package multilevel

import (
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/metrics"
	"oms/internal/onepass"
	"oms/internal/stream"
	"oms/internal/util"
)

func TestMatchingIsValid(t *testing.T) {
	g := gen.RandomGeometric(2000, 0.55, 1)
	match := heavyEdgeMatching(g, util.NewRNG(1), 1<<40)
	for u := int32(0); u < g.NumNodes(); u++ {
		m := match[u]
		if m != u {
			if match[m] != u {
				t.Fatalf("match not symmetric at %d", u)
			}
			if !g.HasEdge(u, m) {
				t.Fatalf("matched non-adjacent pair %d,%d", u, m)
			}
		}
	}
}

func TestMatchingRespectsWeightCap(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.SetNodeWeight(0, 10)
	b.SetNodeWeight(1, 10)
	g := b.Finish()
	match := heavyEdgeMatching(g, util.NewRNG(1), 15)
	if match[0] != 0 || match[1] != 1 {
		t.Fatal("overweight pair was matched")
	}
	if match[2] != 3 {
		t.Fatal("legal pair was not matched")
	}
}

func TestContractPreservesTotals(t *testing.T) {
	g := gen.Delaunay(1000, 3)
	match := heavyEdgeMatching(g, util.NewRNG(2), 1<<40)
	coarse, toCoarse, err := contract(g, match)
	if err != nil {
		t.Fatal(err)
	}
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
	if coarse.TotalNodeWeight() != g.TotalNodeWeight() {
		t.Fatalf("node weight %d -> %d", g.TotalNodeWeight(), coarse.TotalNodeWeight())
	}
	// Edge weight shrinks exactly by the weight of contracted edges.
	var matchedW int64
	for u := int32(0); u < g.NumNodes(); u++ {
		if m := match[u]; m > u {
			adj := g.Neighbors(u)
			ew := g.EdgeWeights(u)
			for i, v := range adj {
				if v == m {
					if ew != nil {
						matchedW += int64(ew[i])
					} else {
						matchedW++
					}
				}
			}
		}
	}
	if coarse.TotalEdgeWeight() != g.TotalEdgeWeight()-matchedW {
		t.Fatalf("edge weight %d -> %d, matched %d",
			g.TotalEdgeWeight(), coarse.TotalEdgeWeight(), matchedW)
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		if toCoarse[u] < 0 || toCoarse[u] >= coarse.NumNodes() {
			t.Fatal("toCoarse out of range")
		}
	}
}

func TestContractCutInvariant(t *testing.T) {
	// A partition of the coarse graph, pulled back to the fine graph,
	// must have exactly the same cut.
	g := gen.RandomGeometric(1500, 0.55, 5)
	match := heavyEdgeMatching(g, util.NewRNG(3), 1<<40)
	coarse, toCoarse, err := contract(g, match)
	if err != nil {
		t.Fatal(err)
	}
	cparts := make([]int32, coarse.NumNodes())
	rng := util.NewRNG(7)
	for i := range cparts {
		cparts[i] = int32(rng.Intn(4))
	}
	fparts := make([]int32, g.NumNodes())
	for u := range fparts {
		fparts[u] = cparts[toCoarse[u]]
	}
	if metrics.EdgeCut(coarse, cparts) != metrics.EdgeCut(g, fparts) {
		t.Fatal("projected cut differs from coarse cut")
	}
}

func TestCoarsenLadderShrinks(t *testing.T) {
	g := gen.Delaunay(4000, 9)
	levels, err := coarsen(g, 200, 1<<40, util.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 2 {
		t.Fatal("no coarsening happened")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].g.NumNodes() >= levels[i-1].g.NumNodes() {
			t.Fatal("level did not shrink")
		}
	}
	last := levels[len(levels)-1].g
	if last.NumNodes() > 2000 {
		t.Fatalf("coarsest still has %d nodes", last.NumNodes())
	}
}

func TestRefineLPImproves(t *testing.T) {
	g := gen.RandomGeometric(2000, 0.55, 11)
	parts := make([]int32, g.NumNodes())
	rng := util.NewRNG(13)
	for u := range parts {
		parts[u] = int32(rng.Intn(4))
	}
	caps := []int64{600, 600, 600, 600}
	before := metrics.EdgeCut(g, parts)
	refineLP(g, parts, 4, caps, 8, util.NewRNG(17))
	after := metrics.EdgeCut(g, parts)
	if after >= before {
		t.Fatalf("LP did not improve cut: %d -> %d", before, after)
	}
	loads := metrics.BlockLoads(g, parts, 4)
	for b, l := range loads {
		if l > caps[b] {
			t.Fatalf("block %d overweight after LP: %d > %d", b, l, caps[b])
		}
	}
}

func TestRebalanceEnforcesCaps(t *testing.T) {
	g := gen.ErdosRenyi(1000, 3000, 19)
	parts := make([]int32, 1000) // all in block 0: grossly unbalanced
	caps := []int64{300, 300, 300, 300}
	rebalance(g, parts, 4, caps)
	loads := metrics.BlockLoads(g, parts, 4)
	for b, l := range loads {
		if l > caps[b] {
			t.Fatalf("block %d still overweight: %d", b, l)
		}
	}
}

func TestPartitionBalancedAndBetterThanStreaming(t *testing.T) {
	// The role the comparator plays in the paper (KaMinPar): balanced and
	// clearly better cuts than the best streaming algorithm (Fennel). On
	// well-structured graphs it must also crush random assignment; on the
	// small RMAT expander no partitioner reaches random/2, so only the
	// Fennel ordering is required there.
	for _, tc := range []struct {
		name       string
		g          *graph.Graph
		k          int32
		beatRandom bool
	}{
		{"del-8", gen.Delaunay(3000, 1), 8, true},
		{"rgg-16", gen.RandomGeometric(3000, 0.55, 2), 16, true},
		{"rmat-7", gen.RMAT(2048, 10000, gen.SocialRMAT, 3), 7, false},
	} {
		parts, err := Partition(tc.g, tc.k, Options{Epsilon: 0.03, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := metrics.CheckBalanced(tc.g, parts, tc.k, 0.03); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := metrics.EdgeCut(tc.g, parts)
		src := stream.NewMemory(tc.g)
		st, err := src.Stats()
		if err != nil {
			t.Fatal(err)
		}
		fen, err := onepass.NewFennel(onepass.Config{K: tc.k, Epsilon: 0.03}, st, 1)
		if err != nil {
			t.Fatal(err)
		}
		fparts, err := onepass.Run(src, fen)
		if err != nil {
			t.Fatal(err)
		}
		if fcut := metrics.EdgeCut(tc.g, fparts); got >= fcut {
			t.Fatalf("%s: multilevel cut %d not below streaming Fennel %d", tc.name, got, fcut)
		}
		if tc.beatRandom {
			rng := util.NewRNG(1)
			rand := make([]int32, tc.g.NumNodes())
			for u := range rand {
				rand[u] = int32(rng.Intn(int(tc.k)))
			}
			if rnd := metrics.EdgeCut(tc.g, rand); got*2 >= rnd {
				t.Fatalf("%s: multilevel cut %d not clearly below random %d", tc.name, got, rnd)
			}
		}
	}
}

func TestPartitionGridOptimalShape(t *testing.T) {
	// A 32x32 grid split in 2 has an optimal cut of 32; multilevel
	// should land within 2x of it.
	g := gen.Grid2D(32, 32, false)
	parts, err := Partition(g, 2, Options{Epsilon: 0.03, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.CheckBalanced(g, parts, 2, 0.03); err != nil {
		t.Fatal(err)
	}
	if cut := metrics.EdgeCut(g, parts); cut > 64 {
		t.Fatalf("grid bisection cut %d, optimal is 32", cut)
	}
}

func TestPartitionErrors(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	if _, err := Partition(g, 0, Options{Epsilon: 0.03}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Partition(g, 100, Options{Epsilon: 0.03}); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Partition(g, 2, Options{Epsilon: -1}); err == nil {
		t.Fatal("negative eps accepted")
	}
}

func TestPartitionK1AndTiny(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	parts, err := Partition(g, 1, Options{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p != 0 {
			t.Fatal("k=1 should be all zeros")
		}
	}
	empty := graph.NewBuilder(0).Finish()
	if _, err := Partition(empty, 1, Options{Epsilon: 0.03}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDeterministicPerSeed(t *testing.T) {
	g := gen.Delaunay(1500, 7)
	a, _ := Partition(g, 8, Options{Epsilon: 0.03, Seed: 42})
	b, _ := Partition(g, 8, Options{Epsilon: 0.03, Seed: 42})
	for u := range a {
		if a[u] != b[u] {
			t.Fatal("same seed, different partitions")
		}
	}
}

func TestPartitionBeatsStreamingQuality(t *testing.T) {
	// The role the comparator plays in the paper: clearly better cuts
	// than one-pass streaming. Compare against a random-order greedy
	// proxy: cut should be much smaller than m/k-scaled random baseline,
	// and the grid test above pins near-optimality; here just check the
	// cut is low in absolute terms for a planar graph.
	g := gen.Delaunay(4000, 21)
	parts, err := Partition(g, 16, Options{Epsilon: 0.03, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cut := metrics.EdgeCut(g, parts)
	// A planar graph with n=4000 has m ~ 12000; a good 16-way partition
	// cuts a few percent. Guard at 15%.
	if float64(cut) > 0.15*float64(g.NumEdges()) {
		t.Fatalf("cut %d is %.1f%% of m — too high for multilevel on planar",
			cut, 100*float64(cut)/float64(g.NumEdges()))
	}
}
