package mapping

import (
	"math"
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/metrics"
	"oms/internal/util"
)

func topo443() *hierarchy.Topology {
	return hierarchy.MustTopology(hierarchy.MustSpec("4:4:3"), hierarchy.MustDistances("1:10:100"))
}

func TestBuildBlockGraphSmall(t *testing.T) {
	// Path 0-1-2-3 partitioned as [0,0,1,1]: one cut edge between blocks
	// 0 and 1 of weight 1.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Finish()
	bg := BuildBlockGraph(g, []int32{0, 0, 1, 1}, 2)
	if len(bg.Adj[0]) != 1 || bg.Adj[0][0].To != 1 || bg.Adj[0][0].W != 1 {
		t.Fatalf("block 0 adjacency wrong: %+v", bg.Adj[0])
	}
	if len(bg.Adj[1]) != 1 || bg.Adj[1][0].To != 0 || bg.Adj[1][0].W != 1 {
		t.Fatalf("block 1 adjacency wrong: %+v", bg.Adj[1])
	}
}

func TestBuildBlockGraphAccumulatesWeights(t *testing.T) {
	// Two parallel-ish connections between the blocks plus an internal
	// edge that must not appear.
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 2, 5)
	b.AddWeightedEdge(1, 3, 7)
	b.AddWeightedEdge(0, 1, 9) // internal to block 0
	g := b.Finish()
	bg := BuildBlockGraph(g, []int32{0, 0, 1, 1}, 2)
	if len(bg.Adj[0]) != 1 || bg.Adj[0][0].W != 12 {
		t.Fatalf("expected accumulated weight 12, got %+v", bg.Adj[0])
	}
}

func TestCostJMatchesMetricsOnNodeGraph(t *testing.T) {
	// When every node is its own block, CostJ over the block graph equals
	// metrics.MappingCost over the node graph.
	g := gen.RandomGeometric(300, 0.55, 1)
	top := topo443()
	k := top.Spec.K() // 48
	parts := make([]int32, g.NumNodes())
	rng := util.NewRNG(3)
	for u := range parts {
		parts[u] = int32(rng.Intn(int(k)))
	}
	bg := BuildBlockGraph(g, parts, k)
	got := bg.CostJ(top, Identity(k))
	want := metrics.MappingCost(g, parts, top)
	if math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("CostJ %v != MappingCost %v", got, want)
	}
}

func TestSwapDeltaMatchesRecomputation(t *testing.T) {
	g := gen.RMAT(512, 3000, gen.SocialRMAT, 2)
	top := topo443()
	k := top.Spec.K()
	parts := make([]int32, g.NumNodes())
	rng := util.NewRNG(5)
	for u := range parts {
		parts[u] = int32(rng.Intn(int(k)))
	}
	bg := BuildBlockGraph(g, parts, k)
	pe := Identity(k)
	for trial := 0; trial < 50; trial++ {
		a := int32(rng.Intn(int(k)))
		b := int32(rng.Intn(int(k)))
		if a == b {
			continue
		}
		before := bg.CostJ(top, pe)
		delta := swapDelta(bg, top, pe, a, b)
		pe[a], pe[b] = pe[b], pe[a]
		after := bg.CostJ(top, pe)
		if math.Abs((after-before)-delta) > 1e-6*math.Max(1, before) {
			t.Fatalf("swap(%d,%d): delta %v but J moved %v", a, b, delta, after-before)
		}
	}
}

func TestGreedySwapNeverWorsens(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 4, 7)
	top := topo443()
	k := top.Spec.K()
	parts := make([]int32, g.NumNodes())
	rng := util.NewRNG(11)
	for u := range parts {
		parts[u] = int32(rng.Intn(int(k)))
	}
	bg := BuildBlockGraph(g, parts, k)
	pe := Identity(k)
	before := bg.CostJ(top, pe)
	GreedySwapRefine(bg, top, pe, 5)
	after := bg.CostJ(top, pe)
	if after > before {
		t.Fatalf("swap refinement worsened J: %v -> %v", before, after)
	}
	// pe must remain a permutation.
	seen := make([]bool, k)
	for _, p := range pe {
		if p < 0 || p >= k || seen[p] {
			t.Fatal("pe is not a permutation")
		}
		seen[p] = true
	}
}

func TestGreedySwapFixesScrambledGrid(t *testing.T) {
	// A 2D grid mapped block-contiguously has low J; scramble the PE
	// assignment and check swap refinement recovers most of the loss.
	g := gen.Grid2D(32, 32, false)
	top := hierarchy.MustTopology(hierarchy.MustSpec("4:4"), hierarchy.MustDistances("1:10"))
	k := top.Spec.K()
	parts, err := OfflineMap(g, top, Options{Epsilon: 0.03, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bg := BuildBlockGraph(g, parts, k)
	good := bg.CostJ(top, Identity(k))
	pe := Identity(k)
	rng := util.NewRNG(23)
	for i := len(pe) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pe[i], pe[j] = pe[j], pe[i]
	}
	scrambled := bg.CostJ(top, pe)
	if scrambled <= good {
		t.Skip("random shuffle happened to be good; nothing to test")
	}
	GreedySwapRefine(bg, top, pe, 50)
	refined := bg.CostJ(top, pe)
	if refined >= scrambled {
		t.Fatalf("refinement did not improve: %v -> %v", scrambled, refined)
	}
	// Recover at least half of the quality gap.
	if refined > good+(scrambled-good)/2 {
		t.Fatalf("refined J %v recovers too little of [%v..%v]", refined, good, scrambled)
	}
}

func TestOfflineMapRejectsEpsilon(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 1)
	for _, eps := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := OfflineMap(g, topo443(), Options{Epsilon: eps}); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
}

func TestOfflineMapBalancedAndInRange(t *testing.T) {
	g := gen.Delaunay(3000, 3)
	top := topo443()
	parts, err := OfflineMap(g, top, Options{Epsilon: 0.03, Seed: 1, SwapRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := top.Spec.K()
	for u, p := range parts {
		if p < 0 || p >= k {
			t.Fatalf("node %d mapped to PE %d outside [0,%d)", u, p, k)
		}
	}
	if err := metrics.CheckBalanced(g, parts, k, 0.03); err != nil {
		t.Fatal(err)
	}
}

func TestOfflineMapBeatsFlatIdentityMapping(t *testing.T) {
	// The reason hierarchical multi-section exists: its J must clearly
	// beat a flat k-way partition mapped blindly onto the PEs.
	g := gen.RandomGeometric(4000, 0.55, 9)
	top := topo443()
	k := top.Spec.K()
	hier, err := OfflineMap(g, top, Options{Epsilon: 0.03, Seed: 2, SwapRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	jHier := metrics.MappingCost(g, hier, top)

	flat := make([]int32, g.NumNodes())
	rng := util.NewRNG(31)
	for u := range flat {
		flat[u] = int32(rng.Intn(int(k)))
	}
	jRandom := metrics.MappingCost(g, flat, top)
	if jHier*2 >= jRandom {
		t.Fatalf("hierarchical J %v not clearly below random J %v", jHier, jRandom)
	}
}

func TestOfflineMapTinyGraph(t *testing.T) {
	// Fewer nodes than PEs: all nodes placed, all in range, no error.
	g := gen.ErdosRenyi(10, 15, 1)
	top := topo443() // k = 48 > 10
	parts, err := OfflineMap(g, top, Options{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	k := top.Spec.K()
	for _, p := range parts {
		if p < 0 || p >= k {
			t.Fatalf("PE %d out of range", p)
		}
	}
}

func TestApplyComposition(t *testing.T) {
	parts := []int32{0, 1, 2, 1}
	pe := []int32{2, 0, 1}
	Apply(parts, pe)
	want := []int32{2, 0, 1, 0}
	for i := range parts {
		if parts[i] != want[i] {
			t.Fatalf("Apply wrong at %d: got %v", i, parts)
		}
	}
}

func TestOfflineMapDeterministicPerSeedAboveFullScan(t *testing.T) {
	// Above fullScanK the swap refinement tries partners in block-graph
	// adjacency order, so that order must not come from map iteration:
	// one seed gives one mapping.
	g := gen.RMAT(4096, 32768, gen.SocialRMAT, 1)
	top := hierarchy.MustTopology(hierarchy.MustSpec("4:8:8"), hierarchy.MustDistances("1:10:100"))
	if top.Spec.K() <= fullScanK {
		t.Fatalf("k=%d does not exceed fullScanK=%d", top.Spec.K(), fullScanK)
	}
	opt := Options{Epsilon: 0.03, Seed: 1, SwapRounds: 3}
	first, err := OfflineMap(g, top, opt)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := OfflineMap(g, top, opt)
		if err != nil {
			t.Fatal(err)
		}
		for u := range first {
			if again[u] != first[u] {
				t.Fatalf("run %d: node %d mapped to PE %d, first run gave %d", run+1, u, again[u], first[u])
			}
		}
	}
}
