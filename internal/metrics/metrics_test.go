package metrics

import (
	"math"
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/util"
)

func TestEdgeCutPath(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Finish()
	if c := EdgeCut(g, []int32{0, 0, 1, 1}); c != 1 {
		t.Fatalf("cut %d want 1", c)
	}
	if c := EdgeCut(g, []int32{0, 1, 0, 1}); c != 3 {
		t.Fatalf("cut %d want 3", c)
	}
	if c := EdgeCut(g, []int32{0, 0, 0, 0}); c != 0 {
		t.Fatalf("cut %d want 0", c)
	}
}

func TestEdgeCutWeighted(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 2, 7)
	g := b.Finish()
	if c := EdgeCut(g, []int32{0, 0, 1}); c != 7 {
		t.Fatalf("cut %d want 7", c)
	}
}

func TestBlockLoads(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetNodeWeight(3, 10)
	g := b.Finish()
	loads := BlockLoads(g, []int32{0, 1, 1, 0}, 2)
	if loads[0] != 11 || loads[1] != 2 {
		t.Fatalf("loads %v", loads)
	}
}

func TestImbalance(t *testing.T) {
	g := graph.NewBuilder(4).Finish()
	// Perfect balance.
	if im := Imbalance(g, []int32{0, 0, 1, 1}, 2); im != 0 {
		t.Fatalf("imbalance %v want 0", im)
	}
	// 3-1 split: max 3 vs avg 2 -> 0.5.
	if im := Imbalance(g, []int32{0, 0, 0, 1}, 2); math.Abs(im-0.5) > 1e-12 {
		t.Fatalf("imbalance %v want 0.5", im)
	}
}

func TestCheckBalanced(t *testing.T) {
	g := graph.NewBuilder(10).Finish()
	parts := []int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	if err := CheckBalanced(g, parts, 2, 0.03); err != nil {
		t.Fatal(err)
	}
	bad := []int32{0, 0, 0, 0, 0, 0, 0, 1, 1, 1}
	if err := CheckBalanced(g, bad, 2, 0.03); err == nil {
		t.Fatal("7-3 split accepted with eps=0.03")
	}
	if err := CheckBalanced(g, []int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 5}, 2, 0.03); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if err := CheckBalanced(g, []int32{0}, 2, 0.03); err == nil {
		t.Fatal("wrong-length parts accepted")
	}
}

func TestMappingCostSmall(t *testing.T) {
	// Two PEs in one processor, two in another: S=2:2, D=1:10.
	top := hierarchy.MustTopology(hierarchy.MustSpec("2:2"), hierarchy.MustDistances("1:10"))
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // same PE -> 0
	b.AddEdge(1, 2) // PEs 0,1 same processor -> 1
	b.AddEdge(2, 3) // PEs 1,3 different processors -> 10
	g := b.Finish()
	parts := []int32{0, 0, 1, 3}
	if J := MappingCost(g, parts, top); J != 11 {
		t.Fatalf("J=%v want 11", J)
	}
}

func TestMappingCostBruteForce(t *testing.T) {
	// Cross-check against the paper's literal double sum over the
	// communication matrix (halved, since we count each edge once).
	top := hierarchy.MustTopology(hierarchy.MustSpec("2:2:2"), hierarchy.MustDistances("1:4:9"))
	g := gen.ErdosRenyi(30, 100, 5)
	parts := make([]int32, 30)
	for u := range parts {
		parts[u] = int32(u) % top.Spec.K()
	}
	// C_uv is the edge weight (duplicate ER samples merge to weight 2).
	weight := func(u, v int32) float64 {
		adj := g.Neighbors(u)
		ew := g.EdgeWeights(u)
		for i, x := range adj {
			if x == v {
				if ew != nil {
					return float64(ew[i])
				}
				return 1
			}
		}
		return 0
	}
	want := 0.0
	for u := int32(0); u < 30; u++ {
		for v := int32(0); v < 30; v++ {
			if u == v {
				continue
			}
			want += weight(u, v) * top.PEDistance(parts[u], parts[v])
		}
	}
	want /= 2
	if got := MappingCost(g, parts, top); math.Abs(got-want) > 1e-9 {
		t.Fatalf("J=%v want %v", got, want)
	}
}

func TestMappingCostZeroWhenTogether(t *testing.T) {
	top := hierarchy.MustTopology(hierarchy.MustSpec("2:2"), hierarchy.MustDistances("1:10"))
	g := gen.ErdosRenyi(20, 50, 1)
	parts := make([]int32, 20) // all on PE 0
	if J := MappingCost(g, parts, top); J != 0 {
		t.Fatalf("J=%v want 0", J)
	}
}

func TestGeoMean(t *testing.T) {
	if gm := GeoMean([]float64{2, 8}); math.Abs(gm-4) > 1e-12 {
		t.Fatalf("geomean %v want 4", gm)
	}
	if gm := GeoMean([]float64{5}); math.Abs(gm-5) > 1e-12 {
		t.Fatalf("geomean %v want 5", gm)
	}
	if gm := GeoMean(nil); gm != 0 {
		t.Fatalf("geomean(nil) %v", gm)
	}
	// Zero clamping keeps the mean finite.
	if gm := GeoMean([]float64{0, 4}); gm <= 0 || math.IsInf(gm, 0) || math.IsNaN(gm) {
		t.Fatalf("geomean with zero: %v", gm)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean(nil) %v", m)
	}
}

func TestImprovement(t *testing.T) {
	// A=50 vs B=100 (lower better): A is 100% better.
	if imp := Improvement(100, 50); math.Abs(imp-100) > 1e-9 {
		t.Fatalf("improvement %v want 100", imp)
	}
	// A twice as bad: -50%.
	if imp := Improvement(100, 200); math.Abs(imp+50) > 1e-9 {
		t.Fatalf("improvement %v want -50", imp)
	}
}

func TestPerformanceProfile(t *testing.T) {
	values := map[string][]float64{
		"A": {1, 2, 10}, // best on inst 0; 2x on 1; 10x on 2
		"B": {2, 1, 1},  // best on 1 and 2
	}
	p := PerformanceProfile(values, []float64{1, 2, 4, 16})
	a := p.Fraction["A"]
	if a[0] != 1.0/3 {
		t.Fatalf("A tau=1: %v want 1/3", a[0])
	}
	if a[1] != 2.0/3 {
		t.Fatalf("A tau=2: %v want 2/3", a[1])
	}
	if a[3] != 1 {
		t.Fatalf("A tau=16: %v want 1", a[3])
	}
	bf := p.Fraction["B"]
	if bf[0] != 2.0/3 || bf[1] != 1 {
		t.Fatalf("B fractions %v", bf)
	}
}

func TestPerformanceProfileZeroBest(t *testing.T) {
	values := map[string][]float64{
		"A": {0},
		"B": {5},
	}
	p := PerformanceProfile(values, []float64{1, 1024})
	if p.Fraction["A"][0] != 1 {
		t.Fatal("zero-cut winner should be within tau=1")
	}
	if p.Fraction["B"][1] != 0 {
		t.Fatal("finite loser vs zero best should never qualify")
	}
}

func TestDefaultTaus(t *testing.T) {
	taus := DefaultTaus(128)
	if taus[0] != 1 || taus[len(taus)-1] != 128 {
		t.Fatalf("taus %v", taus)
	}
}

func TestSharedLevelAndLevelCuts(t *testing.T) {
	top := hierarchy.MustTopology(hierarchy.MustSpec("2:2"), hierarchy.MustDistances("1:10"))
	// PEs: 0,1 share level 0; 0,2 share level 1 only.
	if top.SharedLevel(0, 0) != -1 {
		t.Fatal("same PE should be level -1")
	}
	if top.SharedLevel(0, 1) != 0 || top.SharedLevel(2, 3) != 0 {
		t.Fatal("processor-sharing PEs should be level 0")
	}
	if top.SharedLevel(0, 2) != 1 || top.SharedLevel(1, 3) != 1 {
		t.Fatal("node-sharing PEs should be level 1")
	}
	// Path 0-1-2-3 mapped one node per PE: edges (0,1) level 0,
	// (1,2) level 1, (2,3) level 0.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Finish()
	parts := []int32{0, 1, 2, 3}
	cuts := LevelCuts(g, parts, top)
	if cuts[0] != 2 || cuts[1] != 1 {
		t.Fatalf("level cuts %v, want [2 1]", cuts)
	}
	// Weighted sum equals J.
	j := MappingCost(g, parts, top)
	if got := cuts[0]*1 + cuts[1]*10; got != j {
		t.Fatalf("levels x distances %v != J %v", got, j)
	}
}

func TestLevelCutsSumEqualsEdgeCut(t *testing.T) {
	g := gen.RandomGeometric(2000, 0.55, 3)
	top := hierarchy.MustTopology(hierarchy.MustSpec("4:4:4"), hierarchy.MustDistances("1:10:100"))
	parts := make([]int32, g.NumNodes())
	rng := util.NewRNG(5)
	for u := range parts {
		parts[u] = int32(rng.Intn(64))
	}
	cuts := LevelCuts(g, parts, top)
	var sum float64
	for _, c := range cuts {
		sum += c
	}
	if int64(sum) != EdgeCut(g, parts) {
		t.Fatalf("level cuts sum %v != edge cut %d", sum, EdgeCut(g, parts))
	}
}
