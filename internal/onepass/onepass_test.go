package onepass

import (
	"math"
	"slices"
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/metrics"
	"oms/internal/stream"
)

func runOn(t *testing.T, g *graph.Graph, mk func(stream.Stats) Algorithm) []int32 {
	t.Helper()
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Run(src, mk(st))
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func mkHashing(cfg Config) func(stream.Stats) Algorithm {
	return func(st stream.Stats) Algorithm {
		h, err := NewHashing(cfg, st)
		if err != nil {
			panic(err)
		}
		return h
	}
}

func mkLDG(cfg Config) func(stream.Stats) Algorithm {
	return func(st stream.Stats) Algorithm {
		l, err := NewLDG(cfg, st)
		if err != nil {
			panic(err)
		}
		return l
	}
}

// mkFennel builds Fennel with the given threads, which NewFennel ignores.
func mkFennel(cfg Config, threads int) func(stream.Stats) Algorithm {
	return func(st stream.Stats) Algorithm {
		f, err := NewFennel(cfg, st, threads)
		if err != nil {
			panic(err)
		}
		return f
	}
}

func TestLmax(t *testing.T) {
	// ceil(1.03 * 100 / 4) = ceil(25.75) = 26.
	if l := Lmax(100, 4, 0.03); l != 26 {
		t.Fatalf("Lmax=%d want 26", l)
	}
	if l := Lmax(100, 4, 0); l != 25 {
		t.Fatalf("Lmax=%d want 25", l)
	}
	if l := Lmax(7, 2, 0); l != 4 {
		t.Fatalf("Lmax=%d want 4", l)
	}
}

func TestAlphaFormula(t *testing.T) {
	// alpha = sqrt(k) m / n^1.5; k=4, m=1000, n=100 -> 2*1000/1000 = 2.
	if a := Alpha(4, 1000, 100); math.Abs(a-2) > 1e-12 {
		t.Fatalf("alpha=%v want 2", a)
	}
	if a := Alpha(4, 1000, 0); a != 0 {
		t.Fatalf("alpha=%v want 0 for empty graph", a)
	}
}

func TestFennelScoreMath(t *testing.T) {
	// gain 3, load 4, alpha 1, gamma 1.5: 3 - 1.5*sqrt(4) = 0.
	s, ok := FennelScore(3, 4, 1, 100, 1, 1.5)
	if !ok || math.Abs(s) > 1e-12 {
		t.Fatalf("score=%v ok=%v", s, ok)
	}
	// Infeasible when capacity exceeded.
	if _, ok := FennelScore(3, 100, 1, 100, 1, 1.5); ok {
		t.Fatal("over-capacity move marked feasible")
	}
	// Non-default gamma path.
	s2, _ := FennelScore(0, 8, 1, 100, 1, 2)
	if math.Abs(s2+16) > 1e-12 { // -alpha*gamma*load^1 = -16
		t.Fatalf("gamma=2 score %v want -16", s2)
	}
}

func TestLDGScoreMath(t *testing.T) {
	s, ok := LDGScore(4, 25, 1, 100)
	if !ok || math.Abs(s-3) > 1e-12 {
		t.Fatalf("score=%v ok=%v want 3", s, ok)
	}
	if _, ok := LDGScore(4, 100, 1, 100); ok {
		t.Fatal("full block marked feasible")
	}
}

func TestConfigValidation(t *testing.T) {
	st := stream.Stats{N: 10, M: 20, TotalNodeWeight: 10, TotalEdgeWeight: 20}
	if _, err := NewHashing(Config{K: 0}, st); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewFennel(Config{K: 2, Epsilon: -1}, st, 1); err == nil {
		t.Fatal("negative eps accepted")
	}
}

func TestAllBalancedOnVariousGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rgg":  gen.RandomGeometric(2000, 0.55, 1),
		"rmat": gen.RMAT(2048, 8192, gen.SocialRMAT, 2),
		"del":  gen.Delaunay(2000, 3),
	}
	for name, g := range graphs {
		for _, k := range []int32{2, 7, 64} {
			cfg := Config{K: k, Epsilon: 0.03, Seed: 9}
			algs := map[string]func(stream.Stats) Algorithm{
				"hashing": mkHashing(cfg),
				"ldg":     mkLDG(cfg),
				"fennel":  mkFennel(cfg, 1),
			}
			for aname, mk := range algs {
				parts := runOn(t, g, mk)
				if err := metrics.CheckBalanced(g, parts, k, cfg.Epsilon); err != nil {
					t.Errorf("%s on %s k=%d: %v", aname, name, k, err)
				}
			}
		}
	}
}

func TestFennelBeatsHashingOnCut(t *testing.T) {
	g := gen.RandomGeometric(4000, 0.55, 7)
	cfg := Config{K: 16, Epsilon: 0.03, Seed: 1}
	hash := metrics.EdgeCut(g, runOn(t, g, mkHashing(cfg)))
	fennel := metrics.EdgeCut(g, runOn(t, g, mkFennel(cfg, 1)))
	ldg := metrics.EdgeCut(g, runOn(t, g, mkLDG(cfg)))
	if fennel >= hash/2 {
		t.Fatalf("fennel cut %d not clearly better than hashing %d", fennel, hash)
	}
	if ldg >= hash/2 {
		t.Fatalf("ldg cut %d not clearly better than hashing %d", ldg, hash)
	}
}

func TestHashingIgnoresStructure(t *testing.T) {
	// Hashing's assignment must not depend on adjacency: same node set,
	// different edges, same partition.
	g1 := gen.ErdosRenyi(500, 1000, 1)
	g2 := gen.ErdosRenyi(500, 1000, 99)
	cfg := Config{K: 8, Epsilon: 0.03, Seed: 5}
	p1 := runOn(t, g1, mkHashing(cfg))
	p2 := runOn(t, g2, mkHashing(cfg))
	for u := range p1 {
		if p1[u] != p2[u] {
			t.Fatal("hashing depends on structure")
		}
	}
}

func TestSequentialDeterminism(t *testing.T) {
	g := gen.RMAT(1024, 4096, gen.SocialRMAT, 4)
	cfg := Config{K: 13, Epsilon: 0.03, Seed: 3}
	for name, mk := range map[string]func(stream.Stats) Algorithm{
		"hashing": mkHashing(cfg), "ldg": mkLDG(cfg), "fennel": mkFennel(cfg, 1),
	} {
		a := runOn(t, g, mk)
		b := runOn(t, g, mk)
		for u := range a {
			if a[u] != b[u] {
				t.Fatalf("%s: sequential run not deterministic", name)
			}
		}
	}
}

// TestParallelStaysBalanced: every algorithm keeps every block within
// Lmax, and Fennel built for four threads, which it ignores, places every
// node as Fennel built for one does.
func TestParallelStaysBalanced(t *testing.T) {
	g := gen.RandomGeometric(5000, 0.55, 11)
	for _, k := range []int32{8, 64} {
		cfg := Config{K: k, Epsilon: 0.03, Seed: 2}
		one := runOn(t, g, mkFennel(cfg, 1))
		for name, mk := range map[string]func(stream.Stats) Algorithm{
			"hashing": mkHashing(cfg), "ldg": mkLDG(cfg), "fennel": mkFennel(cfg, 4),
		} {
			parts := runOn(t, g, mk)
			for u, p := range parts {
				if p < 0 || p >= k {
					t.Fatalf("%s k=%d: node %d unassigned", name, k, u)
				}
			}
			if err := metrics.CheckBalanced(g, parts, k, cfg.Epsilon); err != nil {
				t.Errorf("%s k=%d: %v", name, k, err)
			}
			if name == "fennel" && !slices.Equal(parts, one) {
				t.Errorf("k=%d: Fennel for four threads differs from Fennel for one", k)
			}
		}
	}
}

// TestParallelQualityClose: NewFennel ignores its threads argument, so
// Fennel built for eight threads has the cut of Fennel built for one and
// places every node the same way.
func TestParallelQualityClose(t *testing.T) {
	g := gen.RandomGeometric(5000, 0.55, 13)
	cfg := Config{K: 16, Epsilon: 0.03, Seed: 7}
	seq := runOn(t, g, mkFennel(cfg, 1))
	par := runOn(t, g, mkFennel(cfg, 8))
	seqCut, parCut := metrics.EdgeCut(g, seq), metrics.EdgeCut(g, par)
	if parCut != seqCut {
		t.Fatalf("cut %d for eight threads, %d for one", parCut, seqCut)
	}
	if !slices.Equal(par, seq) {
		t.Fatal("Fennel for eight threads placed some node differently from Fennel for one")
	}
}

func TestFennelAlphaValue(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 1)
	src := stream.NewMemory(g)
	st, _ := src.Stats()
	f, err := NewFennel(Config{K: 4, Epsilon: 0.03}, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Alpha(4, st.TotalEdgeWeight, st.N)
	if f.AlphaValue() != want {
		t.Fatalf("alpha %v want %v", f.AlphaValue(), want)
	}
}

func TestK1Trivial(t *testing.T) {
	g := gen.ErdosRenyi(50, 100, 1)
	cfg := Config{K: 1, Epsilon: 0.03}
	for _, mk := range []func(stream.Stats) Algorithm{mkHashing(cfg), mkLDG(cfg), mkFennel(cfg, 1)} {
		parts := runOn(t, g, mk)
		for _, p := range parts {
			if p != 0 {
				t.Fatal("k=1 must assign everything to block 0")
			}
		}
	}
}

func TestLDGPrefersNeighborBlock(t *testing.T) {
	// Stream a graph where node 2 has a neighbor in block of node 0:
	// LDG must co-locate when capacity allows.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	g := b.Finish()
	cfg := Config{K: 2, Epsilon: 1.0} // generous capacity
	parts := runOn(t, g, mkLDG(cfg))
	if parts[2] != parts[0] {
		t.Fatalf("LDG did not follow neighbor: %v", parts)
	}
	if parts[3] != parts[1] {
		t.Fatalf("LDG did not follow neighbor: %v", parts)
	}
}

func TestFennelPrefersNeighborBlock(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 2)
	b.AddEdge(0, 4)
	b.AddEdge(1, 3)
	b.AddEdge(1, 5)
	g := b.Finish()
	cfg := Config{K: 2, Epsilon: 1.0}
	parts := runOn(t, g, mkFennel(cfg, 1))
	if parts[2] != parts[0] || parts[4] != parts[0] {
		t.Fatalf("fennel split the star: %v", parts)
	}
}

func TestGainScratchEpochWrap(t *testing.T) {
	sc := newGainScratch(4)
	sc.epoch = ^uint32(0) - 1 // near wrap
	sc.reset()
	sc.add(2, 1)
	sc.reset() // wraps to 0 -> forced clear path
	if sc.get(2) != 0 {
		t.Fatal("stale gain after epoch wrap")
	}
	sc.add(1, 2.5)
	if sc.get(1) != 2.5 {
		t.Fatal("gain lost after wrap")
	}
}

func TestWeightedEdgesInfluenceGains(t *testing.T) {
	// Node 4 has weight-1 edge into block A and weight-10 edge into
	// block B: Fennel must pick B.
	b := graph.NewBuilder(5)
	b.AddWeightedEdge(0, 4, 1)
	b.AddWeightedEdge(1, 4, 10)
	b.AddEdge(0, 2) // pad so blocks diverge
	b.AddEdge(1, 3)
	g := b.Finish()
	cfg := Config{K: 2, Epsilon: 1.0}
	parts := runOn(t, g, mkFennel(cfg, 1))
	if parts[4] != parts[1] {
		t.Fatalf("fennel ignored edge weights: %v", parts)
	}
}
