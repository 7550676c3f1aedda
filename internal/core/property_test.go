package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/metrics"
	"oms/internal/stream"
)

// TestPropertyPartitionAlwaysValid drives nh-OMS with random shapes
// (k, base, scorer, hash layers) over random graphs: every run must
// produce a complete, in-range, balanced partition with exact tree-load
// bookkeeping.
func TestPropertyPartitionAlwaysValid(t *testing.T) {
	f := func(kSeed, baseSeed, scorerSeed, graphSeed uint32, hashSeed uint8) bool {
		k := int32(kSeed%500) + 1
		base := int32(baseSeed%7) + 2
		scorer := Scorer(scorerSeed % 3)
		g := gen.ErdosRenyi(int32(graphSeed%1500)+int32(k), 4000, uint64(graphSeed))
		src := stream.NewMemory(g)
		st, err := src.Stats()
		if err != nil {
			return false
		}
		tree := hierarchy.BuildArtificial(k, base)
		cfg := Config{
			Epsilon:    0.03,
			Scorer:     scorer,
			HashLayers: int(uint32(hashSeed) % uint32(tree.MaxDepth+1)),
			Seed:       uint64(graphSeed),
		}
		o, err := New(tree, st, cfg)
		if err != nil {
			t.Logf("New failed: %v", err)
			return false
		}
		parts, err := o.Run(src)
		if err != nil {
			t.Logf("Run failed: %v", err)
			return false
		}
		// Complete and in range.
		for _, p := range parts {
			if p < 0 || p >= k {
				t.Logf("part %d out of range k=%d", p, k)
				return false
			}
		}
		// Balanced.
		if err := metrics.CheckBalanced(g, parts, k, 0.03); err != nil {
			t.Logf("k=%d base=%d scorer=%v: %v", k, base, scorer, err)
			return false
		}
		// Tree loads consistent: every tree block's load equals the total
		// weight of nodes in its leaf range.
		loads := o.TreeLoads()
		leafLoad := make([]int64, k)
		for u, p := range parts {
			leafLoad[p] += int64(g.NodeWeight(int32(u)))
		}
		for v := int32(0); v < tree.NumNodes(); v++ {
			var want int64
			for leaf := tree.KL[v]; leaf <= tree.KR[v]; leaf++ {
				want += leafLoad[leaf]
			}
			if tree.Parent[v] < 0 {
				continue // root load is never charged
			}
			if loads[v] != want {
				t.Logf("tree block %d load %d != %d", v, loads[v], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 30,
		Rand:     rand.New(rand.NewSource(1)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMappingMatchesTopologySpecs checks OMS over random
// homogeneous hierarchies: the tree mirrors the spec and the mapping is
// balanced and complete.
func TestPropertyMappingMatchesTopologySpecs(t *testing.T) {
	f := func(f1, f2, f3 uint8, graphSeed uint32) bool {
		factors := []int32{int32(f1%3) + 2, int32(f2%4) + 2, int32(f3%4) + 2}
		spec := hierarchy.Spec{Factors: factors}
		k := spec.K()
		g := gen.RandomGeometric(int32(graphSeed%2000)+2*k, 0.55, uint64(graphSeed))
		src := stream.NewMemory(g)
		st, err := src.Stats()
		if err != nil {
			return false
		}
		tree := hierarchy.FromSpec(spec)
		if tree.K != k || tree.MaxDepth != int32(len(factors)) {
			t.Logf("tree shape wrong for %v", factors)
			return false
		}
		o, err := New(tree, st, Config{Epsilon: 0.03, Seed: uint64(graphSeed)})
		if err != nil {
			return false
		}
		parts, err := o.Run(src)
		if err != nil {
			return false
		}
		if err := metrics.CheckBalanced(g, parts, k, 0.03); err != nil {
			t.Logf("spec %v: %v", factors, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 20,
		Rand:     rand.New(rand.NewSource(2)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyParallelNeverViolatesCaps: runs configured with eight
// threads, which Run ignores, at tight caps and unit weights keep the
// strict balance guarantee on every trial.
func TestPropertyParallelNeverViolatesCaps(t *testing.T) {
	g := gen.RMAT(20000, 100000, gen.SocialRMAT, 9)
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		k := int32(64 << (trial % 3)) // 64, 128, 256
		o, err := NewGP(k, 4, st, Config{Epsilon: 0.03, Threads: 8, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := o.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := metrics.CheckBalanced(g, parts, k, 0.03); err != nil {
			t.Fatalf("trial %d k=%d: %v", trial, k, err)
		}
	}
}

// TestPropertyRestreamConservesLoads verifies the unassign/assign pair
// over random multi-pass runs: internal tree loads always equal the
// recomputed partition loads.
func TestPropertyRestreamConservesLoads(t *testing.T) {
	f := func(kSeed, graphSeed uint32, passes uint8) bool {
		k := int32(kSeed%60) + 2
		g := gen.ErdosRenyi(int32(graphSeed%800)+2*k, 3000, uint64(graphSeed))
		src := stream.NewMemory(g)
		st, err := src.Stats()
		if err != nil {
			return false
		}
		o, err := NewGP(k, 4, st, Config{Epsilon: 0.03, Seed: uint64(kSeed)})
		if err != nil {
			return false
		}
		parts, err := restream(o, src, int(passes%3))
		if err != nil {
			return false
		}
		loads := o.TreeLoads()
		leafLoad := make([]int64, k)
		for u, p := range parts {
			leafLoad[p] += int64(g.NodeWeight(int32(u)))
		}
		tree := o.Tree
		for v := int32(0); v < tree.NumNodes(); v++ {
			if tree.Parent[v] < 0 {
				continue
			}
			var want int64
			for leaf := tree.KL[v]; leaf <= tree.KR[v]; leaf++ {
				want += leafLoad[leaf]
			}
			if loads[v] != want {
				t.Logf("block %d: load %d want %d", v, loads[v], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 25,
		Rand:     rand.New(rand.NewSource(3)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStarGraphHubFirst checks an adversarial stream: a star
// whose hub arrives first (no assigned neighbors yet) must still produce
// a balanced partition.
func TestPropertyStarGraphHubFirst(t *testing.T) {
	n := int32(1001)
	b := graph.NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(0, v)
	}
	g := b.Finish()
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int32{2, 10, 100} {
		o, err := NewGP(k, 4, st, Config{Epsilon: 0.03, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := o.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := metrics.CheckBalanced(g, parts, k, 0.03); err != nil {
			t.Fatalf("star k=%d: %v", k, err)
		}
	}
}

// TestPropertyCompleteBipartiteBalanced checks another adversarial case:
// all gains point to the same blocks, so the capacity term alone must
// keep the result balanced.
func TestPropertyCompleteBipartiteBalanced(t *testing.T) {
	left, right := int32(40), int32(960)
	b := graph.NewBuilder(left + right)
	for u := int32(0); u < left; u++ {
		for v := left; v < left+right; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.Finish()
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewGP(8, 2, st, Config{Epsilon: 0.03, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := o.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.CheckBalanced(g, parts, 8, 0.03); err != nil {
		t.Fatal(err)
	}
}
