package core

import (
	"math"
	"slices"
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/metrics"
	"oms/internal/stream"
)

func statsOf(t *testing.T, g *graph.Graph) stream.Stats {
	t.Helper()
	st, err := stream.NewMemory(g).Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runOMS(t *testing.T, g *graph.Graph, tree *hierarchy.Tree, cfg Config) []int32 {
	t.Helper()
	o, err := New(tree, statsOf(t, g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := o.Run(stream.NewMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// restream runs the first pass and then extraPasses restream passes, as
// oms.Restream does.
func restream(o *OMS, src stream.Source, extraPasses int) ([]int32, error) {
	if _, err := o.Run(src); err != nil {
		return nil, err
	}
	return o.RestreamPasses(src, extraPasses)
}

func TestConfigValidation(t *testing.T) {
	st := stream.Stats{N: 10, M: 20, TotalNodeWeight: 10, TotalEdgeWeight: 20}
	tree := hierarchy.FromSpec(hierarchy.MustSpec("2:2"))
	if _, err := New(tree, st, Config{Epsilon: -0.1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	if _, err := New(tree, st, Config{Epsilon: 0.03, HashLayers: 5}); err == nil {
		t.Fatal("HashLayers beyond depth accepted")
	}
	if _, err := NewGP(0, 4, st, Config{Epsilon: 0.03}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewGP(4, 1, st, Config{Epsilon: 0.03}); err == nil {
		t.Fatal("base=1 accepted")
	}
	if _, err := New(tree, st, Config{Epsilon: 0.03, Scorer: Scorer(7)}); err == nil {
		t.Fatal("unknown scorer accepted")
	}
	for _, g := range []float64{0.5, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(tree, st, Config{Epsilon: 0.03, Gamma: g}); err == nil {
			t.Fatalf("gamma %v accepted", g)
		}
	}
}

func TestAdaptedAlphaInvariant(t *testing.T) {
	// Adapted alpha (§3.2): alpha(W) * sqrt(t(W)) == alpha_root for every
	// tree block, which subsumes the homogeneous per-layer formula.
	g := gen.ErdosRenyi(1000, 5000, 1)
	st := statsOf(t, g)
	tree := hierarchy.FromSpec(hierarchy.MustSpec("4:4:4"))
	o, err := New(tree, st, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	root := Alpha(tree.K, st.TotalEdgeWeight, st.N)
	for v := int32(0); v < tree.NumNodes(); v++ {
		got := o.AlphaOf(v) * math.Sqrt(float64(tree.LeafCount(v)))
		if math.Abs(got-root) > 1e-9*root {
			t.Fatalf("block %d: alpha*sqrt(t)=%v want %v", v, got, root)
		}
	}
}

func TestVanillaAlphaUniform(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 2)
	st := statsOf(t, g)
	tree := hierarchy.FromSpec(hierarchy.MustSpec("4:4"))
	o, err := New(tree, st, Config{Epsilon: 0.03, VanillaAlpha: true})
	if err != nil {
		t.Fatal(err)
	}
	a0 := o.AlphaOf(0)
	for v := int32(1); v < tree.NumNodes(); v++ {
		if o.AlphaOf(v) != a0 {
			t.Fatal("vanilla alpha should be uniform across blocks")
		}
	}
}

func TestBalanceAcrossConfigs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rgg":  gen.RandomGeometric(3000, 0.55, 3),
		"rmat": gen.RMAT(2048, 10000, gen.SocialRMAT, 4),
	}
	trees := map[string]*hierarchy.Tree{
		"spec4:16:2": hierarchy.FromSpec(hierarchy.MustSpec("4:16:2")),
		"art-k100":   hierarchy.BuildArtificial(100, 4),
		"art-k37b3":  hierarchy.BuildArtificial(37, 3),
	}
	for gname, g := range graphs {
		for tname, tree := range trees {
			for _, scorer := range []Scorer{ScorerFennel, ScorerLDG, ScorerHashing} {
				cfg := Config{Epsilon: 0.03, Scorer: scorer, Seed: 7}
				parts := runOMS(t, g, tree, cfg)
				if err := metrics.CheckBalanced(g, parts, tree.K, cfg.Epsilon); err != nil {
					t.Errorf("%s/%s/%v: %v", gname, tname, scorer, err)
				}
			}
		}
	}
}

func TestTreeLoadConsistency(t *testing.T) {
	// Sequential invariant: every internal block's load equals the sum of
	// its children's loads; the root carries no load (never scored) but
	// depth-1 blocks sum to the total node weight.
	g := gen.Delaunay(2000, 5)
	tree := hierarchy.FromSpec(hierarchy.MustSpec("2:3:4"))
	st := statsOf(t, g)
	o, err := New(tree, st, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(stream.NewMemory(g)); err != nil {
		t.Fatal(err)
	}
	loads := o.TreeLoads()
	var rootSum int64
	first, count := tree.Children(tree.Root)
	for c := first; c < first+count; c++ {
		rootSum += loads[c]
	}
	if rootSum != st.TotalNodeWeight {
		t.Fatalf("depth-1 loads sum to %d want %d", rootSum, st.TotalNodeWeight)
	}
	for v := int32(0); v < tree.NumNodes(); v++ {
		if tree.IsLeaf(v) || v == tree.Root {
			continue
		}
		var sum int64
		cf, cc := tree.Children(v)
		for c := cf; c < cf+cc; c++ {
			sum += loads[c]
		}
		if sum != loads[v] {
			t.Fatalf("block %d: children sum %d != load %d", v, sum, loads[v])
		}
	}
}

func TestLeafLoadsMatchPartition(t *testing.T) {
	g := gen.ErdosRenyi(1500, 6000, 9)
	tree := hierarchy.BuildArtificial(10, 4)
	st := statsOf(t, g)
	o, err := New(tree, st, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := o.Run(stream.NewMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	loads := o.TreeLoads()
	want := metrics.BlockLoads(g, parts, tree.K)
	for leaf := int32(0); leaf < tree.K; leaf++ {
		if loads[tree.LeafNode[leaf]] != want[leaf] {
			t.Fatalf("leaf %d: tree load %d, partition load %d",
				leaf, loads[tree.LeafNode[leaf]], want[leaf])
		}
	}
}

// multiPassReference simulates the paper's l-successive-passes offline
// recursive multi-section (§3.1): pass d refines every node one tree
// level, seeing exactly the assignments available in that model. OMS must
// reproduce it exactly (the paper's Figure-1 equivalence argument).
func multiPassReference(g *graph.Graph, tree *hierarchy.Tree, st stream.Stats, cfg Config) []int32 {
	n := g.NumNodes()
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	lmax := Lmax(st.TotalNodeWeight, tree.K, cfg.Epsilon)
	alphaRoot := Alpha(tree.K, st.TotalEdgeWeight, st.N)
	caps := make([]int64, tree.NumNodes())
	alphas := make([]float64, tree.NumNodes())
	for v := int32(0); v < tree.NumNodes(); v++ {
		tcount := tree.LeafCount(v)
		caps[v] = int64(tcount) * lmax
		alphas[v] = alphaRoot / math.Sqrt(float64(tcount))
	}
	cur := make([]int32, n) // tree node after the completed passes
	for u := range cur {
		cur[u] = tree.Root
	}
	loads := make([]int64, tree.NumNodes())
	done := make([]bool, n)
	for depth := int32(0); depth < tree.MaxDepth; depth++ {
		for u := range done {
			done[u] = false
		}
		for u := int32(0); u < n; u++ {
			v := cur[u]
			if tree.IsLeaf(v) {
				done[u] = true
				continue
			}
			first, count := tree.Children(v)
			gains := make([]float64, count)
			adj := g.Neighbors(u)
			ew := g.EdgeWeights(u)
			for i, nb := range adj {
				if !done[nb] {
					continue
				}
				p := cur[nb]
				if tree.KL[p] < tree.KL[v] || tree.KR[p] > tree.KR[v] {
					continue
				}
				c := tree.ChildContaining(v, tree.KL[p])
				w := 1.0
				if ew != nil {
					w = float64(ew[i])
				}
				gains[c-first] += w
			}
			w := int64(g.NodeWeight(u))
			best := int32(-1)
			bestScore := 0.0
			var bestLoad int64
			for i := int32(0); i < count; i++ {
				c := first + i
				var score float64
				var ok bool
				if cfg.Scorer == ScorerLDG {
					score, ok = LDGScore(gains[i], loads[c], w, caps[c])
				} else {
					score, ok = FennelScore(gains[i], loads[c], w, caps[c], alphas[c], gamma)
				}
				if !ok {
					continue
				}
				if best < 0 || score > bestScore || (score == bestScore && loads[c] < bestLoad) {
					best, bestScore, bestLoad = c, score, loads[c]
				}
			}
			if best < 0 {
				bestRatio := math.Inf(1)
				for i := int32(0); i < count; i++ {
					c := first + i
					if r := float64(loads[c]) / float64(caps[c]); r < bestRatio {
						best, bestRatio = c, r
					}
				}
			}
			loads[best] += w
			cur[u] = best
			done[u] = true
		}
	}
	out := make([]int32, n)
	for u := int32(0); u < n; u++ {
		out[u] = tree.LeafID(cur[u])
	}
	return out
}

func TestOnlineEqualsMultiPass(t *testing.T) {
	// The paper's central structural claim: the single-pass online
	// algorithm produces exactly the result of l successive passes.
	for _, scorer := range []Scorer{ScorerFennel, ScorerLDG} {
		for _, specStr := range []string{"2:3", "4:4", "2:2:2"} {
			g := gen.RandomGeometric(800, 0.55, 17)
			tree := hierarchy.FromSpec(hierarchy.MustSpec(specStr))
			st := statsOf(t, g)
			cfg := Config{Epsilon: 0.03, Scorer: scorer}
			online := runOMS(t, g, tree, cfg)
			offline := multiPassReference(g, tree, st, cfg)
			for u := range online {
				if online[u] != offline[u] {
					t.Fatalf("scorer=%v spec=%s: node %d online=%d offline=%d",
						scorer, specStr, u, online[u], offline[u])
				}
			}
		}
	}
}

func TestOMSBetterMappingThanFlatFennel(t *testing.T) {
	// The headline process-mapping claim (§4.1): OMS beats Fennel (which
	// ignores the hierarchy) on J. Scaled-down check of the direction.
	// Flat Fennel is the walk on a one-level tree of k leaves.
	spec := hierarchy.MustSpec("4:4:4")
	top := hierarchy.MustTopology(spec, hierarchy.MustDistances("1:10:100"))
	g := gen.RandomGeometric(6000, 0.55, 21)
	tree := hierarchy.FromSpec(spec)

	omsParts := runOMS(t, g, tree, Config{Epsilon: 0.03})
	fenParts := runOMS(t, g, hierarchy.BuildArtificial(spec.K(), spec.K()), Config{Epsilon: 0.03})
	jOMS := metrics.MappingCost(g, omsParts, top)
	jFen := metrics.MappingCost(g, fenParts, top)
	if jOMS >= jFen {
		t.Fatalf("OMS J=%v not better than flat Fennel J=%v", jOMS, jFen)
	}
}

func TestNhOMSCutRegime(t *testing.T) {
	// §4.1: nh-OMS cuts ~5% more than Fennel but vastly fewer than
	// Hashing. Check both orderings with generous slack.
	g := gen.RandomGeometric(6000, 0.55, 23)
	st := statsOf(t, g)
	k := int32(64)

	o, err := NewGP(k, 4, st, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	nhParts, err := o.Run(stream.NewMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	flat := hierarchy.BuildArtificial(k, k)
	fenParts := runOMS(t, g, flat, Config{Epsilon: 0.03})
	hashParts := runOMS(t, g, flat, Config{Epsilon: 0.03, Scorer: ScorerHashing, Seed: 1})

	cutNh := metrics.EdgeCut(g, nhParts)
	cutFen := metrics.EdgeCut(g, fenParts)
	cutHash := metrics.EdgeCut(g, hashParts)
	if float64(cutNh) > 2.0*float64(cutFen) {
		t.Fatalf("nh-OMS cut %d too far above Fennel %d", cutNh, cutFen)
	}
	if cutNh*2 >= cutHash {
		t.Fatalf("nh-OMS cut %d not clearly below Hashing %d", cutNh, cutHash)
	}
}

func TestHybridTradeoff(t *testing.T) {
	// §4 tuning: hashing bottom layers degrades quality and is never
	// better on cut than the pure configuration.
	g := gen.RandomGeometric(5000, 0.55, 29)
	tree := hierarchy.FromSpec(hierarchy.MustSpec("4:4:4"))
	pure := metrics.EdgeCut(g, runOMS(t, g, tree, Config{Epsilon: 0.03}))
	hybrid := metrics.EdgeCut(g, runOMS(t, g, tree, Config{Epsilon: 0.03, HashLayers: 2}))
	allHash := metrics.EdgeCut(g, runOMS(t, g, tree, Config{Epsilon: 0.03, Scorer: ScorerHashing}))
	if pure > hybrid {
		t.Fatalf("pure cut %d worse than hybrid %d", pure, hybrid)
	}
	if hybrid > allHash {
		t.Fatalf("hybrid cut %d worse than full hashing %d", hybrid, allHash)
	}
}

func TestParallelBalancedAndComplete(t *testing.T) {
	g := gen.RMAT(8192, 40000, gen.SocialRMAT, 31)
	tree := hierarchy.FromSpec(hierarchy.MustSpec("4:16:2"))
	st := statsOf(t, g)
	o, err := New(tree, st, Config{Epsilon: 0.03, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := o.Run(stream.NewMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range parts {
		if p < 0 || p >= tree.K {
			t.Fatalf("node %d unassigned/out of range: %d", u, p)
		}
	}
	// Threads is ignored, so the pass assigns in stream order and every
	// block obeys Lmax itself.
	loads := metrics.BlockLoads(g, parts, tree.K)
	lmax := o.LmaxValue()
	for b, l := range loads {
		if l > lmax {
			t.Fatalf("block %d load %d exceeds Lmax %d", b, l, lmax)
		}
	}
}

// TestParallelQualityClose: Threads is accepted and ignored, so a run
// configured for eight threads has the cut of the sequential run and
// places every node the same way.
func TestParallelQualityClose(t *testing.T) {
	g := gen.RandomGeometric(6000, 0.55, 37)
	tree := hierarchy.BuildArtificial(64, 4)
	seq := runOMS(t, g, tree, Config{Epsilon: 0.03})
	par := runOMS(t, g, tree, Config{Epsilon: 0.03, Threads: 8})
	seqCut, parCut := metrics.EdgeCut(g, seq), metrics.EdgeCut(g, par)
	if parCut != seqCut {
		t.Fatalf("cut %d at Threads 8, %d sequential", parCut, seqCut)
	}
	if !slices.Equal(par, seq) {
		t.Fatal("Threads 8 placed some node differently from the sequential run")
	}
}

func TestSequentialDeterminism(t *testing.T) {
	g := gen.RMAT(2048, 8192, gen.SocialRMAT, 41)
	tree := hierarchy.BuildArtificial(48, 4)
	a := runOMS(t, g, tree, Config{Epsilon: 0.03, Seed: 5})
	b := runOMS(t, g, tree, Config{Epsilon: 0.03, Seed: 5})
	for u := range a {
		if a[u] != b[u] {
			t.Fatal("sequential OMS not deterministic")
		}
	}
}

func TestRestreamNotWorse(t *testing.T) {
	g := gen.RandomGeometric(3000, 0.55, 43)
	tree := hierarchy.BuildArtificial(32, 4)
	st := statsOf(t, g)
	o1, _ := New(tree, st, Config{Epsilon: 0.03})
	once, err := o1.Run(stream.NewMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	cutOnce := metrics.EdgeCut(g, once)

	o2, _ := New(hierarchy.BuildArtificial(32, 4), st, Config{Epsilon: 0.03})
	re, err := restream(o2, stream.NewMemory(g), 3)
	if err != nil {
		t.Fatal(err)
	}
	cutRe := metrics.EdgeCut(g, re)
	if err := metrics.CheckBalanced(g, re, tree.K, 0.03); err != nil {
		t.Fatal(err)
	}
	if float64(cutRe) > 1.05*float64(cutOnce) {
		t.Fatalf("restreaming made cut worse: %d -> %d", cutOnce, cutRe)
	}
}

func TestRestreamLoadConservation(t *testing.T) {
	g := gen.ErdosRenyi(1000, 4000, 47)
	tree := hierarchy.FromSpec(hierarchy.MustSpec("3:3"))
	st := statsOf(t, g)
	o, _ := New(tree, st, Config{Epsilon: 0.03})
	if _, err := restream(o, stream.NewMemory(g), 2); err != nil {
		t.Fatal(err)
	}
	loads := o.TreeLoads()
	first, count := tree.Children(tree.Root)
	var sum int64
	for c := first; c < first+count; c++ {
		sum += loads[c]
	}
	if sum != st.TotalNodeWeight {
		t.Fatalf("restream leaked weight: depth-1 sum %d want %d", sum, st.TotalNodeWeight)
	}
}

func TestK1SingleLeaf(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 1)
	st := statsOf(t, g)
	o, err := NewGP(1, 4, st, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := o.Run(stream.NewMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p != 0 {
			t.Fatal("k=1 must map everything to PE 0")
		}
	}
}

func TestScorerString(t *testing.T) {
	if ScorerFennel.String() != "fennel" || ScorerLDG.String() != "ldg" ||
		ScorerHashing.String() != "hashing" {
		t.Fatal("scorer names wrong")
	}
	if Scorer(9).String() == "" {
		t.Fatal("unknown scorer should still format")
	}
}

func TestHashingScorerIgnoresEdges(t *testing.T) {
	g1 := gen.ErdosRenyi(500, 1500, 1)
	g2 := gen.ErdosRenyi(500, 1500, 2)
	tree := hierarchy.BuildArtificial(16, 4)
	cfg := Config{Epsilon: 0.03, Scorer: ScorerHashing, Seed: 11}
	p1 := runOMS(t, g1, tree, cfg)
	p2 := runOMS(t, g2, tree, cfg)
	for u := range p1 {
		if p1[u] != p2[u] {
			t.Fatal("hash scorer depends on structure")
		}
	}
}

func TestWeightedNodesRespectCapacity(t *testing.T) {
	// Heavy nodes must still satisfy the leaf balance constraint.
	b := graph.NewBuilder(40)
	for u := int32(0); u < 39; u++ {
		b.AddEdge(u, u+1)
	}
	for u := int32(0); u < 40; u++ {
		b.SetNodeWeight(u, 1+u%5)
	}
	g := b.Finish()
	tree := hierarchy.BuildArtificial(4, 2)
	parts := runOMS(t, g, tree, Config{Epsilon: 0.10})
	if err := metrics.CheckBalanced(g, parts, 4, 0.10); err != nil {
		t.Fatal(err)
	}
}

func TestForceAssignMatchesAssignLoads(t *testing.T) {
	// Replaying recorded decisions through ForceAssign reproduces the
	// loads and assignments of the original run exactly.
	g := gen.ErdosRenyi(600, 2400, 9)
	st := statsOf(t, g)
	tree := hierarchy.BuildArtificial(16, 4)
	orig, err := New(tree, st, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := orig.Run(stream.NewMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := New(tree, st, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		replay.ForceAssign(u, g.NodeWeight(u), parts[u])
	}
	wantLoads, wantParts := orig.TreeLoads(), orig.Assignments()
	gotLoads, gotParts := replay.TreeLoads(), replay.Assignments()
	for i := range wantLoads {
		if wantLoads[i] != gotLoads[i] {
			t.Fatalf("tree block %d load %d, want %d", i, gotLoads[i], wantLoads[i])
		}
	}
	for u := range wantParts {
		if wantParts[u] != gotParts[u] {
			t.Fatalf("node %d part %d, want %d", u, gotParts[u], wantParts[u])
		}
	}
}
