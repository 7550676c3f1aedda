package onepass_test

import (
	"fmt"
	"testing"

	"oms/internal/core"
	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/onepass"
	"oms/internal/stream"
	"oms/internal/util"
)

// reweighted returns g with node weights 1..8 and edge weights 1..20.
func reweighted(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		b.SetNodeWeight(u, 1+u%8)
		for _, v := range g.Neighbors(u) {
			if u < v {
				b.AddWeightedEdge(u, v, 1+(u+3*v)%20)
			}
		}
	}
	return b.Finish()
}

// heavyEvery97 returns g with every 97th node weighing 60 and unit weights
// elsewhere: at k = 64 such a node outweighs every block's Lmax.
func heavyEvery97(g *graph.Graph) *graph.Graph {
	vw := make([]int32, g.NumNodes())
	for u := range vw {
		vw[u] = 1
		if u%97 == 0 {
			vw[u] = 60
		}
	}
	return &graph.Graph{Xadj: g.Xadj, Adjncy: g.Adjncy, AdjWgt: g.AdjWgt, VWgt: vw}
}

// flatArms are the scorers whose flat partitioner core must reproduce on
// a one-level tree; each names its subtests.
var flatArms = []core.Scorer{core.ScorerFennel, core.ScorerLDG, core.ScorerHashing}

const (
	flatSeed = 11
	flatEps  = 0.03
)

// flatParts runs the reference flat partitioner of scorer over g.
func flatParts(t *testing.T, g *graph.Graph, k int32, scorer core.Scorer) []int32 {
	t.Helper()
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cfg := onepass.Config{K: k, Epsilon: flatEps, Seed: flatSeed}
	var alg onepass.Algorithm
	switch scorer {
	case core.ScorerFennel:
		alg, err = onepass.NewFennel(cfg, st, 1)
	case core.ScorerLDG:
		alg, err = onepass.NewLDG(cfg, st)
	default:
		alg, err = onepass.NewHashing(cfg, st)
	}
	if err != nil {
		t.Fatal(err)
	}
	parts, err := onepass.Run(src, alg)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// treeParts runs core's walk with scorer over the one-level tree of
// k leaves (base max(k, 2), so k = 1 is a lone leaf) and returns the
// partition with the run's Lmax.
func treeParts(t *testing.T, g *graph.Graph, k int32, scorer core.Scorer) ([]int32, int64) {
	t.Helper()
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.NewGP(k, max(k, 2), st, core.Config{Epsilon: flatEps, Scorer: scorer, Seed: flatSeed})
	if err != nil {
		t.Fatal(err)
	}
	if o.Tree.MaxDepth > 1 {
		t.Fatalf("k=%d: tree of depth %d, want one level", k, o.Tree.MaxDepth)
	}
	parts, err := o.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	return parts, o.LmaxValue()
}

// firstDiff is the first node the two partitions place apart, or -1.
func firstDiff(a, b []int32) int32 {
	for u := range a {
		if a[u] != b[u] {
			return int32(u)
		}
	}
	return -1
}

// TestFlatIsOneLevelTree: flat one-pass Fennel, LDG and Hashing place
// every node exactly where core's walk places it on a one-level tree of k
// leaves. One level of k leaves scores each leaf with the root's alpha
// (alpha / sqrt(1)) against the cap Lmax, sums gains and breaks ties in
// the flat scan's order, and hashes the root with the flat seed, so the
// two agree to the last bit. The grid covers geometric, skewed, mesh and
// road-like graphs, one with edge weights 1..20 and node weights 1..8,
// and every scorer.
func TestFlatIsOneLevelTree(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg-20000", gen.RandomGeometric(20000, 0.55, 1)},
		{"rmat-social-2^14", gen.RMAT(1<<14, 1<<17, gen.SocialRMAT, 2)},
		{"delaunay-10000", gen.Delaunay(10000, 3)},
		{"roadlike-10000", gen.RoadLike(10000, 2.5, 4)},
		{"rmat-2^13-weighted", reweighted(gen.RMAT(1<<13, 1<<16, gen.SocialRMAT, 5))},
	}
	for _, gc := range graphs {
		for _, k := range []int32{1, 2, 7, 64, 256, 1000} {
			for _, arm := range flatArms {
				t.Run(fmt.Sprintf("%s/k%d/%s", gc.name, k, arm), func(t *testing.T) {
					want := flatParts(t, gc.g, k, arm)
					got, _ := treeParts(t, gc.g, k, arm)
					if u := firstDiff(got, want); u >= 0 {
						t.Fatalf("node %d: one-level tree places it on %d, flat scan on %d", u, got[u], want[u])
					}
				})
			}
		}
	}
}

// TestFlatHashingOverflowFallback is the one place where flat Hashing and
// the one-level tree part: a node that fits no block. The flat scan
// overloads the hashed block; core's walk overloads the least relatively
// loaded one (on one level, the least loaded), as it does at every level
// of every tree. With every 97th node weighing 60, no block of k = 64 has
// room for one (Lmax is 53), and the runs part at the first heavy node
// whose hash is not the least loaded block; at k = 7 every node fits and
// the runs agree.
func TestFlatHashingOverflowFallback(t *testing.T) {
	g := heavyEvery97(gen.ErdosRenyi(2000, 8000, flatSeed))
	arm := core.ScorerHashing
	got, _ := treeParts(t, g, 7, arm)
	if u := firstDiff(got, flatParts(t, g, 7, arm)); u >= 0 {
		t.Fatalf("k=7: node %d placed apart although every node fits", u)
	}

	const k = 64
	flat := flatParts(t, g, k, arm)
	tree, lmax := treeParts(t, g, k, arm)
	u := firstDiff(tree, flat)
	if u < 0 {
		t.Fatal("k=64: runs agree although heavy nodes overflow every block")
	}
	// Replay the common prefix: node u fits no block, the flat scan keeps
	// its hash and the walk takes the least loaded block.
	loads := make([]int64, k)
	for v := int32(0); v < u; v++ {
		loads[flat[v]] += int64(g.NodeWeight(v))
	}
	w := int64(g.NodeWeight(u))
	t.Logf("k=64: the runs part at node %d (weight %d, Lmax %d)", u, w, lmax)
	least := int32(0)
	for b := range loads {
		if loads[b]+w <= lmax {
			t.Fatalf("node %d (weight %d) fits block %d (load %d, Lmax %d), yet the runs part there", u, w, b, loads[b], lmax)
		}
		if loads[b] < loads[least] {
			least = int32(b)
		}
	}
	if h := int32(util.HashMod(uint64(u), flatSeed, k)); flat[u] != h {
		t.Errorf("node %d: flat scan overloads %d, not its hash %d", u, flat[u], h)
	}
	if tree[u] != least {
		t.Errorf("node %d: walk overloads %d, not the least loaded %d", u, tree[u], least)
	}
}
