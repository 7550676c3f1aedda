package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/stream"
)

// The oracle: the walk this package shipped before assign gathered a
// node's neighbours once. At every level it re-reads parts for the whole
// adjacency, range-checks each neighbour against the block being split and
// looks its child up by comparing leaf ranges — independent of gather,
// narrow, ChildShift and ChildContaining. It scores every child through
// FennelScore/LDGScore, so it also holds the walk's inlined Fennel arm to
// them, and it derives the hashed levels from the config,
// not from the block records. Sequentially the two walks must agree to
// the last bit.
//
// It also keeps the placement rule of the walk that reserved a child
// with a compare-and-swap: a failed reserve rescores against the loads
// as they are, up to maxReserveAttempts times, and then charges the
// child anyway. Over one stream the loads do not change between
// attempts, so the walk's single charge must make the same decisions,
// forced placements included.

// maxReserveAttempts bounds rescoring after a failed reserve before the
// oracle charges the chosen child regardless of its capacity.
const maxReserveAttempts = 8

// reserve atomically charges w to block c iff the capacity allows it.
func (o *OMS) reserve(c int32, w int64) bool {
	b := &o.blk[c]
	for {
		cur := atomic.LoadInt64(&b.load)
		if cur+w > b.cap {
			return false
		}
		if atomic.CompareAndSwapInt64(&b.load, cur, cur+w) {
			return true
		}
	}
}

func (o *OMS) rescanAssign(u int32, vwgt int32, adj []int32, ewgt []int32) {
	t := o.Tree
	v := t.Root
	w := int64(vwgt)
	gain := make([]float64, t.MaxFanout)
	hashDepth := t.MaxDepth - int32(o.cfg.HashLayers)
	for !t.IsLeaf(v) {
		first, count := t.Children(v)
		var chosen int32
		for attempt := 0; ; attempt++ {
			if t.Depth[v] >= hashDepth || o.cfg.Scorer == ScorerHashing {
				chosen = o.hashChild(u, v, first, count, w)
			} else {
				chosen = o.rescanScoreChild(gain, v, first, count, w, adj, ewgt)
			}
			if o.reserve(chosen, w) {
				break
			}
			if attempt >= maxReserveAttempts {
				atomic.AddInt64(&o.blk[chosen].load, w)
				break
			}
		}
		v = chosen
	}
	atomic.StoreInt32(&o.parts[u], t.LeafID(v))
}

func (o *OMS) rescanScoreChild(gain []float64, v, first, count int32, w int64, adj []int32, ewgt []int32) int32 {
	t := o.Tree
	gain = gain[:count]
	for i := range gain {
		gain[i] = 0
	}
	kl, kr := t.KL[v], t.KR[v]
	for i, nb := range adj {
		p := atomic.LoadInt32(&o.parts[nb])
		if p < kl || p > kr { // includes unassigned (-1)
			continue
		}
		c := first
		for p > t.KR[c] {
			c++
		}
		if ewgt != nil {
			gain[c-first] += float64(ewgt[i])
		} else {
			gain[c-first]++
		}
	}
	best := int32(-1)
	bestScore := 0.0
	var bestLoad int64
	for i := int32(0); i < count; i++ {
		c := first + i
		load := atomic.LoadInt64(&o.blk[c].load)
		var score float64
		var ok bool
		if o.cfg.Scorer == ScorerLDG {
			score, ok = LDGScore(gain[i], load, w, o.blk[c].cap)
		} else {
			score, ok = FennelScore(gain[i], load, w, o.blk[c].cap, o.blk[c].alpha, o.gamma)
		}
		if !ok {
			continue
		}
		if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
			best, bestScore, bestLoad = c, score, load
		}
	}
	if best < 0 {
		best = o.leastRelativeLoad(first, count)
	}
	return best
}

// oracleTrees are the shapes of the parity table: every child lookup
// (shift, division, scan) and both kinds of depth (uniform, ragged).
func oracleTrees() map[string]*hierarchy.Tree {
	return map[string]*hierarchy.Tree{
		"art-k4096b4": hierarchy.BuildArtificial(4096, 4), // shift at every level
		"art-k100b4":  hierarchy.BuildArtificial(100, 4),  // heterogeneous spans
		"art-k37b3":   hierarchy.BuildArtificial(37, 3),   // heterogeneous, ragged depth
		"spec4:16:8":  hierarchy.FromSpec(hierarchy.MustSpec("4:16:8")),
		"spec3:5:7":   hierarchy.FromSpec(hierarchy.MustSpec("3:5:7")), // uniform, not a power of two
	}
}

// weighted returns g with node weights 1..5 and edge weights 1..7.
func weighted(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		b.SetNodeWeight(u, 1+u%5)
		for _, v := range g.Neighbors(u) {
			if u < v {
				b.AddWeightedEdge(u, v, 1+(u+v)%7)
			}
		}
	}
	return b.Finish()
}

// nodeWeighted returns g with node weights 1..5 and unit edge weights, so
// the stream hands the walk ewgt == nil.
func nodeWeighted(g *graph.Graph) *graph.Graph {
	vw := make([]int32, g.NumNodes())
	for u := range vw {
		vw[u] = 1 + int32(u)%5
	}
	return &graph.Graph{Xadj: g.Xadj, Adjncy: g.Adjncy, VWgt: vw}
}

// requireSameState fails unless both runs hold the same assignment of
// every node and the same load on every tree block.
func requireSameState(t *testing.T, got, want *OMS) {
	t.Helper()
	gp, wp := got.Assignments(), want.Assignments()
	if len(gp) != len(wp) {
		t.Fatalf("%d assignments, oracle has %d", len(gp), len(wp))
	}
	for u := range wp {
		if gp[u] != wp[u] {
			t.Fatalf("node %d on block %d, oracle on %d", u, gp[u], wp[u])
		}
	}
	gl, wl := got.TreeLoads(), want.TreeLoads()
	for v := range wl {
		if gl[v] != wl[v] {
			t.Fatalf("tree block %d load %d, oracle %d", v, gl[v], wl[v])
		}
	}
}

// pair builds the run under test and the oracle run from one
// construction.
func pair(t *testing.T, tree *hierarchy.Tree, st stream.Stats, cfg Config) (o, ref *OMS) {
	t.Helper()
	o, err := New(tree, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = New(tree, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, ref
}

// runAgainstOracle streams g once through Run and once through the
// oracle, then restreams both for the given extra passes.
func runAgainstOracle(t *testing.T, g *graph.Graph, tree *hierarchy.Tree, cfg Config, extraPasses int) {
	t.Helper()
	src := stream.NewMemory(g)
	o, ref := pair(t, tree, statsOf(t, g), cfg)
	if _, err := restream(o, src, extraPasses); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass <= extraPasses; pass++ {
		err := src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
			ref.unassign(u, vwgt) // no-op on the first pass
			ref.rescanAssign(u, vwgt, adj, ewgt)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, o, ref)
}

func TestWalkMatchesRescanOracle(t *testing.T) {
	rgg := gen.RandomGeometric(6000, 0.55, 41)
	rmat := gen.RMAT(4096, 30000, gen.SocialRMAT, 42)
	heavy := weighted(rgg)
	nodeHeavy := nodeWeighted(rgg)
	configs := []struct {
		name   string
		g      *graph.Graph
		cfg    Config
		passes int
	}{
		{"fennel", rgg, Config{Epsilon: 0.03}, 0},
		{"fennel-rmat", rmat, Config{Epsilon: 0.03}, 0},
		{"hash1", rgg, Config{Epsilon: 0.03, HashLayers: 1, Seed: 5}, 0},
		{"hash2", rmat, Config{Epsilon: 0.03, HashLayers: 2, Seed: 6}, 0},
		{"ldg", rgg, Config{Epsilon: 0.03, Scorer: ScorerLDG}, 0},
		{"vanilla-alpha", rmat, Config{Epsilon: 0.03, VanillaAlpha: true}, 0},
		{"gamma2", rgg, Config{Epsilon: 0.03, Gamma: 2}, 0},
		{"weighted", heavy, Config{Epsilon: 0.10}, 0},
		{"weighted-tight", heavy, Config{Epsilon: 0}, 0},          // failed reserves, forced placements
		{"node-weighted-tight", nodeHeavy, Config{Epsilon: 0}, 0}, // the same through the unweighted narrow
		{"restream2", rgg, Config{Epsilon: 0.03}, 2},
		{"restream2-weighted", heavy, Config{Epsilon: 0.10, HashLayers: 1}, 2},
	}
	for tname, tree := range oracleTrees() {
		for _, c := range configs {
			t.Run(tname+"/"+c.name, func(t *testing.T) {
				runAgainstOracle(t, c.g, tree, c.cfg, c.passes)
			})
		}
	}
}

// TestAdaptiveWalkMatchesRescanOracle: an open-ended run whose
// capacities and alphas ratchet mid-stream walks like the oracle too.
func TestAdaptiveWalkMatchesRescanOracle(t *testing.T) {
	g := weighted(gen.RandomGeometric(5000, 0.55, 43))
	for tname, tree := range oracleTrees() {
		t.Run(tname, func(t *testing.T) {
			o, ref := pair(t, tree, stream.Stats{}, Config{Epsilon: 0.03, Adaptive: true})
			ratchets := 0
			err := stream.NewMemory(g).ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
				if o.ObserveAdaptive(u, vwgt, adj, ewgt) {
					ratchets++
				}
				ref.ObserveAdaptive(u, vwgt, adj, ewgt)
				o.AssignNode(u, vwgt, adj, ewgt)
				ref.rescanAssign(u, vwgt, adj, ewgt)
			})
			if err != nil {
				t.Fatal(err)
			}
			if ratchets < 2 {
				t.Fatalf("%d ratchets: the run never re-adapted mid-stream", ratchets)
			}
			o.Reconcile()
			ref.Reconcile()
			requireSameState(t, o, ref)
		})
	}
}

func TestPropertyWalkMatchesRescanOracle(t *testing.T) {
	f := func(kSeed, baseSeed, graphSeed uint32, hashSeed uint8, ldg, heavy bool) bool {
		k := int32(kSeed%600) + 1
		base := int32(baseSeed%7) + 2
		g := gen.ErdosRenyi(int32(graphSeed%1500)+k, 5000, uint64(graphSeed))
		if heavy {
			g = weighted(g)
		}
		tree := hierarchy.BuildArtificial(k, base)
		cfg := Config{
			Epsilon:    0.05,
			HashLayers: int(uint32(hashSeed) % uint32(tree.MaxDepth+1)),
			Seed:       uint64(graphSeed),
		}
		if ldg {
			cfg.Scorer = ScorerLDG
		}
		return t.Run(fmt.Sprintf("k%d-b%d-g%d", k, base, graphSeed), func(t *testing.T) {
			runAgainstOracle(t, g, tree, cfg, 1)
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestWalkKeepsCapsThroughRestream: every tree block, leaves included,
// stays within its capacity through a pass over a skewed graph and the
// restream passes after it, and every node lands on a leaf. The run is
// configured with four threads, which Run ignores: it still walks in
// stream order on the one scratch.
func TestWalkKeepsCapsThroughRestream(t *testing.T) {
	g := gen.RMAT(20000, 120000, gen.SocialRMAT, 44)
	src := stream.NewMemory(g)
	for tname, tree := range oracleTrees() {
		t.Run(tname, func(t *testing.T) {
			o, err := New(tree, statsOf(t, g), Config{Epsilon: 0.03, Threads: 4, HashLayers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.Run(src); err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				for u, p := range o.Assignments() {
					if p < 0 || p >= tree.K {
						t.Fatalf("%s: node %d on block %d", stage, u, p)
					}
				}
				var placed int64
				for v, l := range o.TreeLoads() {
					if l > o.blk[v].cap {
						t.Fatalf("%s: tree block %d holds %d > %d", stage, v, l, o.blk[v].cap)
					}
					if tree.IsLeaf(int32(v)) {
						placed += l
					}
				}
				if tree.K > 1 && placed != g.TotalNodeWeight() {
					t.Fatalf("%s: leaves hold %d of %d", stage, placed, g.TotalNodeWeight())
				}
			}
			check("run")
			if _, err := o.RestreamPasses(src, 2); err != nil {
				t.Fatal(err)
			}
			check("restream")
		})
	}
}
