package multilevel

import (
	"testing"
	"time"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/metrics"
	"oms/internal/util"
)

func TestFM2WayNeverWorsensCut(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.RandomGeometric(1500, 0.55, seed)
		parts := make([]int32, g.NumNodes())
		rng := util.NewRNG(seed)
		for u := range parts {
			parts[u] = int32(rng.Intn(2))
		}
		caps := []int64{900, 900}
		before := metrics.EdgeCut(g, parts)
		fm2Way(g, parts, caps, 6)
		after := metrics.EdgeCut(g, parts)
		if after > before {
			t.Fatalf("seed %d: FM worsened cut %d -> %d", seed, before, after)
		}
		loads := metrics.BlockLoads(g, parts, 2)
		for b, l := range loads {
			if l > caps[b] {
				t.Fatalf("seed %d: block %d overweight %d > %d", seed, b, l, caps[b])
			}
		}
	}
}

func TestFM2WayImprovesRandomBisectionOnGrid(t *testing.T) {
	// A random bisection of a grid cuts ~half the edges; FM must get
	// well below that even without a smart starting point.
	g := gen.Grid2D(40, 40, false)
	parts := make([]int32, g.NumNodes())
	rng := util.NewRNG(3)
	for u := range parts {
		parts[u] = int32(rng.Intn(2))
	}
	caps := []int64{850, 850}
	before := metrics.EdgeCut(g, parts)
	fm2Way(g, parts, caps, 12)
	after := metrics.EdgeCut(g, parts)
	if after*2 >= before {
		t.Fatalf("FM left cut at %d (started %d)", after, before)
	}
}

func TestFM2WayRespectsTightCaps(t *testing.T) {
	// All-zeros start with caps that force a near-even split: FM must
	// not move weight beyond capacity even when gains say otherwise.
	g := gen.Delaunay(500, 7)
	parts := make([]int32, g.NumNodes()) // all in block 0: overweight
	caps := []int64{260, 260}
	fm2Way(g, parts, caps, 4)
	loads := metrics.BlockLoads(g, parts, 2)
	// FM cannot fix an infeasible start (block 0 overweight), but must
	// never overfill block 1.
	if loads[1] > caps[1] {
		t.Fatalf("block 1 overfilled: %d > %d", loads[1], caps[1])
	}
}

func TestFM2WayEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Finish()
	fm2Way(g, nil, []int64{1, 1}, 3) // must not panic
}

func TestGainBucketsBasicOps(t *testing.T) {
	gb := newGainBuckets(4, 10)
	gb.reset()
	gb.insert(0, 5)
	gb.insert(1, -3)
	gb.insert(2, 10)
	gb.insert(3, 10)
	always := func(int32) bool { return true }
	u := gb.popBestFeasible(always)
	if u != 2 && u != 3 {
		t.Fatalf("expected a gain-10 node, got %d", u)
	}
	u2 := gb.popBestFeasible(always)
	if (u2 != 2 && u2 != 3) || u2 == u {
		t.Fatalf("expected the other gain-10 node, got %d", u2)
	}
	if got := gb.popBestFeasible(always); got != 0 {
		t.Fatalf("expected node 0 (gain 5), got %d", got)
	}
	if got := gb.popBestFeasible(always); got != 1 {
		t.Fatalf("expected node 1 (gain -3), got %d", got)
	}
	if got := gb.popBestFeasible(always); got != -1 {
		t.Fatalf("expected exhaustion, got %d", got)
	}
}

func TestGainBucketsUpdateMoves(t *testing.T) {
	gb := newGainBuckets(2, 10)
	gb.reset()
	gb.insert(0, 1)
	gb.insert(1, 2)
	gb.update(0, 1, 9)
	always := func(int32) bool { return true }
	if got := gb.popBestFeasible(always); got != 0 {
		t.Fatalf("update did not move node 0 up, got %d", got)
	}
}

func TestGainBucketsSkipsInfeasible(t *testing.T) {
	gb := newGainBuckets(2, 10)
	gb.reset()
	gb.insert(0, 9)
	gb.insert(1, 1)
	onlyOne := func(u int32) bool { return u == 1 }
	if got := gb.popBestFeasible(onlyOne); got != 1 {
		t.Fatalf("expected feasible node 1, got %d", got)
	}
	// Node 0 must still be present for a later feasibility change.
	always := func(int32) bool { return true }
	if got := gb.popBestFeasible(always); got != 0 {
		t.Fatalf("skipped node lost, got %d", got)
	}
}

func TestLPClusteringRespectsCap(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 5, 3)
	maxVW := int64(50)
	cluster, num := lpClustering(g, maxVW, 4, util.NewRNG(1))
	if num < 2 {
		t.Fatal("clustering collapsed everything")
	}
	cw := make([]int64, num)
	for u := int32(0); u < g.NumNodes(); u++ {
		cw[cluster[u]] += int64(g.NodeWeight(u))
	}
	for c, w := range cw {
		if w > maxVW {
			t.Fatalf("cluster %d weight %d exceeds cap %d", c, w, maxVW)
		}
	}
	// Dense relabeling: ids 0..num-1 all used.
	seen := make([]bool, num)
	for _, c := range cluster {
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("cluster id %d unused", c)
		}
	}
}

func TestLPClusteringShrinksPowerLawFasterThanMatching(t *testing.T) {
	// The reason clustering replaced matching as the default coarsening:
	// on a power-law graph one round of clustering removes far more
	// nodes than a maximal matching can (matching is capped at 50%).
	g := gen.RMAT(8192, 40000, gen.SocialRMAT, 5)
	_, numLP := lpClustering(g, 1<<40, 3, util.NewRNG(1))
	match := heavyEdgeMatching(g, util.NewRNG(1), 1<<40)
	matched := 0
	for u := int32(0); u < g.NumNodes(); u++ {
		if match[u] != u {
			matched++
		}
	}
	numHEM := int(g.NumNodes()) - matched/2
	if numLP >= int32(numHEM) {
		t.Fatalf("LP clustering left %d nodes, matching %d — no advantage", numLP, numHEM)
	}
}

func TestContractMapPreservesTotals(t *testing.T) {
	g := gen.Delaunay(1200, 9)
	cluster, num := lpClustering(g, 40, 3, util.NewRNG(2))
	coarse, err := contractMap(g, cluster, num)
	if err != nil {
		t.Fatal(err)
	}
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
	if coarse.TotalNodeWeight() != g.TotalNodeWeight() {
		t.Fatalf("node weight changed: %d -> %d", g.TotalNodeWeight(), coarse.TotalNodeWeight())
	}
	// A partition of the coarse graph pulled back to the fine graph has
	// the same cut.
	cparts := make([]int32, num)
	rng := util.NewRNG(3)
	for i := range cparts {
		cparts[i] = int32(rng.Intn(3))
	}
	fparts := make([]int32, g.NumNodes())
	for u := range fparts {
		fparts[u] = cparts[cluster[u]]
	}
	if metrics.EdgeCut(coarse, cparts) != metrics.EdgeCut(g, fparts) {
		t.Fatal("projected cut differs")
	}
}

func TestRebalanceTerminatesOnChunkyWeights(t *testing.T) {
	// The regression behind the original hang: heavy nodes, tight caps,
	// no feasible target — rebalance must give up rather than ping-pong.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	for u := int32(0); u < 4; u++ {
		b.SetNodeWeight(u, 10)
	}
	g := b.Finish()
	parts := []int32{0, 0, 0, 0}
	caps := []int64{15, 15} // no single move can fix block 0 (40 > 15)
	done := make(chan struct{})
	go func() {
		rebalance(g, parts, 2, caps)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second): // the old code looped forever
		t.Fatal("rebalance did not terminate")
	}
}
