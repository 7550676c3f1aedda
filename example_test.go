package oms_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"

	"oms"
)

// Every example runs at toy scale, 20 000 nodes, with the block counts
// and topologies of the paper's experiments, and prints only what is
// deterministic: cuts, mapping costs, loads and balance verdicts. The
// paper's relations are read off the printed numbers, including where a
// toy graph does not show them.

// Partition a Delaunay mesh into 1024 balanced blocks with the streaming
// online recursive multi-section (nh-OMS). The zero Options select the
// paper's tuned defaults: Fennel scoring, adapted alpha, 3% imbalance
// and a base-4 multi-section tree.
func ExamplePartitionGraph() {
	g := oms.GenDelaunay(20_000, 42)
	fmt.Printf("n=%d m=%d\n", g.NumNodes(), g.NumEdges())

	res, err := oms.PartitionGraph(g, 1024, oms.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nh-OMS: cut=%d imbalance=%.4f\n", res.EdgeCut(g), res.Imbalance(g))
	// The imbalance exceeds 3% only by rounding: every block holds at
	// most Lmax = ceil(1.03 n / k) = 21 nodes.
	fmt.Println("within Lmax:", res.CheckBalanced(g, oms.DefaultEpsilon) == nil)
	// res.Parts[u] is the permanent block of node u, assigned the moment
	// u was streamed.
	fmt.Println("first ten assignments:", res.Parts[:10])
	// Output:
	// n=20000 m=59947
	// nh-OMS: cut=28054 imbalance=0.0752
	// within Lmax: true
	// first ten assignments: [0 1 2 3 4 5 0 2 0 2]
}

// The flat one-pass competitors are the same walk on a one-level tree of
// all k blocks: Fennel and LDG visit all k per node, O(m + nk), where
// nh-OMS walks a base-4 tree in O((m + 4n) log k). Hashing is fastest and
// cuts the most.
func ExamplePartitionOnePass() {
	g := oms.GenDelaunay(20_000, 42)
	for _, c := range []struct {
		name   string
		scorer oms.Scorer
	}{
		{"Fennel", oms.ScorerFennel},
		{"LDG", oms.ScorerLDG},
		{"Hashing", oms.ScorerHashing},
	} {
		r, err := oms.PartitionOnePass(oms.NewMemorySource(g), 1024, c.scorer, oms.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s cut=%d imbalance=%.4f\n", c.name+":", r.EdgeCut(g), r.Imbalance(g))
	}
	// Output:
	// Fennel:  cut=27609 imbalance=0.0752
	// LDG:     cut=19634 imbalance=0.0752
	// Hashing: cut=59870 imbalance=0.0752
}

// Block counts need not be powers of the multi-section base (§3.3).
// Algorithm 2 splits k = 5 into sub-blocks covering 2 and 3 final
// blocks, with capacities 2 Lmax and 3 Lmax, and the adapted Fennel
// alpha keeps such unequal capacities balanced on the fly.
func ExamplePartitionGraph_heterogeneousK() {
	g := oms.GenRGG2D(20_000, 17)
	for _, k := range []int32{5, 13, 37, 100, 1000} {
		res, err := oms.PartitionGraph(g, k, oms.Options{})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "balanced"
		if err := res.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
			verdict = err.Error()
		}
		loads := make([]int64, k)
		for _, b := range res.Parts {
			loads[b]++
		}
		fmt.Printf("k=%d cut=%d Lmax=%d max load=%d: %s\n",
			k, res.EdgeCut(g), res.Lmax, slices.Max(loads), verdict)
		if k == 5 {
			fmt.Println("k=5 block loads:", loads)
		}
	}
	// Output:
	// k=5 cut=7617 Lmax=4120 max load=4112: balanced
	// k=5 block loads: [4112 3869 4041 3992 3986]
	// k=13 cut=8903 Lmax=1585 max load=1585: balanced
	// k=37 cut=11377 Lmax=557 max load=557: balanced
	// k=100 cut=14568 Lmax=206 max load=206: balanced
	// k=1000 cut=39595 Lmax=21 max load=21: balanced
}

// Map a communication graph onto a machine of 4 cores per processor, 16
// processors per node and 8 nodes (512 PEs), where a message between
// cores of one processor costs 1, between processors 10 and between
// nodes 100. OMS mirrors the machine in its multi-section tree, so it
// optimizes the mapping cost J in one pass; flat Fennel balances 512
// blocks and maps block b to PE b; the offline recursive multi-section
// (IntMap's role) sees the whole graph.
func ExampleMapGraph() {
	g := oms.GenRMATCitation(20_000, 120_000, 7)
	top := oms.MustTopology("4:16:8", "1:10:100")

	omsRes, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fenRes, err := oms.PartitionOnePass(oms.NewMemorySource(g), top.Spec.K(), oms.ScorerFennel, oms.Options{})
	if err != nil {
		log.Fatal(err)
	}
	offRes, err := oms.MapOffline(g, top, oms.OfflineMapOptions{SwapRounds: 3})
	if err != nil {
		log.Fatal(err)
	}
	jOMS, jFen, jOff := omsRes.MappingCost(g, top), fenRes.MappingCost(g, top), offRes.MappingCost(g, top)
	fmt.Printf("J: OMS %.0f, Fennel %.0f, offline %.0f\n", jOMS, jFen, jOff)
	fmt.Printf("OMS maps %.1f%% better than Fennel, within %.2fx of offline\n",
		(jFen/jOMS-1)*100, jOMS/jOff)

	// Where the gain comes from: cut edges by the cheapest level their
	// endpoints share (L0: cores of one processor).
	for _, row := range []struct {
		name string
		res  *oms.Result
	}{{"OMS", omsRes}, {"Fennel", fenRes}, {"offline", offRes}} {
		fmt.Printf("%-7s level cuts %v\n", row.name, row.res.LevelCuts(g, top))
	}
	// Output:
	// J: OMS 8078641, Fennel 9066662, offline 8100622
	// OMS maps 12.2% better than Fennel, within 1.00x of offline
	// OMS     level cuts [3401 25234 78229]
	// Fennel  level cuts [742 12442 89415]
	// offline level cuts [2802 23072 78671]
}

// Hybrid mapping (§3.2, Theorem 3): hashing the h bottom layers of the
// multi-section removes most of the scoring work, since the bottom
// layers hold most of the tree, at a mapping-cost penalty that the
// cheap bottom links keep small.
func ExampleMapGraph_hybrid() {
	g := oms.GenRGG2D(20_000, 11)
	top := oms.MustTopology("4:8:16", "1:10:100")
	var baseJ float64
	for h := 0; h <= 3; h++ {
		res, err := oms.MapGraph(g, top, oms.Options{HashLayers: h})
		if err != nil {
			log.Fatal(err)
		}
		j := res.MappingCost(g, top)
		if h == 0 {
			baseJ = j
		}
		fmt.Printf("h=%d J=%.0f cut=%d J %+.1f%%\n", h, j, res.EdgeCut(g), (j/baseJ-1)*100)
	}
	// Output:
	// h=0 J=1039149 cut=29259 J +0.0%
	// h=1 J=1082569 cut=72679 J +4.2%
	// h=2 J=1691666 cut=90116 J +62.8%
	// h=3 J=8766944 cut=92906 J +743.7%
}

// An open-ended session partitions a stream whose size nobody declared.
// It projects n, m and the total weights from what arrives, re-adapting
// Fennel's alpha and the block capacities as the projection ratchets.
// Finish reconciles against the true totals and, since Record retains
// the stream, repairs the balance with one pass at exact capacities.
func ExampleNewSession_adaptive() {
	g := oms.GenDelaunay(20_000, 42)
	push := func(s *oms.Session) *oms.Result {
		for u := range g.NumNodes() {
			if _, err := s.Push(u, 1, g.Neighbors(u), nil); err != nil {
				log.Fatal(err)
			}
		}
		res, err := s.Finish()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// The reference declares everything up front.
	decl, err := oms.NewSession(oms.SessionConfig{
		Stats: oms.StreamStats{N: g.NumNodes(), M: g.NumEdges()},
		K:     256,
	})
	if err != nil {
		log.Fatal(err)
	}
	declRes := push(decl)
	fmt.Printf("declared: cut=%d imbalance=%.4f\n", declRes.EdgeCut(g), declRes.Imbalance(g))

	adpt, err := oms.NewSession(oms.SessionConfig{K: 256, Adaptive: true, Record: true})
	if err != nil {
		log.Fatal(err)
	}
	adptRes := push(adpt)
	info, _ := adpt.AdaptiveInfo()
	fmt.Printf("observed n=%d m=%d after %d revisions; the projection overshot n by %.1f%%\n",
		info.Observed.N, info.Observed.M, info.Revision, info.EstimateErrN*100)
	fmt.Printf("adaptive: cut=%d imbalance=%.4f\n", adptRes.EdgeCut(g), adptRes.Imbalance(g))
	fmt.Printf("cut ratio adaptive/declared: %.3f\n",
		float64(adptRes.EdgeCut(g))/float64(declRes.EdgeCut(g)))
	// Output:
	// declared: cut=16590 imbalance=0.0368
	// observed n=20000 m=59947 after 12 revisions; the projection overshot n by 195.2%
	// adaptive: cut=18654 imbalance=0.0368
	// cut ratio adaptive/declared: 1.124
}

// Partition a METIS file that never resides in memory: the streaming
// state is one int32 per node plus the multi-section tree, O(n + k)
// (Theorem 1), while the file is parsed once ahead of the pass. The
// disk pass places every node where the in-memory pass does.
func ExampleNewDiskSource() {
	dir, err := os.MkdirTemp("", "oms-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "rgg.metis")
	g := oms.GenRGG2D(20_000, 3)
	if err := oms.WriteMetisFile(path, g); err != nil {
		log.Fatal(err)
	}

	res, err := oms.Partition(oms.NewDiskSource(path), 4096, oms.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mem, err := oms.PartitionGraph(g, 4096, oms.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// About 5 nodes a block: the rounding of Lmax = 6 is the imbalance.
	fmt.Printf("cut=%d imbalance=%.4f\n", res.EdgeCut(g), res.Imbalance(g))
	fmt.Println("same as in memory:", slices.Equal(res.Parts, mem.Parts))
	if err := res.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
		log.Fatal(err)
	}
	fmt.Println("balance constraint satisfied")
	// Output:
	// cut=74295 imbalance=0.2288
	// same as in memory: true
	// balance constraint satisfied
}
