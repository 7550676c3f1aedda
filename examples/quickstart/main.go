// Quickstart: partition a graph into k balanced blocks with the
// streaming online recursive multi-section (nh-OMS) and inspect the
// result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"oms"
)

func main() {
	// A Delaunay mesh with 200k nodes — the del-family of the paper's
	// benchmark set. Any oms.Graph works; build your own with
	// oms.NewBuilder or load one with oms.ReadMetisFile.
	fmt.Println("generating graph...")
	g := oms.GenDelaunay(200_000, 42)
	fmt.Printf("n=%d m=%d\n\n", g.NumNodes(), g.NumEdges())

	// Partition into 1024 blocks. The zero Options select the paper's
	// tuned defaults: Fennel scoring, adapted alpha, 3% imbalance,
	// base-4 multi-section tree, sequential streaming.
	start := time.Now()
	res, err := oms.PartitionGraph(g, 1024, oms.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nh-OMS:   cut=%-8d imbalance=%.4f  time=%v\n",
		res.EdgeCut(g), res.Imbalance(g), time.Since(start).Round(time.Millisecond))

	// Compare with the flat one-pass competitors: OMS on a one-level
	// tree of all k blocks. Fennel still visits all k per node
	// (O(m + nk)), though it ranks the zero-gain ones by load instead of
	// scoring each; nh-OMS walks a base-4 tree (O((m+4n) log k)) — same
	// idea, far less work per node.
	for _, c := range []struct {
		name   string
		scorer oms.Scorer
	}{
		{"Fennel", oms.ScorerFennel},
		{"LDG", oms.ScorerLDG},
		{"Hashing", oms.ScorerHashing},
	} {
		start := time.Now()
		r, err := oms.PartitionOnePass(oms.NewMemorySource(g), 1024, c.scorer, oms.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s  cut=%-8d imbalance=%.4f  time=%v\n",
			c.name+":", r.EdgeCut(g), r.Imbalance(g), time.Since(start).Round(time.Millisecond))
	}

	// res.Parts[u] is the permanent block of node u, assigned the moment
	// u was streamed.
	fmt.Printf("\nfirst ten assignments: %v\n", res.Parts[:10])
}
