// Hybrid mapping: trade solution quality for speed by solving the cheap
// bottom layers of the multi-section with Hashing while Fennel handles
// the expensive top layers (paper §3.2, Theorem 3).
//
// The intuition: a cut edge between two cores of the same processor
// costs 1, between nodes it costs 100 — so precision matters at the top
// of the hierarchy and barely at the bottom. Hashing the bottom layers
// removes most of the scoring work (the bottom layers contain most of
// the tree) at a modest mapping-cost penalty.
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"
	"time"

	"oms"
)

func main() {
	fmt.Println("generating graph...")
	g := oms.GenRGG2D(500_000, 11)
	fmt.Printf("n=%d m=%d\n\n", g.NumNodes(), g.NumEdges())

	top, err := oms.NewTopology("4:8:16", "1:10:100")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology 4:8:16 (k=%d), distances 1:10:100\n\n", top.Spec.K())
	fmt.Printf("%-28s %-10s %-12s %s\n", "configuration", "time", "J", "edge-cut")

	var baseJ, baseT float64
	for h := 0; h <= 3; h++ {
		start := time.Now()
		res, err := oms.MapGraph(g, top, oms.Options{HashLayers: h})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		j := res.MappingCost(g, top)
		if h == 0 {
			baseJ, baseT = j, elapsed
		}
		label := fmt.Sprintf("h=%d", h)
		switch h {
		case 0:
			label += " (pure Fennel scoring)"
		case 3:
			label += " (all layers hashed)"
		default:
			label += fmt.Sprintf(" (bottom %d/3 hashed)", h)
		}
		fmt.Printf("%-28s %-10s %-12.0f %d   [J %+.1f%%, time %+.1f%%]\n",
			label,
			(time.Duration(elapsed * float64(time.Second))).Round(time.Millisecond).String(),
			j, res.EdgeCut(g),
			(j/baseJ-1)*100, (elapsed/baseT-1)*100)
	}

	fmt.Println("\nhigher h: faster, worse mapping — pick per deployment needs.")
}
