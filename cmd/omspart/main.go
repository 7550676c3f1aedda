// Command omspart partitions or maps a METIS-format graph with the
// streaming online recursive multi-section or one of the bundled
// comparators, printing edge-cut, mapping cost, balance and timing.
//
// Plain k-way partitioning (nh-OMS, streamed from disk):
//
//	omspart -graph web.metis -k 1024
//
// Process mapping onto a 4:16:8 machine (OMS), loaded into memory first:
//
//	omspart -graph web.metis -topo 4:16:8 -dist 1:10:100 -inmemory
//
// Comparators: -alg fennel | ldg | hashing | multilevel | offline. The
// flat fennel, ldg and hashing are OMS on a one-level tree of k leaves:
// they visit all k blocks per node, as the paper's flat scan does, but
// rank Fennel's zero-gain blocks by load instead of scoring each.
// multilevel and offline load the whole graph into memory; the streaming
// algorithms run from disk unless -inmemory is set. Every streaming pass
// assigns in stream order on one goroutine; a pass from disk parses ahead
// on a core of its own.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"oms"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input METIS graph (required)")
		k         = flag.Int("k", 0, "number of blocks (plain partitioning)")
		topoStr   = flag.String("topo", "", "topology spec a1:a2:...:al (process mapping)")
		distStr   = flag.String("dist", "1:10:100", "level distances d1:d2:...:dl")
		alg       = flag.String("alg", "oms", "oms | fennel | ldg | hashing | multilevel | offline")
		eps       = flag.Float64("eps", 0.03, "allowed imbalance")
		seed      = flag.Uint64("seed", 1, "random seed")
		base      = flag.Int("base", 4, "artificial hierarchy base (nh-OMS)")
		hashLay   = flag.Int("hashlayers", 0, "bottom layers solved by Hashing (hybrid OMS)")
		inMemory  = flag.Bool("inmemory", false, "load the graph instead of streaming from disk")
		orderStr  = flag.String("order", "natural", "stream order: natural | random | degree-desc | degree-asc | bfs (non-natural implies -inmemory)")
		outPath   = flag.String("o", "", "write the partition vector (one block id per line)")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "omspart: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*graphPath, *k, *topoStr, *distStr, *alg, *eps, *seed, *base, *hashLay, *inMemory, *orderStr, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "omspart:", err)
		os.Exit(1)
	}
}

func parseOrder(s string) (oms.StreamOrder, error) {
	switch s {
	case "natural", "":
		return oms.OrderNatural, nil
	case "random":
		return oms.OrderRandom, nil
	case "degree-desc":
		return oms.OrderDegreeDesc, nil
	case "degree-asc":
		return oms.OrderDegreeAsc, nil
	case "bfs":
		return oms.OrderBFS, nil
	default:
		return 0, fmt.Errorf("unknown -order %q", s)
	}
}

func run(graphPath string, k int, topoStr, distStr, alg string, eps float64, seed uint64, base, hashLayers int, inMemory bool, orderStr, outPath string) error {
	var top *oms.Topology
	if topoStr != "" {
		t, err := oms.NewTopology(topoStr, distStr)
		if err != nil {
			return err
		}
		top = t
		k = int(t.Spec.K())
	}
	if k < 1 {
		return fmt.Errorf("need -k or -topo")
	}

	opt := oms.Options{
		Epsilon:    eps,
		Seed:       seed,
		Base:       int32(base),
		HashLayers: hashLayers,
	}

	order, err := parseOrder(orderStr)
	if err != nil {
		return err
	}
	needMemory := alg == "multilevel" || alg == "offline" || inMemory || order != oms.OrderNatural
	var g *oms.Graph
	var src oms.Source
	if needMemory {
		g, err = oms.ReadMetisFile(graphPath)
		if err != nil {
			return err
		}
		if order != oms.OrderNatural {
			src = oms.NewOrderedSource(g, order, seed)
		} else {
			src = oms.NewMemorySource(g)
		}
	} else {
		src = oms.NewDiskSource(graphPath)
	}

	start := time.Now()
	var res *oms.Result
	switch alg {
	case "oms":
		if top != nil {
			res, err = oms.Map(src, top, opt)
		} else {
			res, err = oms.Partition(src, int32(k), opt)
		}
	case "fennel":
		res, err = oms.PartitionOnePass(src, int32(k), oms.ScorerFennel, opt)
	case "ldg":
		res, err = oms.PartitionOnePass(src, int32(k), oms.ScorerLDG, opt)
	case "hashing":
		res, err = oms.PartitionOnePass(src, int32(k), oms.ScorerHashing, opt)
	case "multilevel":
		res, err = oms.PartitionMultilevel(g, int32(k), oms.MultilevelOptions{Epsilon: eps, Seed: seed})
	case "offline":
		if top == nil {
			return fmt.Errorf("-alg offline requires -topo")
		}
		res, err = oms.MapOffline(g, top, oms.OfflineMapOptions{Epsilon: eps, Seed: seed, SwapRounds: 3})
	default:
		return fmt.Errorf("unknown -alg %q", alg)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("algorithm   %s\n", alg)
	fmt.Printf("k           %d\n", res.K)
	fmt.Printf("time        %.4fs\n", elapsed.Seconds())

	// Quality metrics need the graph in memory; load it if we streamed.
	if g == nil {
		g, err = oms.ReadMetisFile(graphPath)
		if err != nil {
			return fmt.Errorf("reloading graph for metrics: %w", err)
		}
	}
	fmt.Printf("edge-cut    %d\n", res.EdgeCut(g))
	fmt.Printf("imbalance   %.5f (allowed Lmax %d)\n", res.Imbalance(g), res.Lmax)
	if top != nil {
		fmt.Printf("mapping J   %.0f\n", res.MappingCost(g, top))
		cuts := res.LevelCuts(g, top)
		fmt.Printf("level cuts ")
		for i, c := range cuts {
			fmt.Printf("  L%d(d=%g)=%.0f", i, top.Dist.D[i], c)
		}
		fmt.Println()
	}
	if err := res.CheckBalanced(g, eps); err != nil {
		fmt.Printf("balance     VIOLATED: %v\n", err)
	} else {
		fmt.Printf("balance     ok\n")
	}

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<20)
		for _, p := range res.Parts {
			fmt.Fprintln(w, p)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
