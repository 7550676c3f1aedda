package oms_test

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"oms"
)

func TestPartitionGraphBalancedAllK(t *testing.T) {
	g := oms.GenDelaunay(5000, 1)
	for _, k := range []int32{2, 5, 16, 64, 257} {
		res, err := oms.PartitionGraph(g, k, oms.Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.K != k {
			t.Fatalf("k=%d: result says %d", k, res.K)
		}
		if err := res.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, p := range res.Parts {
			if p < 0 || p >= k {
				t.Fatalf("k=%d: block %d out of range", k, p)
			}
		}
	}
}

func TestPartitionBeatsHashing(t *testing.T) {
	g := oms.GenRGG2D(8000, 3)
	k := int32(64)
	omsRes, err := oms.PartitionGraph(g, k, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hashRes, err := oms.PartitionOnePass(oms.NewMemorySource(g), k, oms.ScorerHashing, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if omsRes.EdgeCut(g)*2 >= hashRes.EdgeCut(g) {
		t.Fatalf("nh-OMS cut %d not clearly below Hashing %d",
			omsRes.EdgeCut(g), hashRes.EdgeCut(g))
	}
}

func TestMapImprovesOverFlatFennel(t *testing.T) {
	// The paper's headline: OMS computes better process mappings than
	// Fennel, which ignores the hierarchy.
	g := oms.GenRGG2D(8000, 5)
	top := oms.MustTopology("4:8:4", "1:10:100")
	mapRes, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fenRes, err := oms.PartitionOnePass(oms.NewMemorySource(g), top.Spec.K(), oms.ScorerFennel, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jOMS := mapRes.MappingCost(g, top)
	jFen := fenRes.MappingCost(g, top)
	if jOMS >= jFen {
		t.Fatalf("OMS J %v not below flat Fennel J %v", jOMS, jFen)
	}
}

func TestMapBalanced(t *testing.T) {
	g := oms.GenRMATCitation(4096, 20000, 7)
	top := oms.MustTopology("4:16:2", "1:10:100")
	res, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesConstraintsAndQuality(t *testing.T) {
	g := oms.GenDelaunay(20000, 11)
	k := int32(256)
	seq, err := oms.PartitionGraph(g, k, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := oms.PartitionGraph(g, k, oms.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := par.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
		t.Fatal(err)
	}
	// Threads is ignored: the run is the sequential one.
	if !slices.Equal(par.Parts, seq.Parts) {
		t.Fatal("Threads 4 partitions differently from the sequential run")
	}
}

func TestRestreamImproves(t *testing.T) {
	g := oms.GenRMATSocial(4096, 20000, 13)
	k := int32(64)
	one, err := oms.PartitionGraph(g, k, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := oms.Restream(oms.NewMemorySource(g), k, nil, 2, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.EdgeCut(g) > one.EdgeCut(g) {
		t.Fatalf("restreaming worsened cut: %d -> %d", one.EdgeCut(g), re.EdgeCut(g))
	}
	if err := re.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
		t.Fatal(err)
	}
}

// TestDiskSourceMatchesMemory: a graph streamed from a METIS file
// partitions exactly like the in-memory graph, and so does an
// edge-weighted RMAT file mapped onto 4:16:8 and partitioned at k = 64,
// with one P and with two.
func TestDiskSourceMatchesMemory(t *testing.T) {
	g := oms.GenDelaunay(2000, 17)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.metis")
	if err := oms.WriteMetisFile(path, g); err != nil {
		t.Fatal(err)
	}
	k := int32(16)
	mem, err := oms.Partition(oms.NewMemorySource(g), k, oms.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := oms.Partition(oms.NewDiskSource(path), k, oms.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for u := range mem.Parts {
		if mem.Parts[u] != disk.Parts[u] {
			t.Fatalf("disk and memory streams disagree at node %d", u)
		}
	}

	g = oms.GenRMATSocial(1<<13, 1<<16, 9825)
	weighted := false
	for u := int32(0); u < g.NumNodes() && !weighted; u++ {
		weighted = len(g.EdgeWeights(u)) > 0
	}
	if !weighted {
		t.Fatal("the RMAT graph carries no edge weights")
	}
	path = filepath.Join(dir, "rmat.metis")
	if err := oms.WriteMetisFile(path, g); err != nil {
		t.Fatal(err)
	}
	top := oms.MustTopology("4:16:8", "1:10:100")
	wantMap, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantPart, err := oms.PartitionGraph(g, 64, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		got, err := oms.Map(oms.NewDiskSource(path), top, oms.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Parts, wantMap.Parts) {
			t.Errorf("GOMAXPROCS %d: Map from the METIS file differs from memory", procs)
		}
		got, err = oms.Partition(oms.NewDiskSource(path), 64, oms.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Parts, wantPart.Parts) {
			t.Errorf("GOMAXPROCS %d: Partition from the METIS file differs from memory", procs)
		}
	}
}

// diskBenchResult keeps the measured call's result alive.
var diskBenchResult *oms.Result

// BenchmarkDiskSourcePartition: oms.Partition at k = 4096 of a 2^17-node
// random geometric graph streamed from a METIS file. The parse bounds the
// pass; it runs ahead of the assignment on a goroutine of its own.
func BenchmarkDiskSourcePartition(b *testing.B) {
	g := oms.GenRGG2D(1<<17, 9826)
	path := filepath.Join(b.TempDir(), "g.metis")
	if err := oms.WriteMetisFile(path, g); err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	g = nil
	b.Run("threads-1", func(b *testing.B) {
		src := oms.NewDiskSource(path)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := oms.Partition(src, 4096, oms.Options{})
			if err != nil {
				b.Fatal(err)
			}
			diskBenchResult = res
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
	})
}

func TestMetisRoundTrip(t *testing.T) {
	g := oms.GenWattsStrogatz(500, 3, 0.1, 19)
	dir := t.TempDir()
	path := filepath.Join(dir, "ws.metis")
	if err := oms.WriteMetisFile(path, g); err != nil {
		t.Fatal(err)
	}
	h, err := oms.ReadMetisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)",
			g.NumNodes(), g.NumEdges(), h.NumNodes(), h.NumEdges())
	}
}

func TestReadMetisFileMissing(t *testing.T) {
	if _, err := oms.ReadMetisFile(filepath.Join(t.TempDir(), "nope.metis")); err == nil {
		t.Fatal("expected error for missing file")
	}
	if _, err := os.Stat("nope.metis"); err == nil {
		t.Fatal("test should not have created a file")
	}
}

func TestPartitionMultilevelQualityReference(t *testing.T) {
	g := oms.GenDelaunay(6000, 23)
	k := int32(32)
	ml, err := oms.PartitionMultilevel(g, k, oms.MultilevelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
		t.Fatal(err)
	}
	strRes, err := oms.PartitionGraph(g, k, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ml.EdgeCut(g) >= strRes.EdgeCut(g) {
		t.Fatalf("multilevel cut %d not below streaming %d", ml.EdgeCut(g), strRes.EdgeCut(g))
	}
}

func TestMapOfflineBestQuality(t *testing.T) {
	// Quality ordering of the paper's Figure 2a, on one instance:
	// offline mapping (IntMap role) <= J of streaming OMS <= flat Hashing.
	g := oms.GenRGG2D(6000, 29)
	top := oms.MustTopology("4:4:4", "1:10:100")
	off, err := oms.MapOffline(g, top, oms.OfflineMapOptions{Seed: 1, SwapRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	str, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := oms.PartitionOnePass(oms.NewMemorySource(g), top.Spec.K(), oms.ScorerHashing, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jOff := off.MappingCost(g, top)
	jStr := str.MappingCost(g, top)
	jHash := hash.MappingCost(g, top)
	if !(jOff < jStr && jStr < jHash) {
		t.Fatalf("quality ordering violated: offline %v, streaming %v, hashing %v", jOff, jStr, jHash)
	}
}

func TestHybridTradeoff(t *testing.T) {
	// Hashing the bottom layers must not break balance and should sit
	// between pure Fennel-scored OMS and pure Hashing in cut quality.
	g := oms.GenDelaunay(8000, 31)
	top := oms.MustTopology("4:4:4", "1:10:100")
	pure, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := oms.MapGraph(g, top, oms.Options{HashLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	allHash, err := oms.MapGraph(g, top, oms.Options{Scorer: oms.ScorerHashing})
	if err != nil {
		t.Fatal(err)
	}
	if err := hybrid.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
		t.Fatal(err)
	}
	pc, hc, ac := pure.EdgeCut(g), hybrid.EdgeCut(g), allHash.EdgeCut(g)
	if !(pc <= hc && hc <= ac) {
		t.Fatalf("hybrid cut %d outside [pure %d, hashing %d]", hc, pc, ac)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := oms.GenErdosRenyi(100, 300, 1)
	if _, err := oms.PartitionGraph(g, 0, oms.Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	for _, eps := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		if _, err := oms.PartitionGraph(g, 4, oms.Options{Epsilon: eps}); err == nil {
			t.Fatalf("epsilon %v accepted", eps)
		}
	}
	if _, err := oms.PartitionGraph(g, 4, oms.Options{Base: 1}); err == nil {
		t.Fatal("base 1 accepted")
	}
	if _, err := oms.PartitionGraph(g, 8, oms.Options{Scorer: oms.Scorer(7)}); err == nil {
		t.Fatal("unknown scorer accepted")
	}
	if _, err := oms.Restream(oms.NewMemorySource(g), 4, nil, -1, oms.Options{}); err == nil {
		t.Fatal("negative passes accepted")
	}
}

func TestLevelCutsExplainMappingCost(t *testing.T) {
	g := oms.GenDelaunay(6000, 43)
	top := oms.MustTopology("4:4:4", "1:10:100")
	res, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cuts := res.LevelCuts(g, top)
	if len(cuts) != 3 {
		t.Fatalf("want 3 levels, got %d", len(cuts))
	}
	var j float64
	var total float64
	for i, c := range cuts {
		j += c * top.Dist.D[i]
		total += c
	}
	if got := res.MappingCost(g, top); got != j {
		t.Fatalf("level cuts x distances %v != J %v", j, got)
	}
	if int64(total) != res.EdgeCut(g) {
		t.Fatalf("level cuts sum %v != edge cut %d", total, res.EdgeCut(g))
	}
}
