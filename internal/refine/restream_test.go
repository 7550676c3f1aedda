package refine

import (
	"context"
	"errors"
	"slices"
	"testing"

	"oms"
	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/metrics"
	"oms/internal/stream"
)

// finishedSession is finishedSessionOn over a small skewed RMAT graph.
func finishedSession(t *testing.T, k int32, threads int) (oms.SessionConfig, []int32, oms.Source, *graph.Graph) {
	t.Helper()
	return finishedSessionOn(t, gen.RMAT(2048, 10000, gen.SocialRMAT, 7), k, threads)
}

// finishedSessionOn streams g through a fresh push session in natural
// order and returns the session config, the one-pass parts, and the
// replayable source.
func finishedSessionOn(t *testing.T, g *graph.Graph, k int32, threads int) (oms.SessionConfig, []int32, oms.Source, *graph.Graph) {
	t.Helper()
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cfg := oms.SessionConfig{Stats: st, K: k, Options: oms.Options{Seed: 3, Threads: threads}}
	sess, err := oms.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		if _, perr := sess.Push(u, vwgt, adj, ewgt); perr != nil {
			t.Fatal(perr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res.Parts, src, g
}

func TestRestreamPublishesImprovingVersions(t *testing.T) {
	cfg, parts, src, g := finishedSession(t, 16, 1)
	cut0, err := EdgeCut(src, parts)
	if err != nil {
		t.Fatal(err)
	}
	if want := metrics.EdgeCut(g, parts); cut0 != want {
		t.Fatalf("EdgeCut over the stream %d != graph edge cut %d", cut0, want)
	}

	var results []PassResult
	err = Restream(context.Background(), cfg, src, parts, 3, func(pr PassResult) error {
		results = append(results, pr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("published %d versions, want 3", len(results))
	}
	prev := cut0
	for _, pr := range results {
		if got := metrics.EdgeCut(g, pr.Parts); got != pr.EdgeCut {
			t.Fatalf("pass %d reports cut %d, graph says %d", pr.Pass, pr.EdgeCut, got)
		}
		if pr.EdgeCut > prev {
			t.Fatalf("pass %d worsened cut: %d -> %d", pr.Pass, prev, pr.EdgeCut)
		}
		if err := metrics.CheckBalanced(g, pr.Parts, 16, oms.DefaultEpsilon); err != nil {
			t.Fatalf("pass %d: %v", pr.Pass, err)
		}
		prev = pr.EdgeCut
	}
	if results[len(results)-1].EdgeCut >= cut0 {
		t.Fatalf("3 passes did not improve the cut (%d -> %d)", cut0, results[len(results)-1].EdgeCut)
	}

	// The one-pass state must be untouched: the refinement engine is a
	// private replica.
	if cutAfter, _ := EdgeCut(src, parts); cutAfter != cut0 {
		t.Fatalf("one-pass parts mutated by refinement: cut %d -> %d", cut0, cutAfter)
	}
}

// TestRestreamParallelKeepsBalanceAndImproves holds refinement of a mesh
// (RGG) and of a skewed graph (the RMAT instance of this file) to two
// things. Sequential passes never worsen the one-pass cut and keep the
// balance, pass by pass. And a config asking for four threads publishes
// exactly the parts and cuts of one thread, pass by pass: restream passes
// always run in stream order.
func TestRestreamParallelKeepsBalanceAndImproves(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg", gen.RandomGeometric(4096, 0.55, 7)},
		{"rmat", gen.RMAT(2048, 10000, gen.SocialRMAT, 7)},
	} {
		cfg, parts, src, g := finishedSessionOn(t, c.g, 16, 4)
		cut0, err := EdgeCut(src, parts)
		if err != nil {
			t.Fatal(err)
		}

		seq := cfg
		seq.Options.Threads = 1
		prev := cut0
		var seqPasses []PassResult
		err = Restream(context.Background(), seq, src, parts, 2, func(pr PassResult) error {
			if pr.EdgeCut > prev {
				t.Fatalf("%s: sequential pass %d worsened the cut %d -> %d", c.name, pr.Pass, prev, pr.EdgeCut)
			}
			prev = pr.EdgeCut
			seqPasses = append(seqPasses, pr)
			return metrics.CheckBalanced(g, pr.Parts, 16, oms.DefaultEpsilon)
		})
		if err != nil {
			t.Fatalf("%s: sequential: %v", c.name, err)
		}

		var parPasses []PassResult
		err = Restream(context.Background(), cfg, src, parts, 2, func(pr PassResult) error {
			parPasses = append(parPasses, pr)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(parPasses) != len(seqPasses) {
			t.Fatalf("%s: threads 4 published %d passes, threads 1 %d", c.name, len(parPasses), len(seqPasses))
		}
		for i, pr := range parPasses {
			want := seqPasses[i]
			if pr.Pass != want.Pass || pr.EdgeCut != want.EdgeCut || !slices.Equal(pr.Parts, want.Parts) {
				t.Fatalf("%s: pass %d at threads 4 (cut %d) differs from threads 1 (cut %d)", c.name, pr.Pass, pr.EdgeCut, want.EdgeCut)
			}
		}
	}
}

func TestRestreamHonorsContext(t *testing.T) {
	cfg, parts, src, _ := finishedSession(t, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	published := 0
	err := Restream(ctx, cfg, src, parts, 5, func(pr PassResult) error {
		published++
		cancel() // cancel after the first published pass
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if published != 1 {
		t.Fatalf("published %d passes after cancel, want 1", published)
	}
}

func TestRestreamPublishErrorAborts(t *testing.T) {
	cfg, parts, src, _ := finishedSession(t, 8, 1)
	boom := errors.New("publish failed")
	calls := 0
	err := Restream(context.Background(), cfg, src, parts, 4, func(PassResult) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want the publish error", err)
	}
	if calls != 1 {
		t.Fatalf("publish called %d times after failing, want 1", calls)
	}
}

func TestRestreamRejectsBadPasses(t *testing.T) {
	cfg, parts, src, _ := finishedSession(t, 8, 1)
	if err := Restream(context.Background(), cfg, src, parts, 0, func(PassResult) error { return nil }); err == nil {
		t.Fatal("0 passes accepted")
	}
}

// TestRestreamSeedReconcilesAdaptive: a replica rebuilt from a seed on
// an adaptive config must reconcile its projection to the exact observed
// totals before its first pass. Otherwise it restreams under
// headroom-inflated capacities and can publish versions outside the
// balance guarantee the session's own finish satisfied. The seed is the
// streaming-time assignment, which the inflated projection left out of
// balance, so only a pass under the exact threshold repairs it.
func TestRestreamSeedReconcilesAdaptive(t *testing.T) {
	g := oms.GenDelaunay(1500, 3)
	src := stream.NewMemory(g)
	cfg := oms.SessionConfig{K: 8, Adaptive: true, AdaptiveHeadroom: 2}
	s, err := oms.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		if _, err := s.Push(u, 1, g.Neighbors(u), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// The exact declared-equivalent threshold, ceil((1+eps) n/k).
	want := int64(float64(g.NumNodes())*1.03/8) + 1
	maxLoad := func(parts []int32) int64 {
		loads := make([]int64, 8)
		for _, p := range parts {
			loads[p]++
		}
		return slices.Max(loads)
	}
	if mx := maxLoad(res.Parts); mx <= want {
		t.Fatalf("streaming seed max block load %d already within the reconciled lmax %d", mx, want)
	}
	err = Restream(context.Background(), cfg, src, res.Parts, 1, func(pr PassResult) error {
		if mx := maxLoad(pr.Parts); mx > want {
			t.Fatalf("first pass max block load %d above the reconciled lmax %d", mx, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestreamFromOnePassParts pins the edge cuts a first refinement job
// publishes when its replica is seeded from the finished one-pass parts,
// across declared partitioning, process mapping, and the three adaptive
// finishes: Record (reconcile pass over the in-memory buffer), persisted
// (reconcile pass over an external replay, as the omsd WAL path does)
// and unretained (no reconcile pass). The figures are those of the
// replica restored from the finished engine's exported state, which the
// seed replay replaced: replaying the assignment rebuilds the same loads,
// edge count and estimator, so every pass is bit-identical.
func TestRestreamFromOnePassParts(t *testing.T) {
	g := gen.RMAT(1<<12, 30000, gen.SocialRMAT, 7)
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	opts := oms.Options{Seed: 3}
	for _, c := range []struct {
		name      string
		cfg       oms.SessionConfig
		reconcile bool // one RestreamFrom pass over src after Finish
		cuts      []int64
	}{
		{"declared k16", oms.SessionConfig{Stats: st, K: 16, Options: opts}, false,
			[]int64{20892, 20798, 20797, 20797}},
		{"map 4:4:2", oms.SessionConfig{Stats: st, Topology: oms.MustTopology("4:4:2", "1:10:100"), Options: opts}, false,
			[]int64{24144, 24141, 24141, 24141}},
		{"adaptive record", oms.SessionConfig{K: 16, Adaptive: true, AdaptiveHeadroom: 2, Record: true, Options: opts}, false,
			[]int64{24889, 24834, 24723, 24709}},
		{"adaptive reconcile over src", oms.SessionConfig{K: 16, Adaptive: true, AdaptiveHeadroom: oms.RetainedAdaptiveHeadroom, Options: opts}, true,
			[]int64{24889, 24834, 24723, 24709}},
		{"adaptive default headroom", oms.SessionConfig{K: 16, Adaptive: true, Options: opts}, false,
			[]int64{24390, 24258, 24216, 24177}},
	} {
		s, err := oms.NewSession(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
			if _, perr := s.Push(u, vwgt, adj, ewgt); perr != nil {
				t.Fatal(perr)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if c.reconcile {
			if res, err = s.RestreamFrom(src, 1); err != nil {
				t.Fatal(err)
			}
		}
		cut0, err := EdgeCut(src, res.Parts)
		if err != nil {
			t.Fatal(err)
		}
		got := []int64{cut0}
		err = Restream(context.Background(), c.cfg, src, res.Parts, 3, func(pr PassResult) error {
			got = append(got, pr.EdgeCut)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.cuts) {
			t.Fatalf("%s: one-pass and per-pass cuts %v, want %v", c.name, got, c.cuts)
		}
	}
}
