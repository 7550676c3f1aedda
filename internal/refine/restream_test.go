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
func finishedSession(t *testing.T, k int32, threads int) (oms.SessionConfig, oms.SessionState, []int32, oms.Source, *graph.Graph) {
	t.Helper()
	return finishedSessionOn(t, gen.RMAT(2048, 10000, gen.SocialRMAT, 7), k, threads)
}

// finishedSessionOn streams g through a fresh push session in natural
// order and returns the session config, the finished engine's exported
// state, the one-pass parts, and the replayable source.
func finishedSessionOn(t *testing.T, g *graph.Graph, k int32, threads int) (oms.SessionConfig, oms.SessionState, []int32, oms.Source, *graph.Graph) {
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
	return cfg, sess.ExportState(), res.Parts, src, g
}

func TestRestreamPublishesImprovingVersions(t *testing.T) {
	cfg, state, parts, src, g := finishedSession(t, 16, 1)
	cut0, err := EdgeCut(src, parts)
	if err != nil {
		t.Fatal(err)
	}
	if want := metrics.EdgeCut(g, parts); cut0 != want {
		t.Fatalf("EdgeCut over the stream %d != graph edge cut %d", cut0, want)
	}

	var results []PassResult
	err = Restream(context.Background(), cfg, state, src, 3, func(pr PassResult) error {
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
		cfg, state, parts, src, g := finishedSessionOn(t, c.g, 16, 4)
		cut0, err := EdgeCut(src, parts)
		if err != nil {
			t.Fatal(err)
		}

		seq := cfg
		seq.Options.Threads = 1
		prev := cut0
		var seqPasses []PassResult
		err = Restream(context.Background(), seq, state, src, 2, func(pr PassResult) error {
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
		err = Restream(context.Background(), cfg, state, src, 2, func(pr PassResult) error {
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
	cfg, state, _, src, _ := finishedSession(t, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	published := 0
	err := Restream(ctx, cfg, state, src, 5, func(pr PassResult) error {
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
	cfg, state, _, src, _ := finishedSession(t, 8, 1)
	boom := errors.New("publish failed")
	calls := 0
	err := Restream(context.Background(), cfg, state, src, 4, func(PassResult) error {
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
	cfg, state, _, src, _ := finishedSession(t, 8, 1)
	if err := Restream(context.Background(), cfg, state, src, 0, func(PassResult) error { return nil }); err == nil {
		t.Fatal("0 passes accepted")
	}
}

// TestStateFromAssignmentReconcilesAdaptive: a continuation rebuild on
// an adaptive config must come back with the projection reconciled to
// the exact observed totals — otherwise the continuation restreams
// under headroom-inflated capacities and can publish versions outside
// the balance guarantee the session's own finish satisfied.
func TestStateFromAssignmentReconcilesAdaptive(t *testing.T) {
	g := oms.GenDelaunay(1500, 3)
	cfg := oms.SessionConfig{K: 8, Adaptive: true, AdaptiveHeadroom: 2, Record: true}
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
	st, err := StateFromAssignment(cfg, s.Source(), res.Parts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Estimator == nil {
		t.Fatal("adaptive rebuild exports no estimator state")
	}
	if st.Estimator.Est.N != g.NumNodes() || st.Estimator.Est.TotalNodeWeight != int64(g.NumNodes()) {
		t.Fatalf("rebuild projection %+v not reconciled to the true totals (n=%d)", st.Estimator.Est, g.NumNodes())
	}
	// A replica restored from it carries the exact declared-equivalent
	// threshold, so continuation passes refine under exact capacities
	// (replicas never record, exactly as Restream builds them).
	rcfg := cfg
	rcfg.Record = false
	replica, err := oms.NewSession(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	want := int64(float64(g.NumNodes())*1.03/8) + 1 // ceil((1+eps) n/k)
	if replica.Lmax() != want {
		t.Fatalf("replica lmax %d, want reconciled %d", replica.Lmax(), want)
	}
}
