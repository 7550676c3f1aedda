package oms_test

import (
	"math"
	"slices"
	"testing"

	"oms"
)

// pushAll streams g through s in natural node order.
func pushAll(t *testing.T, s *oms.Session, g *oms.Graph) {
	t.Helper()
	for u := int32(0); u < g.NumNodes(); u++ {
		if _, err := s.Push(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u)); err != nil {
			t.Fatalf("push %d: %v", u, err)
		}
	}
}

// TestAdaptiveSessionPartitionsWithoutDeclaredStats is the tentpole
// acceptance at the library level: an open-ended session (no n, no m)
// streams a graph, finishes balanced within the documented adaptive
// bound, and lands within a modest factor of the declared-stats cut.
func TestAdaptiveSessionPartitionsWithoutDeclaredStats(t *testing.T) {
	g := oms.GenDelaunay(6000, 7)
	const k = 64
	const eps = 0.03

	decl, err := oms.NewSession(oms.SessionConfig{
		Stats: oms.StreamStats{N: g.NumNodes(), M: g.NumEdges(),
			TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight()},
		K:       k,
		Options: oms.Options{Epsilon: eps},
	})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, decl, g)
	declRes, err := decl.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Pure streaming (no retention): the projection alone carries the
	// balance bound — (1+eps)(1+headroom) with the tight default
	// headroom, about twice the declared slack — at a documented
	// quality cold-start.
	adpt, err := oms.NewSession(oms.SessionConfig{K: k, Options: oms.Options{Epsilon: eps}, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !adpt.Adaptive() {
		t.Fatal("session not adaptive")
	}
	pushAll(t, adpt, g)
	res, err := adpt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if int32(len(res.Parts)) < g.NumNodes() {
		t.Fatalf("adaptive result covers %d of %d nodes", len(res.Parts), g.NumNodes())
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		if res.Parts[u] < 0 || res.Parts[u] >= k {
			t.Fatalf("node %d assigned %d outside [0,%d)", u, res.Parts[u], k)
		}
	}
	checkLoads := func(parts []int32, bound int64, label string) {
		t.Helper()
		loads := make([]int64, k)
		for u := int32(0); u < g.NumNodes(); u++ {
			loads[parts[u]] += int64(g.NodeWeight(u))
		}
		for b, l := range loads {
			if l > bound {
				t.Fatalf("%s: block %d load %d exceeds bound %d", label, b, l, bound)
			}
		}
	}
	avg := float64(g.TotalNodeWeight()) / float64(k)
	pureBound := int64(math.Ceil((1+eps)*(1+0.03)*avg)) + 1
	checkLoads(res.Parts, pureBound, "pure adaptive")
	declCut := declRes.EdgeCut(g)
	if adptCut := res.EdgeCut(g); float64(adptCut) > 3*float64(declCut)+100 {
		t.Fatalf("pure adaptive cut %d beyond the cold-start envelope of declared cut %d", adptCut, declCut)
	}

	// Retained (Record): the optimistic projection plus the finish-time
	// reconcile pass lands near the declared result on both metrics —
	// the cut within 10% (+16 edges of jitter room; this seeded stream
	// reads 4910 against 4536, 1.08x), the loads within the declared
	// epsilon itself.
	ret, err := oms.NewSession(oms.SessionConfig{K: k, Options: oms.Options{Epsilon: eps}, Adaptive: true, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, ret, g)
	retRes, err := ret.Finish()
	if err != nil {
		t.Fatal(err)
	}
	checkLoads(retRes.Parts, int64(math.Ceil((1+eps)*avg))+1, "retained adaptive")
	if c := retRes.EdgeCut(g); float64(c) > 1.10*float64(declCut)+16 {
		t.Fatalf("retained adaptive cut %d, want within 10%% of declared %d", c, declCut)
	}

	info, ok := adpt.AdaptiveInfo()
	if !ok {
		t.Fatal("no AdaptiveInfo on adaptive session")
	}
	if info.Observed.N != g.NumNodes() || info.Observed.TotalNodeWeight != g.TotalNodeWeight() {
		t.Fatalf("observed totals %+v disagree with the graph (n=%d w=%d)", info.Observed, g.NumNodes(), g.TotalNodeWeight())
	}
	// Each undirected edge was pushed once per endpoint, so observed m
	// reconciles exactly.
	if info.Observed.M != g.NumEdges() {
		t.Fatalf("observed m %d, graph has %d", info.Observed.M, g.NumEdges())
	}
	if info.Estimated != info.Observed {
		t.Fatalf("finish did not reconcile: est %+v vs obs %+v", info.Estimated, info.Observed)
	}
	if info.EstimateErrN < 0 || info.EstimateErrW < 0 {
		t.Fatalf("negative estimate error (projection below observed): %+v", info)
	}
	if info.Revision == 0 {
		t.Fatal("projection never ratcheted")
	}
}

// TestAdaptiveDeterministicAndBatchParity: the adaptive walk stays
// deterministic for a fixed arrival order, and PushBatch is
// bit-identical to the same sequence of Push calls.
func TestAdaptiveDeterministicAndBatchParity(t *testing.T) {
	g := oms.GenRMATSocial(4000, 16000, 3)
	cfg := oms.SessionConfig{K: 32, Adaptive: true, Options: oms.Options{Seed: 5}}

	run := func() []int32 {
		s, err := oms.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pushAll(t, s, g)
		res, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res.Parts
	}
	a, b := run(), run()
	for u := range a {
		if a[u] != b[u] {
			t.Fatalf("node %d differs across identical runs: %d vs %d", u, a[u], b[u])
		}
	}

	bs, err := oms.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var batch []oms.Node
	for u := int32(0); u < g.NumNodes(); u++ {
		batch = append(batch, oms.Node{U: u, W: g.NodeWeight(u), Adj: g.Neighbors(u), EW: g.EdgeWeights(u)})
		if len(batch) == 512 || u == g.NumNodes()-1 {
			if _, err := bs.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	res, err := bs.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if a[u] != res.Parts[u] {
			t.Fatalf("node %d: batch %d vs sequential %d", u, res.Parts[u], a[u])
		}
	}
}

// TestAdaptiveResumeByReplay: replaying the first third of an adaptive
// stream with its recorded blocks through PushAssigned rebuilds the
// engine exactly — loads, assignments, edge count and estimator, so
// later ratchets fire at the same instants — and the suffix then
// continues bit-identically. Recovery relies on this property.
func TestAdaptiveResumeByReplay(t *testing.T) {
	g := oms.GenRGG2D(5000, 11)
	cfg := oms.SessionConfig{K: 48, Adaptive: true, Options: oms.Options{Seed: 2}}

	full, err := oms.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := oms.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := g.NumNodes() / 3
	for u := int32(0); u < cut; u++ {
		b, err := full.Push(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.PushAssigned(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u), b); err != nil {
			t.Fatal(err)
		}
	}
	fLoads, fParts, fEdges := full.EngineState()
	rLoads, rParts, rEdges := resumed.EngineState()
	if !slices.Equal(fLoads, rLoads) || !slices.Equal(fParts, rParts) || fEdges != rEdges {
		t.Fatal("replayed prefix left a different engine state")
	}
	fi, _ := full.AdaptiveInfo()
	ri, _ := resumed.AdaptiveInfo()
	if fi != ri || full.Lmax() != resumed.Lmax() {
		t.Fatalf("replayed estimator diverged: %+v (lmax %d) vs %+v (lmax %d)", fi, full.Lmax(), ri, resumed.Lmax())
	}
	for u := cut; u < g.NumNodes(); u++ {
		bf, err := full.Push(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
		if err != nil {
			t.Fatal(err)
		}
		br, err := resumed.Push(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
		if err != nil {
			t.Fatal(err)
		}
		if bf != br {
			t.Fatalf("node %d: resumed %d vs uninterrupted %d", u, br, bf)
		}
	}
	fres, _ := full.Finish()
	rres, _ := resumed.Finish()
	if fres.Lmax != rres.Lmax || len(fres.Parts) != len(rres.Parts) {
		t.Fatalf("finish disagrees: lmax %d/%d parts %d/%d", fres.Lmax, rres.Lmax, len(fres.Parts), len(rres.Parts))
	}
	fi, _ = full.AdaptiveInfo()
	ri, _ = resumed.AdaptiveInfo()
	if fi.Observed != ri.Observed || fi.Revision != ri.Revision {
		t.Fatalf("estimator state diverged: %+v vs %+v", fi, ri)
	}
}

// TestAdaptiveHintsAndValidation: hints floor the projection, and the
// declared-session validation still rejects n == 0 without Adaptive.
func TestAdaptiveHintsAndValidation(t *testing.T) {
	if _, err := oms.NewSession(oms.SessionConfig{K: 4}); err == nil {
		t.Fatal("n=0 without Adaptive must fail")
	}
	if _, err := oms.NewSession(oms.SessionConfig{K: 4, Adaptive: true, AdaptiveMaxN: -1}); err == nil {
		t.Fatal("negative adaptive cap must fail")
	}
	if _, err := oms.NewSession(oms.SessionConfig{K: 4, Adaptive: true, AdaptiveHeadroom: -0.5}); err == nil {
		t.Fatal("negative headroom must fail")
	}

	s, err := oms.NewSession(oms.SessionConfig{
		K:        8,
		Adaptive: true,
		Stats:    oms.StreamStats{N: 1000, TotalNodeWeight: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(0, 1, []int32{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	info, _ := s.AdaptiveInfo()
	if info.Estimated.N < 1000 {
		t.Fatalf("hinted projection %d below the 1000-node hint", info.Estimated.N)
	}

	// The id ceiling still applies.
	capped, err := oms.NewSession(oms.SessionConfig{K: 4, Adaptive: true, AdaptiveMaxN: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capped.Push(100, 1, nil, nil); err == nil {
		t.Fatal("push beyond AdaptiveMaxN must fail")
	}
	if _, err := capped.Push(5, 1, []int32{101}, nil); err == nil {
		t.Fatal("neighbor beyond AdaptiveMaxN must fail")
	}
}

// TestAdaptiveRestreamRefines: the offline refinement walk keeps
// working on adaptive sessions once the stream seals — Finish
// reconciled against the true totals, so extra passes refine against
// exact capacities and never worsen the cut.
func TestAdaptiveRestreamRefines(t *testing.T) {
	g := oms.GenDelaunay(4000, 9)
	s, err := oms.NewSession(oms.SessionConfig{K: 32, Adaptive: true, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, s, g)
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cut0 := res.EdgeCut(g)
	ref, err := s.Restream(2)
	if err != nil {
		t.Fatal(err)
	}
	if c := ref.EdgeCut(g); c > cut0 {
		t.Fatalf("restream worsened the cut: %d -> %d", cut0, c)
	}

	// One RestreamFrom pass after Finish is the durable-log flavor of
	// the same repair: over an external replay of the recorded stream it
	// must keep the result balanced and not worsen the cut either.
	s2, err := oms.NewSession(oms.SessionConfig{K: 32, Adaptive: true, AdaptiveHeadroom: oms.RetainedAdaptiveHeadroom})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, s2, g)
	res2, err := s2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := s2.RestreamFrom(s.Source(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := rp.EdgeCut(g); c > res2.EdgeCut(g) {
		t.Fatalf("reconcile pass worsened the cut: %d -> %d", res2.EdgeCut(g), c)
	}
	if imb := rp.Imbalance(g); imb > 0.035 {
		t.Fatalf("reconcile pass left imbalance %v above epsilon", imb)
	}
}
