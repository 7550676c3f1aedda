package oms_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"oms"
)

// pushWhole streams g through a session in natural node order, checking
// that every Push echoes the block the final result reports.
func pushWhole(t *testing.T, s *oms.Session, g *oms.Graph) []int32 {
	t.Helper()
	n := g.NumNodes()
	online := make([]int32, n)
	for u := int32(0); u < n; u++ {
		b, err := s.Push(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
		if err != nil {
			t.Fatalf("push %d: %v", u, err)
		}
		online[u] = b
	}
	return online
}

func TestSessionMatchesPartition(t *testing.T) {
	g := oms.GenDelaunay(4000, 11)
	st := oms.StreamStats{
		N: g.NumNodes(), M: g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
	}
	for _, opt := range []oms.Options{
		{},
		{Scorer: oms.ScorerLDG},
		{Scorer: oms.ScorerHashing, Seed: 99},
		{HashLayers: 1, Seed: 3},
	} {
		want, err := oms.PartitionGraph(g, 64, opt)
		if err != nil {
			t.Fatal(err)
		}
		s, err := oms.NewSession(oms.SessionConfig{Stats: st, K: 64, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		online := pushWhole(t, s, g)
		res, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if res.Lmax != want.Lmax {
			t.Fatalf("opt %+v: lmax %d, want %d", opt, res.Lmax, want.Lmax)
		}
		for u := range want.Parts {
			if online[u] != want.Parts[u] || res.Parts[u] != want.Parts[u] {
				t.Fatalf("opt %+v: node %d got %d/%d, pull-based Run got %d",
					opt, u, online[u], res.Parts[u], want.Parts[u])
			}
		}
	}
}

func TestSessionMatchesMap(t *testing.T) {
	g := oms.GenRGG2D(3000, 5)
	top := oms.MustTopology("4:4:4", "1:10:100")
	want, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := oms.NewSession(oms.SessionConfig{
		Stats: oms.StreamStats{
			N: g.NumNodes(), M: g.NumEdges(),
			TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
		},
		Topology: top,
	})
	if err != nil {
		t.Fatal(err)
	}
	pushWhole(t, s, g)
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for u := range want.Parts {
		if res.Parts[u] != want.Parts[u] {
			t.Fatalf("node %d mapped to %d, pull-based Map got %d", u, res.Parts[u], want.Parts[u])
		}
	}
}

func TestSessionRestreamMatchesPullRestream(t *testing.T) {
	g := oms.GenGrid2D(50, 60, true)
	const passes = 2
	want, err := oms.Restream(oms.NewMemorySource(g), 16, nil, passes, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := oms.NewSession(oms.SessionConfig{
		Stats: oms.StreamStats{
			N: g.NumNodes(), M: g.NumEdges(),
			TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
		},
		K:      16,
		Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pushWhole(t, s, g)
	sealed, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	firstPass := append([]int32(nil), sealed.Parts...)
	res, err := s.Restream(passes)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want.Parts {
		if res.Parts[u] != want.Parts[u] {
			t.Fatalf("node %d: session restream %d, pull restream %d", u, res.Parts[u], want.Parts[u])
		}
	}
	// The sealed first-pass result must not alias the engine: restreaming
	// may not rewrite it.
	for u := range firstPass {
		if sealed.Parts[u] != firstPass[u] {
			t.Fatalf("restream mutated the sealed result at node %d", u)
		}
	}
}

func TestSessionDefaultsOmittedStats(t *testing.T) {
	g := oms.GenDelaunay(1000, 3)
	want, err := oms.PartitionGraph(g, 8, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only N and M declared: unit node weights and M edge weight are
	// implied, matching the unweighted pull source exactly.
	s, err := oms.NewSession(oms.SessionConfig{
		Stats: oms.StreamStats{N: g.NumNodes(), M: g.NumEdges()},
		K:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Lmax() != want.Lmax {
		t.Fatalf("defaulted stats give lmax %d, want %d", s.Lmax(), want.Lmax)
	}
	online := pushWhole(t, s, g)
	for u := range want.Parts {
		if online[u] != want.Parts[u] {
			t.Fatalf("node %d got %d, want %d", u, online[u], want.Parts[u])
		}
	}
	if _, err := oms.NewSession(oms.SessionConfig{
		Stats: oms.StreamStats{N: 4, M: -1}, K: 2,
	}); err == nil {
		t.Fatal("negative declared m accepted")
	}
}

func TestSessionRejectsBadPushes(t *testing.T) {
	s, err := oms.NewSession(oms.SessionConfig{
		Stats: oms.StreamStats{N: 4, M: 3, TotalNodeWeight: 4, TotalEdgeWeight: 3},
		K:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(0, 1, []int32{1}, nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		u    int32
		w    int32
		adj  []int32
		ew   []int32
		want string
	}{
		{"out of range", 4, 1, nil, nil, "outside declared range"},
		{"negative", -1, 1, nil, nil, "outside declared range"},
		{"bad neighbor", 1, 1, []int32{9}, nil, "neighbor 9"},
		{"zero weight", 1, 0, nil, nil, "non-positive weight"},
		{"weight mismatch", 1, 1, []int32{0}, []int32{1, 2}, "edge weights"},
		{"negative edge weight", 1, 1, []int32{0}, []int32{-5}, "non-positive edge weight"},
		{"edge budget overrun", 1, 1, []int32{0, 2, 3, 0, 2, 3}, nil, "edge budget"},
	}
	for _, c := range cases {
		if _, err := s.Push(c.u, c.w, c.adj, c.ew); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
	if got := s.Assigned(); got != 1 {
		t.Fatalf("rejected pushes counted: assigned %d, want 1", got)
	}
	// Retrying an assigned node is idempotent: same block, nothing
	// re-charged or re-counted.
	first, err := s.Push(0, 1, []int32{1}, nil)
	if err != nil {
		t.Fatalf("idempotent re-push: %v", err)
	}
	if again, err := s.Push(0, 1, nil, nil); err != nil || again != first {
		t.Fatalf("re-push gave (%d, %v), want (%d, nil)", again, err, first)
	}
	if got := s.Assigned(); got != 1 {
		t.Fatalf("re-push counted: assigned %d, want 1", got)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(1, 1, nil, nil); err == nil || !strings.Contains(err.Error(), "after Finish") {
		t.Fatalf("push after finish: got %v", err)
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("double finish accepted")
	}
	if _, err := s.Restream(1); err == nil || !strings.Contains(err.Error(), "Record") {
		t.Fatalf("restream without record: got %v", err)
	}
}

// batchWhole streams g through a session via PushBatch in batches of
// size bs (0 = the whole graph in one batch).
func batchWhole(t *testing.T, s *oms.Session, g *oms.Graph, bs int) []int32 {
	t.Helper()
	n := int(g.NumNodes())
	if bs <= 0 {
		bs = n
	}
	out := make([]int32, 0, n)
	for lo := 0; lo < n; lo += bs {
		hi := lo + bs
		if hi > n {
			hi = n
		}
		batch := make([]oms.Node, 0, hi-lo)
		for u := int32(lo); u < int32(hi); u++ {
			batch = append(batch, oms.Node{U: u, W: g.NodeWeight(u), Adj: g.Neighbors(u), EW: g.EdgeWeights(u)})
		}
		blocks, err := s.PushBatch(batch)
		if err != nil {
			t.Fatalf("batch [%d,%d): %v", lo, hi, err)
		}
		out = append(out, blocks...)
	}
	return out
}

// TestPushBatchSequentialParity: PushBatch at any batch size is
// bit-identical to the same stream of Push calls — the
// returned blocks, the engine state, and the finished result — on a
// declared session and on an adaptive Record session, whose Finish adds
// the reconcile pass.
func TestPushBatchSequentialParity(t *testing.T) {
	g := oms.GenDelaunay(3000, 17)
	st := oms.StreamStats{
		N: g.NumNodes(), M: g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
	}
	for name, base := range map[string]oms.SessionConfig{
		"declared":        {Stats: st, K: 32},
		"adaptive-record": {K: 32, Adaptive: true, Record: true},
	} {
		ref, err := oms.NewSession(base)
		if err != nil {
			t.Fatal(err)
		}
		want := pushWhole(t, ref, g)
		wantLoads, wantParts, _ := ref.EngineState()
		wantRes, err := ref.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{1, 64, 0} {
			s, err := oms.NewSession(base)
			if err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("%s, batch size %d", name, bs)
			if got := batchWhole(t, s, g, bs); !slices.Equal(got, want) {
				t.Fatalf("%s: batch blocks differ from sequential Push", at)
			}
			gotLoads, gotParts, _ := s.EngineState()
			if !slices.Equal(gotLoads, wantLoads) || !slices.Equal(gotParts, wantParts) {
				t.Fatalf("%s: engine state differs from sequential Push", at)
			}
			res, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Parts, wantRes.Parts) || res.Lmax != wantRes.Lmax {
				t.Fatalf("%s: finished result differs from sequential Push", at)
			}
		}
	}
}

// TestPushBatchParallelQuality: batches on a session asked for Threads 4,
// which it ignores, assign every node, keep every block within the
// balance constraint, and finish with the sequential stream's result.
func TestPushBatchParallelQuality(t *testing.T) {
	g := oms.GenDelaunay(6000, 23)
	st := oms.StreamStats{
		N: g.NumNodes(), M: g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
	}
	ref, err := oms.NewSession(oms.SessionConfig{Stats: st, K: 32})
	if err != nil {
		t.Fatal(err)
	}
	pushWhole(t, ref, g)
	seqRes, err := ref.Finish()
	if err != nil {
		t.Fatal(err)
	}

	for _, bs := range []int{64, 1024, 0} {
		s, err := oms.NewSession(oms.SessionConfig{Stats: st, K: 32, Options: oms.Options{Threads: 4}})
		if err != nil {
			t.Fatal(err)
		}
		batchWhole(t, s, g, bs)
		res, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for u, p := range res.Parts {
			if p < 0 {
				t.Fatalf("batch size %d: node %d unassigned", bs, u)
			}
		}
		if err := res.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
			t.Fatalf("batch size %d: %v", bs, err)
		}
		if !slices.Equal(res.Parts, seqRes.Parts) {
			t.Fatalf("batch size %d: result differs from the sequential stream", bs)
		}
	}
}

// TestPushBatchIdempotentAndAtomic: re-batching assigned nodes and
// duplicates within a batch change nothing; an invalid batch is
// rejected without applying any of it.
func TestPushBatchIdempotentAndAtomic(t *testing.T) {
	st := oms.StreamStats{N: 8, M: 8}
	s, err := oms.NewSession(oms.SessionConfig{Stats: st, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.PushBatch([]oms.Node{
		{U: 0, Adj: []int32{1}},
		{U: 1, Adj: []int32{0, 2}},
		{U: 1, Adj: []int32{0, 2}}, // duplicate within the batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if first[1] != first[2] {
		t.Fatalf("duplicate got %d, first occurrence %d", first[2], first[1])
	}
	if got := s.Assigned(); got != 2 {
		t.Fatalf("assigned %d, want 2 (duplicate must not double-count)", got)
	}
	// A batch with one out-of-range node must be rejected atomically.
	before := s.Assigned()
	if _, err := s.PushBatch([]oms.Node{{U: 2, Adj: []int32{3}}, {U: 99}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if got := s.Assigned(); got != before {
		t.Fatalf("rejected batch assigned %d nodes", got-before)
	}
	// Re-pushing an assigned node returns its block unchanged.
	again, err := s.PushBatch([]oms.Node{{U: 0, Adj: []int32{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != first[0] {
		t.Fatalf("re-push moved node 0: %d -> %d", first[0], again[0])
	}
}

// TestPushBatchRepeatsOutOfOrder: a repeat counts once wherever it falls,
// whether the ids before it were increasing (0 2 4 then 2) or not (the
// repeats of 3 and 1 after the descent to 1).
func TestPushBatchRepeatsOutOfOrder(t *testing.T) {
	s, err := oms.NewSession(oms.SessionConfig{Stats: oms.StreamStats{N: 8, M: 8}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int32{0, 2, 4, 2, 3, 1, 3, 5, 1}
	nodes := make([]oms.Node, len(ids))
	for i, u := range ids {
		nodes[i] = oms.Node{U: u}
	}
	blocks, err := s.PushBatch(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Assigned(); got != 6 {
		t.Fatalf("assigned %d, want the 6 distinct ids", got)
	}
	first := map[int32]int32{}
	for i, u := range ids {
		if b, ok := first[u]; ok && b != blocks[i] {
			t.Fatalf("repeat of node %d got block %d, first occurrence %d", u, blocks[i], b)
		}
		first[u] = blocks[i]
	}
}

// TestPushBatchLeavesCallerSliceAlone: a zero Node.W means weight 1, but
// PushBatch reads it that way without writing it back. A rejected batch
// changes nothing, the caller's slice included, and an accepted one only
// returns blocks.
func TestPushBatchLeavesCallerSliceAlone(t *testing.T) {
	s, err := oms.NewSession(oms.SessionConfig{Stats: oms.StreamStats{N: 8, M: 8}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	deepCopy := func(nodes []oms.Node) []oms.Node {
		out := make([]oms.Node, len(nodes))
		for i, nd := range nodes {
			out[i] = oms.Node{U: nd.U, W: nd.W, Adj: slices.Clone(nd.Adj), EW: slices.Clone(nd.EW)}
		}
		return out
	}
	rejected := []oms.Node{{U: 0, Adj: []int32{1}}, {U: 1, Adj: []int32{0}}, {U: 99}}
	want := deepCopy(rejected)
	if _, err := s.PushBatch(rejected); err == nil {
		t.Fatal("batch with an out-of-range node accepted")
	}
	if !reflect.DeepEqual(rejected, want) {
		t.Fatalf("rejected batch rewrote the caller's slice: %+v, was %+v", rejected, want)
	}
	accepted := []oms.Node{{U: 0, Adj: []int32{1}}, {U: 1, W: 3, Adj: []int32{0, 2}}, {U: 2, Adj: []int32{1}}}
	want = deepCopy(accepted)
	if _, err := s.PushBatch(accepted); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(accepted, want) {
		t.Fatalf("accepted batch rewrote the caller's slice: %+v, was %+v", accepted, want)
	}
}

// TestPushAssignedReplaysExactly: replaying (node, block) decisions
// through PushAssigned reproduces the original session's state, and a
// later Finish returns identical parts.
func TestPushAssignedReplaysExactly(t *testing.T) {
	g := oms.GenDelaunay(2000, 31)
	st := oms.StreamStats{
		N: g.NumNodes(), M: g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
	}
	orig, err := oms.NewSession(oms.SessionConfig{Stats: st, K: 16})
	if err != nil {
		t.Fatal(err)
	}
	blocks := batchWhole(t, orig, g, 256)

	replay, err := oms.NewSession(oms.SessionConfig{Stats: st, K: 16})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		b, err := replay.PushAssigned(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u), blocks[u])
		if err != nil {
			t.Fatalf("replay %d: %v", u, err)
		}
		if b != blocks[u] {
			t.Fatalf("replay %d: got %d, want %d", u, b, blocks[u])
		}
	}
	wLoads, wParts, wEdges := orig.EngineState()
	rLoads, rParts, rEdges := replay.EngineState()
	if wEdges != rEdges {
		t.Fatalf("edgesSeen %d, want %d", rEdges, wEdges)
	}
	for i := range wLoads {
		if wLoads[i] != rLoads[i] {
			t.Fatalf("tree block %d load %d, want %d", i, rLoads[i], wLoads[i])
		}
	}
	for u := range wParts {
		if wParts[u] != rParts[u] {
			t.Fatalf("node %d part %d, want %d", u, rParts[u], wParts[u])
		}
	}
}

// TestPartialResultMetrics: a session finished before every node arrived
// leaves the missing nodes at -1. They carry no load, and no edge into
// them counts toward the cut, the mapping cost or the level cuts;
// CheckBalanced still rejects the result as incomplete.
func TestPartialResultMetrics(t *testing.T) {
	g := oms.GenGrid2D(2, 2, false) // edges 0-1, 0-2, 1-3, 2-3
	st := oms.StreamStats{N: 4, M: 4, TotalNodeWeight: 4, TotalEdgeWeight: 4}
	s, err := oms.NewSession(oms.SessionConfig{Stats: st, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 2; u++ {
		if _, err := s.Push(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Parts[2] != -1 || res.Parts[3] != -1 {
		t.Fatalf("never-pushed nodes assigned: %v", res.Parts)
	}
	wantCut, wantImb := int64(0), 1.0 // the only edge between pushed nodes is 0-1
	if res.Parts[0] != res.Parts[1] {
		wantCut, wantImb = 1, 0
	}
	if got := res.EdgeCut(g); got != wantCut {
		t.Errorf("edge cut %d, want %d (parts %v)", got, wantCut, res.Parts)
	}
	if got := res.Imbalance(g); got != wantImb {
		t.Errorf("imbalance %v, want %v (parts %v)", got, wantImb, res.Parts)
	}
	top := oms.MustTopology("2", "1")
	if got := res.LevelCuts(g, top); !slices.Equal(got, []float64{float64(wantCut)}) {
		t.Errorf("level cuts %v, want [%d]", got, wantCut)
	}
	if got := res.MappingCost(g, top); got != float64(wantCut) {
		t.Errorf("mapping cost %v, want %d", got, wantCut)
	}
	if err := res.CheckBalanced(g, oms.DefaultEpsilon); err == nil {
		t.Error("CheckBalanced accepted a partial result")
	}
}
