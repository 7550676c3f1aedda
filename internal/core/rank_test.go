package core

import (
	"testing"
	"unsafe"

	"oms/internal/hierarchy"
	"oms/internal/stream"
)

// The block record is scanned count records at a time per level; even
// rides in the padding after scored.
func TestBlockRecordStays48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(block{}); got != 48 {
		t.Fatalf("block record is %d bytes, want 48", got)
	}
}

// TestScoreChildRanksLikeOracle pins the ties of the zero-gain ranking,
// under Fennel and LDG, against the oracle's full scoring loop on
// hand-made child records: loads, caps and alphas are written into the
// records, gains come from neighbours placed on the children's first
// leaves, and both walks split the same block. want is the child index
// the loop's order picks.
func TestScoreChildRanksLikeOracle(t *testing.T) {
	const huge = 1e17    // 1 - 1.5e17*sqrt(4) rounds to -3e17: a gain of 1 ties
	const full = 1 << 60 // 1 - (full-1)/full rounds to 0: a gain child at full-1 scores +0 under LDG
	cases := []struct {
		name       string
		scorer     Scorer
		tree       *hierarchy.Tree
		block      func(*hierarchy.Tree) int32 // the block being split
		even       bool
		load       []int64
		cap        []int64   // nil: applyStats' caps
		alpha      []float64 // nil: applyStats' alphas
		gain       []int     // neighbours per child
		weightless bool      // the node weighs 0 (else 1)
		want       int32
	}{
		{
			name: "all zero gains, equal loads: the first index",
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{5, 5, 5, 5}, cap: []int64{100, 100, 100, 100},
			alpha: []float64{0.1, 0.1, 0.1, 0.1}, gain: []int{0, 0, 0, 0},
			want: 0,
		},
		{
			name: "all zero gains: the least loaded",
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{5, 4, 3, 3}, cap: []int64{100, 100, 100, 100},
			alpha: []float64{0.1, 0.1, 0.1, 0.1}, gain: []int{0, 0, 0, 0},
			want: 2,
		},
		{
			name: "gain child first, same score and load as the representative",
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{4, 4, 9, 9}, cap: []int64{100, 100, 100, 100},
			alpha: []float64{huge, huge, huge, huge}, gain: []int{1, 0, 0, 0},
			want: 0,
		},
		{
			name: "gain child second, same score and load as the representative",
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{4, 4, 9, 9}, cap: []int64{100, 100, 100, 100},
			alpha: []float64{huge, huge, huge, huge}, gain: []int{0, 1, 0, 0},
			want: 0,
		},
		{
			name: "same score, the representative lighter",
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{5, 4, 9, 9}, cap: []int64{100, 100, 100, 100},
			alpha: []float64{huge, huge, huge, huge}, gain: []int{1, 0, 0, 0},
			want: 1,
		},
		{
			name: "a gain child beats the representative",
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{1, 8, 2, 9}, cap: []int64{100, 100, 100, 100},
			alpha: []float64{0.1, 0.1, 0.1, 0.1}, gain: []int{0, 0, 0, 3},
			want: 3,
		},
		{
			name: "least-loaded zero-gain child infeasible: the next feasible one",
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{2, 6, 4, 5}, cap: []int64{2, 100, 100, 100},
			alpha: []float64{0.1, 0.1, 0.1, 0.1}, gain: []int{0, 0, 0, 0},
			want: 2,
		},
		{
			name: "no feasible child: the least relative load",
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{6, 6, 4, 5}, cap: []int64{6, 6, 4, 5},
			alpha: []float64{0.1, 0.1, 0.1, 0.1}, gain: []int{0, 2, 0, 0},
			want: 0,
		},
		{
			// BuildArtificial(100, 4) splits its root into four blocks of 25
			// (even) and each of those into 7:6:6:6. There the lighter
			// children carry the larger alpha, so the full loop prefers the
			// 7-leaf child at load 13 over the 6-leaf ones at 12, where a
			// ranking by load would not.
			name: "ragged block of BuildArtificial(100, 4) takes the full loop",
			tree: hierarchy.BuildArtificial(100, 4), block: firstChildBlock, even: false,
			load: []int64{13, 12, 12, 12}, gain: []int{0, 0, 0, 0},
			want: 0,
		},
		{
			name: "LDG, all zero gains: the least loaded", scorer: ScorerLDG,
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{5, 4, 3, 3}, cap: []int64{100, 100, 100, 100}, gain: []int{0, 0, 0, 0},
			want: 2,
		},
		{
			name: "LDG, a gain child beats the representative", scorer: ScorerLDG,
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{1, 8, 2, 99}, cap: []int64{100, 100, 100, 100}, gain: []int{0, 0, 0, 1},
			want: 3,
		},
		{
			name: "LDG, a gain child scores +0: the lighter representative", scorer: ScorerLDG,
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{full - 1, 5, 9, 9}, cap: []int64{full, full, full, full}, gain: []int{1, 0, 0, 0},
			want: 1,
		},
		{
			name: "LDG, a gain child scores +0 at the representative's load: the lower index", scorer: ScorerLDG,
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{full - 1, full - 1, full - 1, full - 1}, cap: []int64{full, full, full, full}, gain: []int{0, 1, 0, 0},
			want: 0,
		},
		{
			// 0/0 makes every score NaN, which no later score beats: the
			// full loop keeps its first feasible child.
			name: "LDG, cap 0 and a weightless node: the first feasible child", scorer: ScorerLDG,
			tree: hierarchy.BuildArtificial(16, 4), block: rootBlock, even: true,
			load: []int64{0, 0, 0, 0}, cap: []int64{0, 0, 0, 0}, gain: []int{0, 1, 0, 0},
			weightless: true, want: 0,
		},
		{
			name: "LDG, ragged block of BuildArtificial(100, 4) takes the full loop", scorer: ScorerLDG,
			tree: hierarchy.BuildArtificial(100, 4), block: firstChildBlock, even: false,
			load: []int64{13, 12, 12, 12}, gain: []int{0, 0, 2, 0},
			want: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := stream.Stats{N: 64, M: 64, TotalNodeWeight: 1000, TotalEdgeWeight: 64}
			o, err := New(c.tree, st, Config{Epsilon: 0.03, Scorer: c.scorer})
			if err != nil {
				t.Fatal(err)
			}
			v := c.block(c.tree)
			b := &o.blk[v]
			if b.even != c.even {
				t.Fatalf("block %d even = %v, want %v", v, b.even, c.even)
			}
			var adj []int32
			for i := range c.load {
				kid := &o.blk[b.first+int32(i)]
				kid.load = c.load[i]
				if c.cap != nil {
					kid.cap = c.cap[i]
				}
				if c.alpha != nil {
					kid.alpha = c.alpha[i]
				}
				for j := 0; j < c.gain[i]; j++ {
					nb := int32(len(adj) + 1)
					o.parts[nb] = kid.kl
					adj = append(adj, nb)
				}
			}
			sc := &o.scratch
			o.gather(sc, adj, nil)
			o.narrow(sc, v)
			w := int64(1)
			if c.weightless {
				w = 0
			}
			got := o.scoreChild(sc.gain[:b.count], b.first, b.even, w) - b.first
			want := o.rescanScoreChild(make([]float64, c.tree.MaxFanout), v, b.first, b.count, w, adj, nil) - b.first
			if want != c.want {
				t.Fatalf("oracle picks child %d, the table says %d", want, c.want)
			}
			if got != want {
				t.Fatalf("scoreChild picks child %d, the oracle %d", got, want)
			}
		})
	}
}

func rootBlock(t *hierarchy.Tree) int32 { return t.Root }

func firstChildBlock(t *hierarchy.Tree) int32 { return t.FirstChild[t.Root] }
