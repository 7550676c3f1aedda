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

// TestDominanceEdgeFallsThrough pins the edge of the dominance rule on
// hand-made child records of BuildArtificial(16, 4)'s root: every
// neighbour lies on child c, so narrow reports c, and the walk takes c
// without scoring its siblings only when c scores above 0. A score of
// exactly 0, or below it, or the NaN of a cap-0 LDG block must fall
// through to the loop's order (the highest score, then the lighter load,
// then the lower index), under Fennel and under LDG.
// want is the root child the oracle's full loop picks.
func TestDominanceEdgeFallsThrough(t *testing.T) {
	const full = 1 << 60 // 1 - (full-1)/full rounds to 0
	cases := []struct {
		name       string
		scorer     Scorer
		load       []int64
		cap        []int64   // nil: applyStats' caps
		alpha      float64   // every child's alpha; 0 keeps applyStats'
		c          int       // the child holding every neighbour
		wt         []float64 // the neighbours' edge weights; nil: 3 unweighted ones
		weightless bool
		dominates  bool
		want       int32
	}{
		{name: "Fennel 1.5 scores above 0: c", load: []int64{5, 0, 4, 0}, alpha: 0.5, c: 2, dominates: true, want: 2},
		{name: "Fennel 1.5 scores exactly 0: the lighter tie, then the lower index", load: []int64{5, 0, 4, 0}, alpha: 1, c: 2, want: 1},
		{name: "Fennel 1.5, zero-weight edges: equal loads, the lower index", load: []int64{3, 3, 3, 3}, alpha: 0.1, c: 2, wt: []float64{0, 0}, want: 0},
		{name: "LDG scores above 0: c", scorer: ScorerLDG, load: []int64{5, 1, 9, 7}, cap: []int64{100, 100, 100, 100}, c: 2, dominates: true, want: 2},
		{name: "LDG scores +0: the lighter tie", scorer: ScorerLDG, load: []int64{full - 1, 5, full - 1, 9}, cap: []int64{full, full, full, full}, c: 2, want: 1},
		{name: "LDG, cap 0 scores NaN: the first feasible child", scorer: ScorerLDG, load: []int64{0, 0, 0, 0}, cap: []int64{0, 0, 0, 0}, c: 2, weightless: true, want: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := hierarchy.BuildArtificial(16, 4)
			st := stream.Stats{N: 64, M: 64, TotalNodeWeight: 1000, TotalEdgeWeight: 64}
			o, err := New(tree, st, Config{Epsilon: 0.03, Scorer: tc.scorer})
			if err != nil {
				t.Fatal(err)
			}
			b := &o.blk[tree.Root]
			for i, l := range tc.load {
				kid := &o.blk[b.first+int32(i)]
				kid.load = l
				if tc.cap != nil {
					kid.cap = tc.cap[i]
				}
				if tc.alpha != 0 {
					kid.alpha = tc.alpha
				}
			}
			var adj, ewgt []int32
			n := 3
			if tc.wt != nil {
				n = len(tc.wt)
			}
			for j := 0; j < n; j++ {
				nb := int32(j + 1)
				o.parts[nb] = o.blk[b.first+int32(tc.c)].kl
				adj = append(adj, nb)
				if tc.wt != nil {
					ewgt = append(ewgt, int32(tc.wt[j]))
				}
			}
			w := int64(1)
			if tc.weightless {
				w = 0
			}
			want := o.rescanScoreChild(make([]float64, tree.MaxFanout), tree.Root, b.first, b.count, w, adj, ewgt) - b.first
			if want != tc.want {
				t.Fatalf("oracle picks child %d, the table says %d", want, tc.want)
			}
			sc := &o.scratch
			o.gather(sc, adj, ewgt)
			c := o.narrow(sc, tree.Root)
			if c != int32(tc.c) {
				t.Fatalf("narrow reports child %d, want %d", c, tc.c)
			}
			if got := o.dominates(b.first+c, sc.gain[c], w); got != tc.dominates {
				t.Fatalf("dominates = %v, want %v (gain %v)", got, tc.dominates, sc.gain[c])
			}
			o.AssignNode(0, int32(w), adj, ewgt)
			if got := tree.ChildContaining(tree.Root, o.parts[0]) - b.first; got != want {
				t.Fatalf("the walk takes child %d, the oracle %d", got, want)
			}
		})
	}
}
