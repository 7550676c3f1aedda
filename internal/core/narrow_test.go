package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/stream"
)

// The bounds test of narrow: a level whose neighbours all lie in one child
// sets that child's gain in O(1) and reports the child, a level they all
// miss empties the list, a level they split inside the block keeps them
// all, and a level that drops some scans and keeps the survivors' bounds
// exact. These tests hold every transition between them to the rescan
// oracle and to a reference narrow that knows nothing of bounds.

// refNarrow is narrow without bounds: it keeps, in order, the entries
// inside v and sums them per child from 0 in list order, finding the
// child by comparing leaf ranges.
func refNarrow(t *hierarchy.Tree, v int32, leaf []int32, wt []float64) (gain []float64, keptLeaf []int32, keptWt []float64) {
	first, count := t.Children(v)
	gain = make([]float64, count)
	for i, p := range leaf {
		if p < t.KL[v] || p > t.KR[v] {
			continue
		}
		c := first
		for p > t.KR[c] {
			c++
		}
		if wt != nil {
			gain[c-first] += wt[i]
			keptWt = append(keptWt, wt[i])
		} else {
			gain[c-first]++
		}
		keptLeaf = append(keptLeaf, p)
	}
	return gain, keptLeaf, keptWt
}

// narrowTrees are the oracle's shapes plus a small power-of-four tree:
// the shift lookup at every level, the division (spec3:5:7) and the
// binary search (art-k100b4, art-k37b3) of ChildContaining.
func narrowTrees() map[string]*hierarchy.Tree {
	trees := oracleTrees()
	trees["art-k64b4"] = hierarchy.BuildArtificial(64, 4)
	return trees
}

// boundsExact reports whether sc.lo and sc.hi are the least and greatest
// leaf on the list, or MaxInt32 and MinInt32 on an empty one.
func boundsExact(sc *levelScratch) bool {
	if len(sc.leaf) == 0 {
		return sc.lo == math.MaxInt32 && sc.hi == math.MinInt32
	}
	return sc.lo == slices.Min(sc.leaf) && sc.hi == slices.Max(sc.leaf)
}

// childHolding is the index of v's child that holds every leaf on a non-empty
// list, found by comparing leaf ranges, or -1.
func childHolding(t *hierarchy.Tree, v int32, leaf []int32) int32 {
	first, count := t.Children(v)
	for c := first; c < first+count; c++ {
		if len(leaf) > 0 && slices.IndexFunc(leaf, func(p int32) bool { return p < t.KL[c] || p > t.KR[c] }) < 0 {
			return c - first
		}
	}
	return -1
}

// TestNarrowMatchesReferenceAlongPaths walks random lists down random
// root-to-leaf paths and compares every level's gains (to the bit), list
// and weights with refNarrow, checks that the bounds are the list's exact
// least and greatest leaf after every level, and that narrow reports the
// child holding the whole list exactly when there is one. The lists are
// drawn so that every kind of level occurs: all neighbours in one child,
// none in the block, all in it but split, and some dropped; weighted lists
// mix in operands whose float sum depends on its order.
func TestNarrowMatchesReferenceAlongPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for name, tree := range narrowTrees() {
		t.Run(name, func(t *testing.T) {
			o, err := New(tree, stream.Stats{N: 1, TotalNodeWeight: 1}, Config{Epsilon: 0.03})
			if err != nil {
				t.Fatal(err)
			}
			sc := &o.scratch
			// Levels by what the reference did to a non-empty list.
			var oneChild, emptied, splitAll, dropped int
			for trial := 0; trial < 400; trial++ {
				target := rng.Int31n(tree.K)
				n := rng.Intn(9)
				leaf := make([]int32, n)
				for i := range leaf {
					switch trial % 4 {
					case 0: // one leaf
						leaf[i] = target
					case 1: // the target's deepest block
						v := tree.Parent[tree.LeafNode[target]]
						leaf[i] = tree.KL[v] + rng.Int31n(tree.LeafCount(v))
					case 2: // anywhere
						leaf[i] = rng.Int31n(tree.K)
					case 3: // near the target
						leaf[i] = min(max(target+rng.Int31n(5)-2, 0), tree.K-1)
					}
				}
				var wt []float64
				if trial%2 == 1 {
					wt = make([]float64, n)
					for i := range wt {
						// 2^53 then small weights: adding 1 to 2^53 rounds
						// away, so the total depends on the order of the sum.
						wt[i] = float64(1 + rng.Intn(3))
						if rng.Intn(3) == 0 {
							wt[i] = 1 << 53
						}
					}
				}
				sc.leaf = append(sc.leaf[:0], leaf...)
				sc.weighted = wt != nil
				sc.wt = append(sc.wt[:0], wt...)
				sc.summed = false
				sc.lo, sc.hi = math.MaxInt32, math.MinInt32
				for _, p := range leaf {
					sc.lo, sc.hi = min(sc.lo, p), max(sc.hi, p)
				}
				curLeaf, curWt := leaf, wt
				for v := tree.Root; !tree.IsLeaf(v); v = tree.ChildContaining(v, target) {
					wantGain, wantLeaf, wantWt := refNarrow(tree, v, curLeaf, curWt)
					withGain := 0
					for _, g := range wantGain {
						if g != 0 {
							withGain++
						}
					}
					switch {
					case len(curLeaf) == 0:
					case len(wantLeaf) == 0:
						emptied++
					case len(wantLeaf) < len(curLeaf):
						dropped++
					case withGain == 1:
						oneChild++
					default:
						splitAll++
					}
					if c, want := o.narrow(sc, v), childHolding(tree, v, curLeaf); c != want {
						t.Fatalf("trial %d, block %d: narrow reports child %d for list %v, want %d", trial, v, c, curLeaf, want)
					}
					for c := range wantGain {
						if math.Float64bits(sc.gain[c]) != math.Float64bits(wantGain[c]) {
							t.Fatalf("trial %d, block %d: gain[%d] = %v, reference %v", trial, v, c, sc.gain[c], wantGain[c])
						}
					}
					if !slices.Equal(sc.leaf, wantLeaf) {
						t.Fatalf("trial %d, block %d: list %v, reference %v", trial, v, sc.leaf, wantLeaf)
					}
					if wt != nil && !equalFloat64(sc.wt[:len(sc.leaf)], wantWt) {
						t.Fatalf("trial %d, block %d: weights %v, reference %v", trial, v, sc.wt[:len(sc.leaf)], wantWt)
					}
					if !boundsExact(sc) {
						t.Fatalf("trial %d, block %d: bounds [%d, %d] for list %v", trial, v, sc.lo, sc.hi, sc.leaf)
					}
					curLeaf, curWt = wantLeaf, wantWt
				}
			}
			if oneChild == 0 || emptied == 0 || splitAll == 0 || dropped == 0 {
				t.Fatalf("levels: %d in one child, %d emptied, %d split whole, %d dropped some; want each > 0",
					oneChild, emptied, splitAll, dropped)
			}
		})
	}
}

// equalFloat64 compares bit patterns: the walk must sum to the last bit.
func equalFloat64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Neighbour layouts for TestWalkTransitionsMatchRescanOracle, as leaf
// lists relative to a target leaf of the tree.
const (
	layoutOneLeaf  = iota // all on the target: one child at every level
	layoutSiblings        // two on the target, one beside it in the deepest scored block: a split only there
	layoutFullTop         // on the target, whose top-level block is full: the walk leaves them
	layoutSpread          // the first leaf and the target: a split at the root
)

// TestWalkTransitionsMatchRescanOracle places a node's neighbours by
// ForceAssign on chosen leaves, assigns the node with AssignNode and with
// the oracle, and requires the same state. It then replays the walk's
// scored levels through refNarrow along the path the node took: the list
// and the last level's gains left in the scratch must be the reference's,
// and the bounds exact. A layout whose neighbours share one child down
// the whole path must leave the list whole: the walk settled every level
// on the bounds alone.
func TestWalkTransitionsMatchRescanOracle(t *testing.T) {
	layouts := []struct {
		name   string
		layout int
		split  bool // the last scored level's neighbours fall into two children
		whole  bool // no level dropped a neighbour
		empty  bool // a level left every neighbour behind
	}{
		{"one-child-every-level", layoutOneLeaf, false, true, false},
		{"split-at-deepest", layoutSiblings, true, true, false},
		{"zero-gain-child-empties", layoutFullTop, false, false, true},
		{"split-at-root", layoutSpread, false, false, false},
	}
	streams := []struct {
		name   string
		ewgt   func(i int) int32 // nil: unweighted stream
		vwgt   int32
		hashes int
	}{
		{"unit", nil, 1, 0},
		{"weighted", func(i int) int32 { return int32(1 + 3*i) }, 1, 0},
		{"node-weighted", nil, 3, 0},
		{"hash1", nil, 1, 1},
	}
	for tname, tree := range narrowTrees() {
		for _, l := range layouts {
			for _, s := range streams {
				t.Run(tname+"/"+l.name+"/"+s.name, func(t *testing.T) {
					target := tree.K * 2 / 3
					cfg := Config{Epsilon: 0.03, HashLayers: s.hashes, Seed: 9}
					// A light alpha: the walk follows the gain wherever it
					// fits, so each layout narrows the way it names.
					st := stream.Stats{N: 1000 * tree.K, M: 3, TotalNodeWeight: 1000 * int64(tree.K), TotalEdgeWeight: 3}
					o, ref := pair(t, tree, st, cfg)
					deepest := tree.Root
					for v := tree.Root; !tree.IsLeaf(v); v = tree.ChildContaining(v, target) {
						if o.blk[v].scored {
							deepest = v
						}
					}
					var nbrs []int32
					switch l.layout {
					case layoutOneLeaf, layoutFullTop:
						nbrs = []int32{target, target, target}
					case layoutSiblings:
						// One in another child of deepest: the walk follows
						// the other two into the target's child.
						other := tree.KL[deepest]
						if tree.KL[tree.ChildContaining(deepest, target)] == other {
							other = tree.KR[deepest]
						}
						nbrs = []int32{target, other, target}
					case layoutSpread:
						nbrs = []int32{0, target, target}
					}
					u := int32(len(nbrs)) + 1
					for i, p := range nbrs {
						o.ForceAssign(int32(i), 1, p)
						ref.ForceAssign(int32(i), 1, p)
					}
					if l.layout == layoutFullTop {
						top := tree.ChildContaining(tree.Root, target)
						fill := o.blk[top].cap - o.blk[top].load
						o.ForceAssign(int32(len(nbrs)), int32(fill), target)
						ref.ForceAssign(int32(len(nbrs)), int32(fill), target)
					}
					adj := make([]int32, len(nbrs))
					var ewgt []int32
					var wt []float64
					for i := range adj {
						adj[i] = int32(i)
						if s.ewgt != nil {
							ewgt = append(ewgt, s.ewgt(i))
							wt = append(wt, float64(s.ewgt(i)))
						}
					}
					o.AssignNode(u, s.vwgt, adj, ewgt)
					ref.rescanAssign(u, s.vwgt, adj, ewgt)
					requireSameState(t, o, ref)

					leaf, lastGain := nbrs, []float64(nil)
					for v := tree.Root; !tree.IsLeaf(v) && o.blk[v].scored; v = tree.ChildContaining(v, o.parts[u]) {
						lastGain, leaf, wt = refNarrow(tree, v, leaf, wt)
					}
					sc := &o.scratch
					if !slices.Equal(sc.leaf, leaf) {
						t.Fatalf("walk to leaf %d left list %v, reference %v", o.parts[u], sc.leaf, leaf)
					}
					if !equalFloat64(sc.gain[:len(lastGain)], lastGain) {
						t.Fatalf("walk to leaf %d left gains %v, reference %v", o.parts[u], sc.gain[:len(lastGain)], lastGain)
					}
					if !boundsExact(sc) {
						t.Fatalf("bounds [%d, %d] for list %v", sc.lo, sc.hi, sc.leaf)
					}
					withGain := 0
					for _, g := range lastGain {
						if g != 0 {
							withGain++
						}
					}
					whole := len(sc.leaf) == len(nbrs)
					if split := withGain > 1; split != l.split || whole != l.whole || (len(sc.leaf) == 0) != l.empty {
						t.Fatalf("walk to leaf %d: split %v, whole %v, list %v; want split %v, whole %v, empty %v",
							o.parts[u], split, whole, sc.leaf, l.split, l.whole, l.empty)
					}
				})
			}
		}
	}
}

// TestAdaptiveTransitionsMatchRescanOracle streams a local graph, whose
// neighbours mostly share one child, through an adaptive run that grows
// its assignment vector and ratchets its capacities mid-stream, node by
// node against the oracle, unweighted and weighted. Some walks must end
// with every gathered neighbour still on the list, and the bounds must be
// exact after every node.
func TestAdaptiveTransitionsMatchRescanOracle(t *testing.T) {
	rgg := gen.RandomGeometric(3000, 0.55, 48)
	for gname, g := range map[string]*graph.Graph{"unit": rgg, "weighted": weighted(rgg)} {
		for tname, tree := range narrowTrees() {
			t.Run(gname+"/"+tname, func(t *testing.T) {
				o, ref := pair(t, tree, stream.Stats{}, Config{Epsilon: 0.03, Adaptive: true})
				ratchets, grown, whole := 0, 0, 0
				err := stream.NewMemory(g).ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
					before := o.NumParts()
					if o.ObserveAdaptive(u, vwgt, adj, ewgt) {
						ratchets++
					}
					if o.NumParts() > before {
						grown++
					}
					ref.ObserveAdaptive(u, vwgt, adj, ewgt)
					assigned := 0
					for _, nb := range adj {
						if o.AssignmentOf(nb) >= 0 {
							assigned++
						}
					}
					o.AssignNode(u, vwgt, adj, ewgt)
					ref.rescanAssign(u, vwgt, adj, ewgt)
					sc := &o.scratch
					if !boundsExact(sc) {
						t.Fatalf("node %d: bounds [%d, %d] for list %v", u, sc.lo, sc.hi, sc.leaf)
					}
					if assigned > 0 && len(sc.leaf) == assigned {
						whole++
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if ratchets < 2 || grown < 2 {
					t.Fatalf("%d ratchets, %d growths: the run never re-adapted and grew mid-stream", ratchets, grown)
				}
				if whole == 0 {
					t.Fatal("no walk kept every neighbour to its last scored level")
				}
				requireSameState(t, o, ref)
			})
		}
	}
}
