// Package core implements the paper's contribution: the online recursive
// multi-section (OMS), a one-pass streaming algorithm that assigns every
// arriving node through all layers of a multi-section tree on the fly
// (Algorithm 1). With a topology hierarchy the leaves are PEs and the
// result is a process mapping; with an artificial recursive b-section
// tree (Algorithm 2) it solves plain graph partitioning ("nh-OMS").
//
// Per arriving node u the algorithm walks the tree from the root: at each
// internal block it scores the children with Fennel, LDG, or Hashing and
// descends into the best feasible one, charging u's weight to every block
// on the path. Complexity: O(m*l + n*sum a_i) time (Theorem 2), O(n + k)
// memory (Theorem 1) — the only per-node state is the final leaf id, from
// which all super-blocks follow (leaf ranges).
//
// With base = k, Algorithm 2 builds a one-level tree of k leaves, and the
// walk is flat one-pass Fennel, LDG or Hashing, the paper's baselines:
// each leaf is scored with the root's alpha against the cap Lmax, and the
// root hashes with the flat seed. It places every node where the flat scan
// of internal/onepass (kept as reference code) does, except that a node
// fitting no block overloads the least loaded one, not its hash. It still
// visits all k children per node, as Theorem 2 counts them, but ranking
// the zero-gain ones by load (below) makes it faster than the full scan.
// The scores (FennelScore, LDGScore), Lmax, Alpha and the open-ended
// stream's Estimator live here for both.
//
// The walk reads u's adjacency once. The leaf ids of its assigned
// neighbours go into a scratch list with their least and greatest id.
// Leaf ranges nest, so while both ends lie in one child of the block
// being split, every neighbour does, and the level costs O(1) however
// long the list is: that child's gain is the list's count or weight, and
// the list stands. A level the ends miss empties it in O(1).
// Only a level whose ends lie in two children, and every level below it,
// scans the list, narrowing it in place and in order to the neighbours
// inside the block being split. The edge work is m for the gather plus
// the survivors of the levels that scan, never more than the m*l of
// Theorem 2: on a local graph, whose neighbours share a child down most
// of the path, it is close to m. The scratch is O(max degree), the order
// of the adjacency buffer every stream source holds already, so Theorem 1
// stands. A run is bit-identical to one that rescans the adjacency at
// every level (same gain sums in the same order, same tie-breaks; a test
// oracle keeps that walk and checks it).
//
// Every pass assigns in stream order on one goroutine. The paper's §3.4
// fans the node loop out over shared-memory workers with atomic block
// loads and racy neighbour reads; on a 2-core host that fan-out ran at
// 0.85x (RGG, k = 4096) and 1.10x (RMAT on 4:16:8) of one worker, with a
// slightly higher cut, so it is not reproduced here and loads and
// assignments are plain fields.
//
// A level still visits its a_i children, as Theorem 2 counts them, but
// most of them cost little. gather and narrow choose their loop once per
// node and per level, not per neighbour: weighted or not, power-of-two
// child span or not. With Fennel at gamma 1.5, a block whose children
// cover equal leaf counts scores only the children with gain; the
// zero-gain ones are ranked by load, and only the least loaded is
// scored. At the 16- and 8-way levels of 4:16:8 most children have no
// gain, so most of a level is a load compare. Both are exact rewrites
// of the loops they replace: the oracle still agrees to the last bit.
//
// Every tree block has one 48-byte record (block): its load, capacity and
// adapted alpha, plus the walk's read-only view of its children (first,
// count, leaf range, child shift, scored-or-hashed, even). The children
// of a block are contiguous in the tree, so scoring a level reads count
// adjacent records, and the chosen child's record, already in cache,
// tells the walk how to split the next level. The record holds nothing
// derived from the loads but the load itself: capacities and alphas are
// rewritten only when the stream stats are (re)applied. It is O(k), so
// Theorem 1 stands.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"oms/internal/hierarchy"
	"oms/internal/stream"
	"oms/internal/util"
)

// Scorer selects the one-pass objective used for the tree subproblems.
type Scorer int

// Available scorers. The paper's tuning picks Fennel (0.19% better cut,
// 3.89% better mapping than LDG), so it is the zero value.
const (
	ScorerFennel Scorer = iota
	ScorerLDG
	ScorerHashing
)

func (s Scorer) String() string {
	switch s {
	case ScorerFennel:
		return "fennel"
	case ScorerLDG:
		return "ldg"
	case ScorerHashing:
		return "hashing"
	default:
		return fmt.Sprintf("scorer(%d)", int(s))
	}
}

// Config controls an OMS run. The zero value gives the paper's tuned
// configuration except Epsilon, which callers set explicitly (the paper
// fixes 0.03).
type Config struct {
	Epsilon float64 // allowed imbalance
	Scorer  Scorer  // objective for non-hashed layers
	Gamma   float64 // Fennel exponent; 0 means 1.5
	// VanillaAlpha disables the per-subproblem adapted alpha of §3.2 and
	// scores every tree block with the flat k-way alpha. The paper's
	// tuning found adapted alpha 3.1% faster with 9.7% better mappings,
	// so adapted is the default (zero value).
	VanillaAlpha bool
	// HashLayers solves this many bottom layers of the multi-section with
	// Hashing instead of the configured scorer (§3.2 hybrid mapping,
	// Theorem 3). 0 disables hybridization.
	HashLayers int
	Seed       uint64
	// Threads is accepted and ignored: Run assigns in stream order on
	// one worker. Blocked 1A(h) removes it.
	Threads int
	// Adaptive opens an open-ended run: the stats passed to New become
	// optional hints, an online estimator projects the final totals from
	// what actually arrives, and alpha plus the per-tree-block
	// capacities re-normalize as the projections ratchet (callers drive
	// this via ObserveAdaptive). Finish-time reconciliation is
	// Reconcile.
	Adaptive bool
	// AdaptiveHeadroom is the projection overshoot of the adaptive
	// estimator; <= 0 selects DefaultHeadroom. The documented
	// imbalance bound relative to the final observed totals is
	// (1+Epsilon)(1+AdaptiveHeadroom) - 1, plus integer rounding.
	AdaptiveHeadroom float64
}

// OMS is one streaming run's state: the multi-section tree, one block
// record per tree block (O(k) by Lemma 1), and the per-node leaf
// assignment (O(n)).
type OMS struct {
	Tree *hierarchy.Tree
	cfg  Config

	// lmax is atomic because adaptive runs ratchet it mid-stream while
	// monitoring readers poll LmaxValue; declared runs set it once.
	lmax  atomic.Int64
	blk   []block // per tree node, indexed like the tree
	gamma float64
	parts []int32

	// est estimates the stream stats of an open-ended run online; nil
	// for declared runs. Mutations (ObserveAdaptive, ImportEstimator,
	// Reconcile) are serialized with assignment by the caller.
	est *Estimator
	// coverage is one past the highest node or neighbor id observed in
	// an adaptive run (<= len(parts), which over-allocates to amortize
	// growth); serialized with assignment like est.
	coverage int32

	// scratch is the walk's per-node state, reused from node to node.
	scratch levelScratch
}

// block is one tree block's record. load is the only field the walk
// writes. cap and alpha change only when applyStats runs; the rest is a
// copy of the tree's shape, fixed in New. A level of the walk reads the
// parent's record for first..scored and its children's adjacent records
// for load, cap and alpha.
type block struct {
	load  int64   // charged node weight
	cap   int64   // t(v) * Lmax (§3.3 heterogeneous capacities)
	alpha float64 // adapted alpha / sqrt(t(v)), or the flat alpha
	first int32   // first child; the children are blk[first : first+count]
	count int32   // number of children, 0 for a leaf
	kl    int32   // first leaf covered (the leaf id of a leaf)
	width uint32  // KR - KL: a leaf p is inside iff uint32(p-kl) <= width
	shift int8    // child index of leaf p is (p-kl)>>shift; -1: ChildContaining
	// scored: the children are scored by the objective, not hashed
	// (above the HashLayers bottom layers, and the scorer is not Hashing).
	scored bool
	// even: every child covers the same number of leaves (the tree's
	// ChildSpan), so applyStats gives them one alpha and one cap and
	// scoreChild may rank their zero-gain children by load. A shape fact
	// like shift, set in New; it sits in the padding after scored, so the
	// record stays 48 bytes.
	even bool
}

// levelScratch is the walk's state for the node it is assigning: the
// gain accumulated per child of the current subproblem (fanout-sized,
// cleared per level) and the assigned neighbours still inside it — leaf
// id and, on weighted streams only, edge weight, in adjacency order (grown
// to the largest degree seen). Together with the child records of the
// block being split it is all one level of the walk touches.
//
// lo and hi bound the leaf ids in leaf. gather sets them to the least and
// greatest id it found (lo > hi when it found none), and they stay exact
// until a scan drops neighbours, which widens them to [MinInt32,
// MaxInt32], a bound no block lies inside, so from that level on the
// node's walk scans. sum is the total of wt over leaf in order, valid iff
// summed: narrow adds it up the first time it needs it, at most once per
// node, and so never after a scan has shortened the list.
type levelScratch struct {
	gain     []float64
	leaf     []int32
	wt       []float64
	weighted bool
	lo, hi   int32
	sum      float64
	summed   bool
}

// New prepares an OMS run over the given multi-section tree for a stream
// with the given global stats.
func New(tree *hierarchy.Tree, st stream.Stats, cfg Config) (*OMS, error) {
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("core: negative epsilon %v", cfg.Epsilon)
	}
	if cfg.Scorer < ScorerFennel || cfg.Scorer > ScorerHashing {
		return nil, fmt.Errorf("core: unknown scorer %v", cfg.Scorer)
	}
	if cfg.HashLayers < 0 || cfg.HashLayers > int(tree.MaxDepth) {
		return nil, fmt.Errorf("core: HashLayers %d outside [0,%d]", cfg.HashLayers, tree.MaxDepth)
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	o := &OMS{
		Tree:  tree,
		cfg:   cfg,
		gamma: gamma,
		blk:   make([]block, tree.NumNodes()),
		parts: make([]int32, st.N),
	}
	// Decisions at depth d partition one layer-(MaxDepth-d) subproblem;
	// the bottom HashLayers layers hash (depth >= MaxDepth - HashLayers).
	hashDepth := tree.MaxDepth - int32(cfg.HashLayers)
	for v := range o.blk {
		b := &o.blk[v]
		b.first, b.count = tree.Children(int32(v))
		b.kl = tree.KL[v]
		b.width = uint32(tree.KR[v] - tree.KL[v])
		b.shift = tree.ChildShift[v]
		b.scored = tree.Depth[v] < hashDepth && cfg.Scorer != ScorerHashing
		b.even = tree.ChildSpan[v] > 0
	}
	if cfg.Adaptive {
		// st carries optional hints; the estimator floors its
		// projections at them and the initial thresholds derive from
		// the initial projection (zero without hints — the first
		// observation ratchets before the first assignment).
		o.est = NewEstimator(st, cfg.AdaptiveHeadroom)
		o.readapt()
	} else {
		o.lmax.Store(Lmax(st.TotalNodeWeight, tree.K, cfg.Epsilon))
		// §3.2/§3.3: a block covering t final blocks is scored with
		// alpha / sqrt(t); for homogeneous hierarchies this equals the
		// per-layer alpha_i = alpha / sqrt(prod_{r<i} a_r).
		o.applyStats(st)
	}
	for i := range o.parts {
		o.parts[i] = -1
	}
	o.scratch.gain = make([]float64, tree.MaxFanout)
	return o, nil
}

// NewGP prepares a "no hierarchy" run (nh-OMS): plain k-way graph
// partitioning through an artificial recursive base-section tree built by
// Algorithm 2. The paper's tuning selects base = 4 (16.7% faster, 3.2%
// fewer cut edges than base 2).
func NewGP(k, base int32, st stream.Stats, cfg Config) (*OMS, error) {
	if base < 2 {
		return nil, fmt.Errorf("core: base %d < 2", base)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k %d < 1", k)
	}
	return New(hierarchy.BuildArtificial(k, base), st, cfg)
}

// Assignments returns the final block (= PE) per node; -1 for nodes not
// yet streamed.
func (o *OMS) Assignments() []int32 { return o.parts }

// K returns the number of final blocks.
func (o *OMS) K() int32 { return o.Tree.K }

// TreeLoads returns a snapshot of the per-tree-block loads (for tests and
// diagnostics).
func (o *OMS) TreeLoads() []int64 {
	out := make([]int64, len(o.blk))
	for i := range o.blk {
		out[i] = o.blk[i].load
	}
	return out
}

// AlphaOf exposes the adapted alpha of tree block v (tuning experiment).
func (o *OMS) AlphaOf(v int32) float64 { return o.blk[v].alpha }

// AssignNode runs the per-node body of Algorithm 1 for one arriving node
// and returns its permanent block: the incremental push-based entry into
// the same assignment path Run drives internally. Callers stream nodes in
// any order they like, one call per node; a sequence of AssignNode calls
// in natural node order is bit-identical to a sequential Run over the
// same stream. It is not safe for concurrent use, nor concurrent with
// Run. Calling it twice for the same node double-charges the tree
// loads, so gate re-pushes at the call site (AssignmentOf reports
// whether a node was already placed).
func (o *OMS) AssignNode(u int32, vwgt int32, adj []int32, ewgt []int32) int32 {
	o.assign(u, vwgt, adj, ewgt)
	return o.parts[u]
}

// ForceAssign places u on the given final block directly, charging its
// weight to every tree block on the root-to-leaf path without scoring:
// the replay entry for streams whose assignments were already decided
// (and acknowledged) by an earlier run. A durable log replays the
// recorded decision itself rather than re-deriving it, so recovery never
// depends on the engine version that made it. The caller guards
// re-pushes, like AssignNode.
func (o *OMS) ForceAssign(u int32, vwgt int32, leaf int32) {
	t := o.Tree
	v := t.Root
	for !t.IsLeaf(v) {
		v = t.ChildContaining(v, leaf)
		o.blk[v].load += int64(vwgt)
	}
	o.parts[u] = leaf
}

// Run performs the single streaming pass (Algorithm 1) in stream order
// and returns the partition vector.
func (o *OMS) Run(src stream.Source) ([]int32, error) {
	if err := src.ForEach(o.assign); err != nil {
		return nil, err
	}
	return o.parts, nil
}

// RestreamPasses performs extraPasses additional sequential passes on an
// OMS whose first pass already happened — either via Run or via a
// sequence of AssignNode pushes (a recorded push session restreams its
// buffer through here without re-charging the first pass). This is the
// paper's §3.2 "Remapping" extension, flagged there as future work, in
// the spirit of ReFennel/ReLDG: each pass re-scores every node with full
// knowledge of the previous pass's assignment, first removing the node's
// weight from its old root-to-leaf path so capacities stay exact.
func (o *OMS) RestreamPasses(src stream.Source, extraPasses int) ([]int32, error) {
	for p := 0; p < extraPasses; p++ {
		err := src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
			o.unassign(u, vwgt)
			o.assign(u, vwgt, adj, ewgt)
		})
		if err != nil {
			return nil, err
		}
	}
	return o.parts, nil
}

// unassign removes u's weight from its current path.
func (o *OMS) unassign(u int32, vwgt int32) {
	leaf := o.parts[u]
	if leaf < 0 {
		return
	}
	t := o.Tree
	for v := t.LeafNode[leaf]; v != t.Root; v = t.Parent[v] {
		o.blk[v].load -= int64(vwgt)
	}
	o.parts[u] = -1
}

// assign walks node u from the root to a leaf (the per-node body of
// Algorithm 1), charging u's weight to the chosen child at every level.
// scoreChild and hashChild return a child with room for it, or, when no
// child has room (heavily weighted nodes can fragment so that none fits),
// the least relatively loaded one, which takes the overflow.
//
// gather reads the adjacency once; every scored level then calls narrow,
// which settles the level in O(1) while the neighbours' bounds lie in one
// child (or miss the block) and otherwise scans only the neighbours still
// inside the parent block: edge work m + the survivors of the levels that
// scan <= m*l, scratch O(max degree). The list keeps adjacency order, so
// gains are summed in the order a rescan of adj would sum them and a run
// is bit-identical to one. Hashed levels are the bottom ones of every
// path and read no neighbours, so the list is neither built nor narrowed
// there.
//
// Each level reads the record of the block being split and the adjacent
// records of its children; the chosen child's record then describes the
// next level.
func (o *OMS) assign(u int32, vwgt int32, adj []int32, ewgt []int32) {
	sc := &o.scratch
	v := o.Tree.Root
	b := &o.blk[v]
	w := int64(vwgt)
	if b.scored {
		o.gather(sc, adj, ewgt)
	}
	for b.count > 0 {
		if b.scored {
			o.narrow(sc, v)
		}
		if b.scored {
			v = o.scoreChild(sc.gain[:b.count], b.first, b.even, w)
		} else {
			v = o.hashChild(u, v, b.first, b.count, w)
		}
		b = &o.blk[v]
		b.load += w
	}
	o.parts[u] = b.kl
}

// gather fills the scratch with the leaf id of every assigned neighbour,
// in adjacency order, and with the edge weights beside them when the
// stream has any, and records the least and greatest leaf id. Like
// narrow, it picks its loop once per node: an unweighted stream never
// tests ewgt per neighbour.
func (o *OMS) gather(sc *levelScratch, adj []int32, ewgt []int32) {
	if cap(sc.leaf) < len(adj) {
		sc.leaf = make([]int32, len(adj)+len(adj)/2)
	}
	leaf := sc.leaf[:len(adj)]
	k := uint32(o.Tree.K)
	n := 0
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	sc.weighted = ewgt != nil
	sc.summed = false
	if ewgt == nil {
		for _, nb := range adj {
			p := o.parts[nb]
			if uint32(p) >= k { // unassigned (-1)
				continue
			}
			leaf[n] = p
			n++
			lo = min(lo, p)
			hi = max(hi, p)
		}
		sc.leaf = leaf[:n]
		sc.lo, sc.hi = lo, hi
		return
	}
	if len(sc.wt) < len(adj) {
		sc.wt = make([]float64, cap(sc.leaf))
	}
	wt := sc.wt[:len(adj)]
	ewgt = ewgt[:len(adj)]
	for i, nb := range adj {
		p := o.parts[nb]
		if uint32(p) >= k {
			continue
		}
		leaf[n] = p
		wt[n] = float64(ewgt[i])
		n++
		lo = min(lo, p)
		hi = max(hi, p)
	}
	sc.leaf = leaf[:n]
	sc.lo, sc.hi = lo, hi
}

// narrow keeps, in order, the gathered neighbours inside tree block v and
// sums their edge weights per child of v into sc.gain.
//
// It first looks at the bounds alone. The children of v cover contiguous,
// ordered leaf ranges, so when sc.lo and sc.hi both lie in one child c,
// every neighbour does: all survive, the list stays as it is, and gain[c]
// is sc.total(), their count or their weights added in the order the scan
// adds them. When the bounds miss v, no neighbour survives. Both cost
// O(1), whatever the list's length. When they lie in v but in different
// children, every neighbour survives the scan, so the list, its bounds
// and its sum stand.
//
// Otherwise the scan drops the neighbours outside v, and the bounds are
// widened first, so the rest of the node's walk scans. Tracking the
// survivors' bounds would cost a min and a max per survivor in every
// dropping scan; the widened bounds cost nothing, keep sc.sum the
// gathered list's, and give up the O(1) path only below a drop.
//
// The scan has three loops, chosen once per level by sc.weighted and the
// block's shift. A power-of-two child span (every level of a base-4 tree
// over a power-of-four k, and of 4:16:8) takes a loop of subtract,
// compare, shift and add: counting for an unweighted stream, and for a
// weighted one adding the edge weight and compacting the weights beside
// the leaves. Other spans take the general loop, which looks the child up
// through ChildContaining.
func (o *OMS) narrow(sc *levelScratch, v int32) {
	b := &o.blk[v]
	gain := sc.gain[:b.count]
	for i := range gain {
		gain[i] = 0
	}
	kl, width := b.kl, b.width
	lo, hi := sc.lo, sc.hi
	if uint32(lo-kl) <= width && uint32(hi-kl) <= width {
		var cl, ch int32
		if b.shift >= 0 {
			cl, ch = (lo-kl)>>uint8(b.shift), (hi-kl)>>uint8(b.shift)
		} else {
			cl, ch = o.Tree.ChildContaining(v, lo)-b.first, o.Tree.ChildContaining(v, hi)-b.first
		}
		if cl == ch {
			gain[cl] = sc.total()
			return
		}
		// Every neighbour is inside v: the scan keeps them all, so the
		// bounds and the sum stand.
	} else if hi < kl || lo > kl+int32(width) {
		sc.leaf = sc.leaf[:0]
		return
	} else {
		sc.lo, sc.hi = math.MinInt32, math.MaxInt32
	}
	leaf := sc.leaf
	n := 0
	if b.shift >= 0 {
		shift := uint8(b.shift) & 31 // < 32: the loops shift without a range fix-up
		if !sc.weighted {
			for _, p := range leaf {
				off := uint32(p - kl)
				if off > width {
					continue
				}
				gain[off>>shift]++
				leaf[n] = p
				n++
			}
			sc.leaf = leaf[:n]
			return
		}
		wt := sc.wt[:len(leaf)]
		for i, p := range leaf {
			off := uint32(p - kl)
			if off > width {
				continue
			}
			gain[off>>shift] += wt[i]
			wt[n] = wt[i]
			leaf[n] = p
			n++
		}
		sc.leaf = leaf[:n]
		return
	}
	wt := sc.wt
	for i, p := range leaf {
		off := uint32(p - kl)
		if off > width {
			continue
		}
		c := o.Tree.ChildContaining(v, p) - b.first
		if sc.weighted {
			gain[c] += wt[i]
			wt[n] = wt[i]
		} else {
			gain[c]++
		}
		leaf[n] = p
		n++
	}
	sc.leaf = leaf[:n]
}

// total is what a scan would sum into the one child holding every
// neighbour on the list: their count, or their edge weights added from 0
// in list order. The weighted sum is taken once per node.
func (sc *levelScratch) total() float64 {
	if !sc.weighted {
		return float64(len(sc.leaf))
	}
	if !sc.summed {
		s := 0.0
		for _, x := range sc.wt[:len(sc.leaf)] {
			s += x
		}
		sc.sum, sc.summed = s, true
	}
	return sc.sum
}

// scoreChild scores the count = len(gain) children from first with the
// configured objective and returns the best feasible one: the highest
// score, ties to the lighter block, then to the lower index. The
// objective is chosen once per call. The default, Fennel with gamma 1.5,
// evaluates FennelScore's expression inline; LDG and other gammas call
// LDGScore or FennelScore per child.
//
// When the children are even (one alpha, see block), the Fennel arm
// ranks its zero-gain children instead of scoring them. A zero-gain
// child scores -alpha*1.5*sqrt(load), which never rises as the load
// rises, so among the feasible zero-gain children the least-loaded one
// (the first on equal loads) is the best by the loop's own order. That
// representative is the only zero-gain child whose score is computed,
// with the loop's expression on the loop's operands, and it is merged
// into the best of the gain children by the same order. The result is
// the child the full loop picks, to the last bit; when no child has
// gain, it is found without a sqrt.
func (o *OMS) scoreChild(gain []float64, first int32, even bool, w int64) int32 {
	kids := o.blk[first : first+int32(len(gain))]
	gain = gain[:len(kids)] // one length: no bounds checks on gain[i]
	best := -1
	bestScore := 0.0
	var bestLoad int64
	if o.cfg.Scorer != ScorerLDG && o.gamma == 1.5 {
		rep := -1 // the least-loaded feasible zero-gain child, when even
		var repLoad int64
		for i := range kids {
			c := &kids[i]
			load := c.load
			if load+w > c.cap {
				continue
			}
			if even && gain[i] == 0 {
				if rep < 0 || load < repLoad {
					rep, repLoad = i, load
				}
				continue
			}
			score := gain[i] - float64(c.alpha*1.5*math.Sqrt(float64(load)))
			if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
				best, bestScore, bestLoad = i, score, load
			}
		}
		if rep >= 0 && best < 0 {
			best = rep
		} else if rep >= 0 {
			score := gain[rep] - float64(kids[rep].alpha*1.5*math.Sqrt(float64(repLoad)))
			if score > bestScore || (score == bestScore && (repLoad < bestLoad || (repLoad == bestLoad && rep < best))) {
				best = rep
			}
		}
	} else {
		ldg := o.cfg.Scorer == ScorerLDG
		for i := range kids {
			c := &kids[i]
			load := c.load
			var score float64
			var ok bool
			if ldg {
				score, ok = LDGScore(gain[i], load, w, c.cap)
			} else {
				score, ok = FennelScore(gain[i], load, w, c.cap, c.alpha, o.gamma)
			}
			if !ok {
				continue
			}
			if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
				best, bestScore, bestLoad = i, score, load
			}
		}
	}
	if best < 0 {
		return o.leastRelativeLoad(first, int32(len(kids)))
	}
	return first + int32(best)
}

// hashChild places u by hashing, probing siblings when the target is at
// capacity (keeps partitions balanced, which the paper reports for all
// algorithms).
func (o *OMS) hashChild(u, v, first, count int32, w int64) int32 {
	h := int32(util.HashMod(uint64(u), o.cfg.Seed^uint64(v)*0x9e3779b97f4a7c15, int(count)))
	for probe := int32(0); probe < count; probe++ {
		c := first + (h+probe)%count
		if o.blk[c].load+w <= o.blk[c].cap {
			return c
		}
	}
	return o.leastRelativeLoad(first, count)
}

// leastRelativeLoad is the forced-placement fallback: the child with the
// smallest load/capacity ratio (capacities differ under Algorithm 2's
// heterogeneous splits).
func (o *OMS) leastRelativeLoad(first, count int32) int32 {
	best := first
	bestRatio := math.Inf(1)
	for i := int32(0); i < count; i++ {
		c := first + i
		r := float64(o.blk[c].load) / float64(o.blk[c].cap)
		if r < bestRatio {
			best, bestRatio = c, r
		}
	}
	return best
}
