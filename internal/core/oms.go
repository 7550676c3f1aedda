// Package core implements the paper's contribution: the online recursive
// multi-section (OMS), a one-pass streaming algorithm that assigns every
// arriving node through all layers of a multi-section tree on the fly
// (Algorithm 1). With a topology hierarchy the leaves are PEs and the
// result is a process mapping; with an artificial recursive b-section
// tree (Algorithm 2) it solves plain graph partitioning ("nh-OMS").
//
// Per arriving node u the algorithm walks the tree from the root: at each
// internal block it scores the children with Fennel (at the paper's
// exponent 1.5), LDG, or Hashing and descends into the best feasible one,
// charging u's weight to every block on the path. Complexity:
// O(m*l + n*sum a_i) time (Theorem 2), O(n + k) memory (Theorem 1) — the
// only per-node state is the final leaf id, from which all super-blocks
// follow (leaf ranges).
//
// With base = k, Algorithm 2 builds a one-level tree of k leaves, and the
// walk is flat one-pass Fennel, LDG or Hashing, the paper's baselines:
// each leaf is scored with the root's alpha against the cap Lmax, and the
// root hashes with the flat seed. It places every node where the flat scan
// of internal/onepass (kept as reference code) does, except that a node
// fitting no block overloads the least loaded one, not its hash. Theorem
// 2's k children per node is an upper bound (dominance, below), and
// ranking the zero-gain ones by load makes the rest faster than the scan.
// The scores (FennelScore, LDGScore), Lmax, Alpha and the open-ended
// stream's Estimator live here for both.
//
// The walk reads u's adjacency once. The leaf ids of its assigned
// neighbours go into a scratch list with their least and greatest id.
// Leaf ranges nest, so when both ends lie in one child of the block
// being split, every neighbour does, and the level costs O(1) however
// long the list is: that child's gain is the list's count or weight, and
// the list stands. A level the ends miss empties it in O(1). Only a level
// whose ends lie in two children scans the list, narrowing it in place
// and in order to the neighbours inside the block being split and taking
// the least and greatest of them, so the ends stay exact for the levels
// below. The edge work is m for the gather plus the survivors of the
// levels that scan, never more than the m*l of Theorem 2: on a local
// graph, whose neighbours share a child down most of the path, it is
// close to m. The scratch is O(max degree), the order of the adjacency
// buffer every stream source holds already, so Theorem 1 stands. A run
// is bit-identical to one that rescans the adjacency at every level (same
// gain sums in the same order, same tie-breaks; a test oracle keeps that
// walk and checks it).
//
// Every pass assigns in stream order on one goroutine. The paper's §3.4
// fans the node loop out over shared-memory workers with atomic block
// loads and racy neighbour reads; on a 2-core host that fan-out ran at
// 0.85x (RGG, k = 4096) and 1.10x (RMAT on 4:16:8) of one worker, with a
// slightly higher cut, so it is not reproduced here and loads and
// assignments are plain fields.
//
// Theorem 2's n*sum a_i bounds the children the walk scores; most levels
// score fewer. When one child holds every neighbour left, has room and
// scores above 0, each sibling has gain 0 and so scores at most 0: the
// level is settled without scoring them (dominance). A block whose
// children cover equal leaf counts scores only the children with gain;
// the zero-gain ones are ranked by load, and only the least loaded is
// scored. At the 16- and 8-way levels of 4:16:8 most children have no
// gain, so most of a level is a load compare. Both are exact rewrites of
// the loop they replace: the oracle still agrees to the last bit.
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
	parts []int32

	// est estimates the stream stats of an open-ended run online; nil
	// for declared runs. Mutations (ObserveAdaptive, Reconcile) are
	// serialized with assignment by the caller.
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
// lo and hi are the least and greatest leaf id on the list (lo > hi when
// it is empty): gather sets them and every narrow keeps them exact. sum
// is the total of wt over the list in order, valid iff summed: total()
// adds it up when it needs it, and a scan that drops neighbours clears it.
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
	if !(cfg.Epsilon >= 0) || math.IsInf(cfg.Epsilon, 1) {
		return nil, fmt.Errorf("core: epsilon %v not a finite value >= 0", cfg.Epsilon)
	}
	if cfg.Scorer < ScorerFennel || cfg.Scorer > ScorerHashing {
		return nil, fmt.Errorf("core: unknown scorer %v", cfg.Scorer)
	}
	if cfg.HashLayers < 0 || cfg.HashLayers > int(tree.MaxDepth) {
		return nil, fmt.Errorf("core: HashLayers %d outside [0,%d]", cfg.HashLayers, tree.MaxDepth)
	}
	o := &OMS{
		Tree:  tree,
		cfg:   cfg,
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
// which sums the gains in O(1) when the neighbours' bounds lie in one
// child (or miss the block) and otherwise scans only the neighbours still
// inside the parent block. When one child holds them all and dominates,
// the level takes it without scoreChild. Edge work is m + the survivors
// of the levels that scan <= m*l, scratch O(max degree). The list keeps
// adjacency order, so gains are summed in the order a rescan of adj would
// sum them and a run is bit-identical to one. Hashed levels are the
// bottom ones of every path and read no neighbours, so the list is
// neither built nor narrowed there.
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
		if !b.scored {
			v = o.hashChild(u, v, b.first, b.count, w)
		} else if c := o.narrow(sc, v); c >= 0 && o.dominates(b.first+c, sc.gain[c], w) {
			v = b.first + c
		} else {
			v = o.scoreChild(sc.gain[:b.count], b.first, b.even, w)
		}
		b = &o.blk[v]
		b.load += w
	}
	o.parts[u] = b.kl
}

// dominates reports whether child c, holding every neighbour left with
// gain g, has room for w and scores above 0. Its siblings, with gain 0,
// score at most 0: -alpha*1.5*sqrt(load) under Fennel (alpha is
// finite and >= 0), ±0 under LDG (caps are t*Lmax: all 0 or none). So c
// is scoreChild's unique maximum. A score <= 0, or the NaN of a cap-0 LDG
// block, is left to scoreChild.
func (o *OMS) dominates(c int32, g float64, w int64) bool {
	k := &o.blk[c]
	switch {
	case k.load+w > k.cap:
		return false
	case o.cfg.Scorer == ScorerLDG:
		return ldg(g, k.load, k.cap) > 0
	}
	return fennel15(g, k.load, k.alpha) > 0
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

// narrow keeps, in order, the gathered neighbours inside tree block v,
// sums their edge weights per child of v into sc.gain, and returns the
// index of the child holding every neighbour kept, when the bounds alone
// show one, or -1.
//
// The children of v cover contiguous, ordered leaf ranges, so when sc.lo
// and sc.hi both lie in one child c, every neighbour does: all survive,
// the list stays as it is, and gain[c] is sc.total(), their count or
// their weights added in the order the scan adds them. When the bounds
// miss v, no neighbour survives. Both cost O(1), whatever the list's
// length. Otherwise the list is scanned (when the bounds lie in v but in
// two children, every neighbour survives it), and every scan loop takes
// the least and greatest leaf it keeps, so the bounds stay exact for the
// levels below. A scan that drops neighbours clears summed: total() then
// re-sums the survivors from 0 in list order, as a rescan of adj would.
//
// The scan has three loops, chosen once per level by sc.weighted and the
// block's shift: for a power-of-two child span (every level of a base-4
// tree over a power-of-four k, and of 4:16:8) a loop of subtract,
// compare, shift and add, counting (scanCount) or adding and compacting
// the edge weights beside the leaves (scanWeighted); for other spans the
// general loop, which looks the child up through ChildContaining.
func (o *OMS) narrow(sc *levelScratch, v int32) int32 {
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
			return cl
		}
		// Every neighbour is inside v: the scan keeps them all, so the
		// list, its bounds and its sum stand.
	} else if hi < kl || lo > kl+int32(width) {
		sc.leaf, sc.lo, sc.hi = sc.leaf[:0], math.MaxInt32, math.MinInt32
		return -1
	}
	var n int
	switch {
	case b.shift < 0:
		lo, hi = math.MaxInt32, math.MinInt32
		for i, p := range sc.leaf {
			if uint32(p-kl) > width {
				continue
			}
			c := o.Tree.ChildContaining(v, p) - b.first
			if sc.weighted {
				gain[c] += sc.wt[i]
				sc.wt[n] = sc.wt[i]
			} else {
				gain[c]++
			}
			sc.leaf[n] = p
			n++
			lo, hi = min(lo, p), max(hi, p)
		}
	case sc.weighted:
		n, lo, hi = scanWeighted(sc.leaf, sc.wt, gain, kl, width, uint8(b.shift))
	default:
		n, lo, hi = scanCount(sc.leaf, gain, kl, width, uint8(b.shift))
	}
	if n < len(sc.leaf) {
		sc.summed = false
	}
	sc.leaf, sc.lo, sc.hi = sc.leaf[:n], lo, hi
	return -1
}

// scanCount and scanWeighted are narrow's power-of-two loops: each keeps
// the neighbours inside the block in order and returns their number and
// bounds.
func scanCount(leaf []int32, gain []float64, kl int32, width uint32, shift uint8) (n int, lo, hi int32) {
	shift &= 31 // < 32: the loop shifts without a range fix-up
	lo, hi = math.MaxInt32, math.MinInt32
	for _, p := range leaf {
		off := uint32(p - kl)
		if off > width {
			continue
		}
		leaf[n] = p
		lo, hi = min(lo, p), max(hi, p)
		gain[off>>shift]++
		n++
	}
	return n, lo, hi
}

func scanWeighted(leaf []int32, wt, gain []float64, kl int32, width uint32, shift uint8) (n int, lo, hi int32) {
	shift &= 31
	wt = wt[:len(leaf)]
	lo, hi = math.MaxInt32, math.MinInt32
	for i, p := range leaf {
		off := uint32(p - kl)
		if off > width {
			continue
		}
		leaf[n] = p
		lo, hi = min(lo, p), max(hi, p)
		gain[off>>shift] += wt[i]
		wt[n] = wt[i]
		n++
	}
	return n, lo, hi
}

// total is what a scan would sum into the one child holding every
// neighbour on the list: their count, or their edge weights added from 0
// in list order. The weighted sum is taken once per list.
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
// objective is chosen once per call: bestFennel and bestLDG evaluate
// FennelScore's and LDGScore's expressions inline. Neither needs o or
// first, so their loops keep every running value in a register.
//
// When the children are even (one alpha and one cap, see block), both
// rank their zero-gain children instead of scoring them. A zero-gain
// child scores -alpha*1.5*sqrt(load) under Fennel, which never rises as
// the load rises, and 0*(1-load/cap) = +0 under LDG whatever its load
// (cap > 0; a cap of 0 takes the full loop, whose 0/0 scores NaN). So
// among the feasible zero-gain children the least-loaded one (the first
// on equal loads) is the best by the loop's own order. That
// representative is the only zero-gain child whose score is computed,
// with the loop's expression on the loop's operands, and it is merged
// into the best of the gain children by the same order (withRep). The
// result is the child the full loop picks, to the last bit; when no
// child has gain, it is found without a sqrt or a division.
func (o *OMS) scoreChild(gain []float64, first int32, even bool, w int64) int32 {
	kids := o.blk[first : first+int32(len(gain))]
	var best int
	if o.cfg.Scorer == ScorerLDG {
		best = bestLDG(kids, gain, even, w)
	} else {
		best = bestFennel(kids, gain, even, w)
	}
	if best < 0 {
		return o.leastRelativeLoad(first, int32(len(kids)))
	}
	return first + int32(best)
}

// bestFennel is scoreChild's Fennel arm: the index of the best feasible
// child in kids, or -1 when none has room.
func bestFennel(kids []block, gain []float64, even bool, w int64) int {
	gain = gain[:len(kids)] // one length: no bounds checks on gain[i]
	best := -1
	bestScore := 0.0
	var bestLoad int64
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
		score := fennel15(gain[i], load, c.alpha)
		if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
			best, bestScore, bestLoad = i, score, load
		}
	}
	if best < 0 || rep < 0 {
		return max(best, rep) // the one that exists, or -1
	}
	return withRep(best, bestScore, bestLoad, rep, repLoad, fennel15(gain[rep], repLoad, kids[rep].alpha))
}

// bestLDG is scoreChild's LDG arm, as bestFennel is its Fennel arm.
func bestLDG(kids []block, gain []float64, even bool, w int64) int {
	gain = gain[:len(kids)]
	best := -1
	bestScore := 0.0
	var bestLoad int64
	rep := -1
	var repLoad int64
	even = even && kids[0].cap > 0 // even children share one cap
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
		score := ldg(gain[i], load, c.cap)
		if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
			best, bestScore, bestLoad = i, score, load
		}
	}
	if best < 0 || rep < 0 {
		return max(best, rep)
	}
	return withRep(best, bestScore, bestLoad, rep, repLoad, 0) // a zero-gain child scores +0
}

// withRep merges the zero-gain representative rep, scoring repScore, into
// the best gain child by the loop's order.
func withRep(best int, bestScore float64, bestLoad int64, rep int, repLoad int64, repScore float64) int {
	if repScore > bestScore || (repScore == bestScore && (repLoad < bestLoad || (repLoad == bestLoad && rep < best))) {
		return rep
	}
	return best
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
