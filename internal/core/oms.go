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
// The walk reads u's adjacency once. The leaf ids of its assigned
// neighbours go into a per-worker scratch list, and every level scans
// that list and narrows it, in place and in order, to the neighbours
// inside the child it descends into: the edge work is m plus the
// survivors summed over the scored levels, never more than the m*l of
// Theorem 2 and close to m where neighbours scatter over the tree. The
// scratch is O(max degree) per worker, the order of the adjacency buffer
// every stream source holds already, so Theorem 1 stands. A sequential
// run is bit-identical to one that rescans the adjacency at every level
// (same gain sums in the same order, same tie-breaks; a test oracle keeps
// that walk and checks it). With Threads > 1 the list is one snapshot of
// the racily read neighbour assignments of §3.4.
//
// Every tree block has one 48-byte record (block): its load, capacity and
// adapted alpha, plus the walk's read-only view of its children (first,
// count, leaf range, child shift, scored-or-hashed). The children of a
// block are contiguous in the tree, so scoring a level reads count
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
	"oms/internal/onepass"
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
	// Threads is the worker count for Run. Values <= 1 select the
	// sequential, deterministic driver (the zero value is sequential on
	// purpose: parallelism is opt-in as in the paper's experiments).
	Threads int
	// Adaptive opens an open-ended run: the stats passed to New become
	// optional hints, an online estimator projects the final totals from
	// what actually arrives, and alpha plus the per-tree-block
	// capacities re-normalize as the projections ratchet (callers drive
	// this via ObserveAdaptive). Finish-time reconciliation is
	// Reconcile.
	Adaptive bool
	// AdaptiveHeadroom is the projection overshoot of the adaptive
	// estimator; <= 0 selects onepass.DefaultHeadroom. The documented
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
	est *onepass.Estimator
	// coverage is one past the highest node or neighbor id observed in
	// an adaptive run (<= len(parts), which over-allocates to amortize
	// growth); serialized with assignment like est.
	coverage int32

	// scratch holds one levelScratch per configured worker, indexed by
	// the worker id Run's parallel driver hands out; the sequential
	// entries (AssignNode, restream passes) walk scratch[0].
	scratch []*levelScratch
}

// block is one tree block's record. load is the only field the walk
// writes: atomically, except in sequential restream passes, which is why
// it is a plain int64 (their retraction needs no locked instruction).
// cap and alpha change only when applyStats runs; the rest is a copy of
// the tree's shape, fixed in New. A level of the walk reads the parent's
// record for first..scored and its children's adjacent records for load,
// cap and alpha.
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
}

// levelScratch is one worker's state for the node it is assigning: the
// gain accumulated per child of the current subproblem (fanout-sized,
// cleared per level) and the assigned neighbours still inside it — leaf
// id and, on weighted streams only, edge weight, in adjacency order (grown
// to the largest degree seen). Together with the child records of the
// block being split it is all one level of the walk touches.
type levelScratch struct {
	gain     []float64
	leaf     []int32
	wt       []float64
	weighted bool
}

// New prepares an OMS run over the given multi-section tree for a stream
// with the given global stats.
func New(tree *hierarchy.Tree, st stream.Stats, cfg Config) (*OMS, error) {
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("core: negative epsilon %v", cfg.Epsilon)
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
	}
	if cfg.Adaptive {
		// st carries optional hints; the estimator floors its
		// projections at them and the initial thresholds derive from
		// the initial projection (zero without hints — the first
		// observation ratchets before the first assignment).
		o.est = onepass.NewEstimator(st, cfg.AdaptiveHeadroom)
		o.readapt()
	} else {
		o.lmax.Store(onepass.Lmax(st.TotalNodeWeight, tree.K, cfg.Epsilon))
		// §3.2/§3.3: a block covering t final blocks is scored with
		// alpha / sqrt(t); for homogeneous hierarchies this equals the
		// per-layer alpha_i = alpha / sqrt(prod_{r<i} a_r).
		o.applyStats(st)
	}
	for i := range o.parts {
		o.parts[i] = -1
	}
	workers := cfg.Threads
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		o.scratch = append(o.scratch, &levelScratch{
			gain: make([]float64, tree.MaxFanout),
		})
	}
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
		out[i] = atomic.LoadInt64(&o.blk[i].load)
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
// same stream. AssignNode walks worker 0's scratch, so it is not safe
// for concurrent use, nor concurrent with Run: Run is the only parallel
// driver. Calling it twice for the same node double-charges the tree
// loads, so gate re-pushes at the call site (AssignmentOf reports
// whether a node was already placed).
func (o *OMS) AssignNode(u int32, vwgt int32, adj []int32, ewgt []int32) int32 {
	o.assign(0, u, vwgt, adj, ewgt)
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
		atomic.AddInt64(&o.blk[v].load, int64(vwgt))
	}
	atomic.StoreInt32(&o.parts[u], leaf)
}

// Run performs the single streaming pass (Algorithm 1) and returns the
// partition vector. With cfg.Threads > 1 over a source that holds its
// nodes (stream.Parallel), the node loop is parallelized in the
// vertex-centric fashion of §3.4: block loads are incremented atomically
// and neighbor assignments are read racily (a not-yet-visible neighbor
// simply contributes no gain, exactly as in the paper's OpenMP scheme).
func (o *OMS) Run(src stream.Source) ([]int32, error) {
	err := stream.Parallel(src, o.cfg.Threads, func(w int, u int32, vwgt int32, adj []int32, ewgt []int32) {
		o.assign(w, u, vwgt, adj, ewgt)
	})
	if err != nil {
		return nil, err
	}
	return o.parts, nil
}

// Restream performs extraPasses additional sequential passes in the
// spirit of ReFennel/ReLDG (the paper's §3.2 "Remapping" extension,
// flagged there as future work): each pass re-scores every node with full
// knowledge of the previous pass's assignment, first removing the node's
// weight from its old root-to-leaf path so capacities stay exact.
func (o *OMS) Restream(src stream.Source, extraPasses int) ([]int32, error) {
	if _, err := o.Run(src); err != nil {
		return nil, err
	}
	return o.RestreamPasses(src, extraPasses)
}

// RestreamPasses performs the extra sequential passes of Restream on an
// OMS whose first pass already happened — either via Run or via a
// sequence of AssignNode pushes (a recorded push session restreams its
// buffer through here without re-charging the first pass).
func (o *OMS) RestreamPasses(src stream.Source, extraPasses int) ([]int32, error) {
	for p := 0; p < extraPasses; p++ {
		err := src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
			o.unassign(u, vwgt)
			o.assign(0, u, vwgt, adj, ewgt)
		})
		if err != nil {
			return nil, err
		}
	}
	return o.parts, nil
}

// unassign removes u's weight from its current path (sequential passes
// only).
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
// Algorithm 1). Under parallel streaming the chosen block is reserved
// with a compare-and-swap that re-validates its capacity: the paper
// leaves this race open ("a block can still be overloaded if multiple
// threads decide to assign a node to it at the same time"), but because
// the capacities of a block's children sum exactly to its own, a node
// reserved into the parent always fits into some child (unit weights), so
// rescoring on CAS failure enforces the balance constraint outright.
//
// gather reads the adjacency once; every scored level then calls narrow,
// which scans only the neighbours still inside the block being split:
// edge work m + sum of survivors <= m*l, scratch O(max degree) per
// worker. The list keeps adjacency order, so gains are summed in the
// order a rescan of adj would sum them and a sequential run is
// bit-identical to one. Under parallel streaming the gather is one
// snapshot of §3.4's racy neighbour reads: a neighbour another worker
// places later is not seen further down either. Hashed levels are the
// bottom ones of every path and read no neighbours, so the list is
// neither built nor narrowed there.
//
// Each level reads the record of the block being split and the adjacent
// records of its children; the chosen child's record then describes the
// next level.
func (o *OMS) assign(worker int, u int32, vwgt int32, adj []int32, ewgt []int32) {
	sc := o.scratch[worker]
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
		var chosen int32
		for attempt := 0; ; attempt++ {
			// A failed reserve rescores against the loads as they are
			// now; the gains stand.
			if b.scored {
				chosen = o.scoreChild(sc.gain[:b.count], b.first, w)
			} else {
				chosen = o.hashChild(u, v, b.first, b.count, w)
			}
			if o.reserve(chosen, w) {
				break
			}
			if attempt >= maxReserveAttempts {
				// Heavily weighted nodes can fragment so that no single
				// child fits; fall back to the paper's unsynchronized
				// increment rather than stall.
				atomic.AddInt64(&o.blk[chosen].load, w)
				break
			}
		}
		v = chosen
		b = &o.blk[v]
	}
	atomic.StoreInt32(&o.parts[u], b.kl)
}

// gather fills the scratch with the leaf id of every assigned neighbour,
// in adjacency order, and with the edge weights beside them when the
// stream has any.
func (o *OMS) gather(sc *levelScratch, adj []int32, ewgt []int32) {
	if cap(sc.leaf) < len(adj) {
		sc.leaf = make([]int32, len(adj)+len(adj)/2)
	}
	if ewgt != nil && len(sc.wt) < len(adj) {
		sc.wt = make([]float64, cap(sc.leaf))
	}
	leaf, wt := sc.leaf[:len(adj)], sc.wt
	k := uint32(o.Tree.K)
	n := 0
	for i, nb := range adj {
		p := atomic.LoadInt32(&o.parts[nb])
		if uint32(p) >= k { // unassigned (-1)
			continue
		}
		leaf[n] = p
		if ewgt != nil {
			wt[n] = float64(ewgt[i])
		}
		n++
	}
	sc.leaf = leaf[:n]
	sc.weighted = ewgt != nil
}

// narrow keeps, in order, the gathered neighbours inside tree block v and
// sums their edge weights per child of v into sc.gain. An unweighted
// stream over a power-of-two child span (every level of a base-4 tree
// over a power-of-four k, and of 4:16:8) takes a loop of subtract,
// compare, shift and count; weighted streams and other spans take the
// general one.
func (o *OMS) narrow(sc *levelScratch, v int32) {
	b := &o.blk[v]
	gain := sc.gain[:b.count]
	for i := range gain {
		gain[i] = 0
	}
	kl, width := b.kl, b.width
	leaf := sc.leaf
	n := 0
	if !sc.weighted && b.shift >= 0 {
		shift := uint8(b.shift)
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
	wt := sc.wt
	for i, p := range leaf {
		off := uint32(p - kl)
		if off > width {
			continue
		}
		var c int32
		if b.shift >= 0 {
			c = int32(off >> uint8(b.shift))
		} else {
			c = o.Tree.ChildContaining(v, p) - b.first
		}
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

// maxReserveAttempts bounds rescoring under CAS contention before
// degrading to the paper's racy increment (never reached for unit-weight
// streams, where a feasible child always exists).
const maxReserveAttempts = 8

// reserve atomically charges w to block c iff the capacity allows it.
func (o *OMS) reserve(c int32, w int64) bool {
	b := &o.blk[c]
	for {
		cur := atomic.LoadInt64(&b.load)
		if cur+w > b.cap {
			return false
		}
		if atomic.CompareAndSwapInt64(&b.load, cur, cur+w) {
			return true
		}
	}
}

// scoreChild scores the count = len(gain) children from first with the
// configured objective and returns the best feasible one (ties to the
// lighter block). The objective is chosen once per call. The default,
// Fennel with gamma 1.5, evaluates onepass.FennelScore's expression
// inline; LDG and other gammas call onepass per child.
func (o *OMS) scoreChild(gain []float64, first int32, w int64) int32 {
	kids := o.blk[first : first+int32(len(gain))]
	gain = gain[:len(kids)] // one length: no bounds checks on gain[i]
	best := -1
	bestScore := 0.0
	var bestLoad int64
	if o.cfg.Scorer != ScorerLDG && o.gamma == 1.5 {
		for i := range kids {
			c := &kids[i]
			load := atomic.LoadInt64(&c.load)
			if load+w > c.cap {
				continue
			}
			score := gain[i] - c.alpha*1.5*math.Sqrt(float64(load))
			if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
				best, bestScore, bestLoad = i, score, load
			}
		}
	} else {
		ldg := o.cfg.Scorer == ScorerLDG
		for i := range kids {
			c := &kids[i]
			load := atomic.LoadInt64(&c.load)
			var score float64
			var ok bool
			if ldg {
				score, ok = onepass.LDGScore(gain[i], load, w, c.cap)
			} else {
				score, ok = onepass.FennelScore(gain[i], load, w, c.cap, c.alpha, o.gamma)
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
		if atomic.LoadInt64(&o.blk[c].load)+w <= o.blk[c].cap {
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
		r := float64(atomic.LoadInt64(&o.blk[c].load)) / float64(o.blk[c].cap)
		if r < bestRatio {
			best, bestRatio = c, r
		}
	}
	return best
}
