package core

import (
	"fmt"
	"math"

	"oms/internal/stream"
)

// Adaptive reports whether this run estimates its stream stats online
// (Config.Adaptive) instead of trusting a declared n/m up front.
func (o *OMS) Adaptive() bool { return o.est != nil }

// Estimator exposes the run's online stats estimator (nil for declared
// runs): observed totals, the projection in force, and its revision.
func (o *OMS) Estimator() *Estimator { return o.est }

// NumParts returns the current length of the assignment vector: the
// declared n for declared runs, the grown-so-far capacity for adaptive
// ones.
func (o *OMS) NumParts() int32 { return int32(len(o.parts)) }

// Coverage returns how many leading entries of the assignment vector
// are meaningful: the declared n for declared runs, one past the
// highest node or neighbor id observed for adaptive ones (the vector
// itself over-allocates to amortize growth). Results and exported
// state trim to it.
func (o *OMS) Coverage() int32 {
	if o.est == nil {
		return int32(len(o.parts))
	}
	return o.coverage
}

// ObserveAdaptive records one arriving node before it is assigned: the
// assignment vector grows to cover the node and its neighbors, the
// estimator accumulates the node's weight and adjacency, and — when the
// projection ratchets — alpha and every tree-block capacity are
// re-normalized to the new estimates. It returns whether a ratchet
// happened.
//
// Callers must serialize ObserveAdaptive with every assignment path
// (AssignNode, ForceAssign): re-adaptation rewrites the capacities and
// alphas those paths read. The push session guarantees this by
// observing and assigning each node in turn, in stream order.
func (o *OMS) ObserveAdaptive(u int32, vwgt int32, adj []int32, ewgt []int32) bool {
	if o.est == nil {
		return false
	}
	hi := u
	for _, nb := range adj {
		if nb > hi {
			hi = nb
		}
	}
	o.growParts(hi + 1)
	if hi+1 > o.coverage {
		o.coverage = hi + 1
	}
	var ewSum int64
	if ewgt != nil {
		for _, w := range ewgt {
			ewSum += int64(w)
		}
	} else {
		ewSum = int64(len(adj))
	}
	if !o.est.Observe(vwgt, len(adj), ewSum) {
		return false
	}
	o.readapt()
	return true
}

// growParts extends the assignment vector to cover at least n nodes,
// doubling to amortize. Serialized with assignment like every adaptive
// mutation; -1 marks the fresh slots unassigned.
func (o *OMS) growParts(n int32) {
	if int(n) <= len(o.parts) {
		return
	}
	grown := len(o.parts) * 2
	if grown < int(n) {
		grown = int(n)
	}
	if grown < 1024 {
		grown = 1024
	}
	fresh := make([]int32, grown)
	copy(fresh, o.parts)
	for i := len(o.parts); i < grown; i++ {
		fresh[i] = -1
	}
	o.parts = fresh
}

// readapt recomputes the balance threshold, every tree-block capacity,
// and every adapted alpha from the estimator's current projection (the
// §3.2/§3.3 derivations, re-evaluated as estimates ratchet).
func (o *OMS) readapt() {
	est := o.est.Estimates()
	o.lmax.Store(Lmax(est.TotalNodeWeight, o.Tree.K, o.cfg.Epsilon))
	o.applyStats(est)
}

// applyStats derives every block's cap and alpha from the given stats
// and the current lmax.
func (o *OMS) applyStats(st stream.Stats) {
	lmax := o.lmax.Load()
	alphaRoot := Alpha(o.Tree.K, st.TotalEdgeWeight, st.N)
	for v := range o.blk {
		b := &o.blk[v]
		t := o.Tree.LeafCount(int32(v))
		b.cap = int64(t) * lmax
		if o.cfg.VanillaAlpha {
			b.alpha = alphaRoot
		} else {
			b.alpha = alphaRoot / math.Sqrt(float64(t))
		}
	}
}

// Reconcile replaces the adaptive projection with the exact observed
// totals and re-normalizes capacities and alphas one final time — the
// Finish-time reconciliation, once the stream is sealed and the true
// totals are known. Later restream passes then refine against exact
// capacities, like a declared run's. It returns the relative projection
// error per total at the moment of sealing ((estimate-observed)/observed).
// No-op (zero errors) for declared runs.
func (o *OMS) Reconcile() (errN, errW float64) {
	if o.est == nil {
		return 0, 0
	}
	errN, errW = o.est.Reconcile()
	o.readapt()
	return errN, errW
}

// ExportEstimator snapshots the estimator state of an adaptive run; ok
// is false for declared runs.
func (o *OMS) ExportEstimator() (st EstimatorState, ok bool) {
	if o.est == nil {
		return EstimatorState{}, false
	}
	return o.est.Export(), true
}

// ImportEstimator restores estimator state captured by ExportEstimator
// (or logged in a durable stats-revision frame) and re-derives the
// dependent thresholds, so assignment continues exactly as it would
// have in the run the state came from. Serialized with assignment, like
// every adaptive mutation.
func (o *OMS) ImportEstimator(st EstimatorState) error {
	if o.est == nil {
		return fmt.Errorf("core: estimator state for a declared-stats run")
	}
	o.est.Import(st)
	// No parts growth here: the assignment vector tracks what has
	// actually arrived (observations grow it), not the projection, so a
	// restored run keeps the exact vector length of the original.
	o.readapt()
	return nil
}

// LmaxValue returns the current leaf balance threshold. For adaptive
// runs it ratchets upward with the estimates until Finish reconciles it
// against the true totals; reads are safe concurrently with streaming.
func (o *OMS) LmaxValue() int64 { return o.lmax.Load() }

// AssignmentOf returns the block of node u, or -1 while u is unassigned
// (including ids an adaptive run has not grown to yet).
func (o *OMS) AssignmentOf(u int32) int32 {
	if int(u) >= len(o.parts) {
		return -1
	}
	return o.parts[u]
}
