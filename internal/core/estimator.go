package core

import (
	"math"
	"sync/atomic"

	"oms/internal/stream"
)

// Estimator projects the global stream stats of an open-ended stream —
// one whose n, m, and total weights are not declared up front — from
// what has actually arrived. The paper's scorers are stats-free once
// alpha and the capacities are given (FennelScore and LDGScore take
// them as plain arguments); the estimator supplies those inputs online.
//
// Projections ratchet geometrically: whenever the observed node weight
// reaches NextRatchet the estimator re-projects every total as
// max(hint, ceil(observed * (1+headroom))) and arms the next trigger at
// observed * (1+headroom). Between ratchets the projection in force is
// therefore always at least the observed total and at most a factor
// (1+headroom) above it, which is what bounds the imbalance of
// capacities derived from it: a capacity computed from any projection
// this estimator ever served is at most
//
//	ceil((1+eps) * max(hintW, (1+headroom) * W_final) / k)
//
// per final block, so without oversized hints the final imbalance is
// bounded by (1+eps)(1+headroom) - 1 ≈ eps + headroom (plus integer
// rounding) relative to the true, finally observed totals.
//
// Observe must be serialized with the stream (one writer); every read
// accessor is safe to call concurrently with it.
type Estimator struct {
	hints    stream.Stats
	headroom float64

	seenN   atomic.Int64
	seenW   atomic.Int64
	seenAdj atomic.Int64
	seenEW  atomic.Int64
	nextW   int64 // writer-only

	// proj is the projection in force together with its revision,
	// swapped whole at every ratchet so a concurrent reader never sees
	// fields from two different revisions mixed.
	proj atomic.Pointer[projection]
}

// projection is one immutable published projection.
type projection struct {
	rev int64
	est stream.Stats
}

// DefaultHeadroom is the projection overshoot used when none is
// configured: the paper's epsilon, so the documented adaptive imbalance
// bound lands at twice the declared-stats slack.
const DefaultHeadroom = 0.03

// NewEstimator builds an estimator. The hints are optional lower bounds
// on the final totals (a client that knows roughly how large its stream
// is keeps early capacities from being tight); zero hints are simply
// ignored. headroom <= 0 selects DefaultHeadroom.
func NewEstimator(hints stream.Stats, headroom float64) *Estimator {
	if headroom <= 0 {
		headroom = DefaultHeadroom
	}
	e := &Estimator{hints: hints, headroom: headroom, nextW: 1}
	e.ratchet()
	return e
}

// Observe records one arriving node: its weight, adjacency length, and
// summed edge weight (pass adjLen for unweighted streams). It returns
// true when the projection ratcheted, meaning derived quantities
// (alpha, capacities) should be recomputed.
func (e *Estimator) Observe(vwgt int32, adjLen int, ewSum int64) bool {
	e.seenN.Add(1)
	w := e.seenW.Add(int64(vwgt))
	e.seenAdj.Add(int64(adjLen))
	e.seenEW.Add(ewSum)
	if w < e.nextW {
		return false
	}
	e.ratchet()
	return true
}

// ratchet re-projects every total from the current observations and
// arms the next trigger. Writer-only.
func (e *Estimator) ratchet() {
	project := func(seen, hint int64) int64 {
		p := int64(math.Ceil(float64(seen) * (1 + e.headroom)))
		if p < hint {
			p = hint
		}
		return p
	}
	// Each undirected edge arrives once per endpoint in the paper's
	// stream model, so the observed adjacency entries approach 2m; the
	// midstream projection halves them (an underestimate early on, when
	// most edges have been seen from one endpoint only — alpha, the only
	// consumer, adapts with the next ratchets).
	est := stream.Stats{
		N:               int32(min(project(e.seenN.Load(), int64(e.hints.N)), math.MaxInt32)),
		M:               project((e.seenAdj.Load()+1)/2, e.hints.M),
		TotalNodeWeight: project(e.seenW.Load(), e.hints.TotalNodeWeight),
		TotalEdgeWeight: project((e.seenEW.Load()+1)/2, e.hints.TotalEdgeWeight),
	}
	w := e.seenW.Load()
	next := int64(math.Ceil(float64(w) * (1 + e.headroom)))
	if next <= w {
		next = w + 1
	}
	e.nextW = next
	e.publish(est)
}

// publish swaps in the next projection revision. Writer-only.
func (e *Estimator) publish(est stream.Stats) {
	rev := int64(1)
	if cur := e.proj.Load(); cur != nil {
		rev = cur.rev + 1
	}
	e.proj.Store(&projection{rev: rev, est: est})
}

// Reconcile replaces the projection with the exact observed totals — the
// Finish-time re-normalization, once the stream is sealed and the true
// totals are known. Derived quantities should be recomputed afterwards.
// It returns the relative projection error per total at the moment of
// reconciliation ((estimate - observed) / observed; zero when nothing
// was observed).
func (e *Estimator) Reconcile() (errN, errW float64) {
	seenN, seenW := e.seenN.Load(), e.seenW.Load()
	cur := e.proj.Load().est
	if seenN > 0 {
		errN = float64(int64(cur.N)-seenN) / float64(seenN)
	}
	if seenW > 0 {
		errW = float64(cur.TotalNodeWeight-seenW) / float64(seenW)
	}
	e.publish(e.Observed())
	return errN, errW
}

// Estimates returns the projection currently in force as stream stats.
// The snapshot is internally consistent (one revision, swapped whole);
// each total is additionally clamped to at least the current observed
// value, so the documented "projection >= observed" invariant holds for
// readers racing the short window between an observation landing and
// its ratchet publishing.
func (e *Estimator) Estimates() stream.Stats {
	est := e.proj.Load().est
	obs := e.Observed()
	est.N = int32(max(int64(est.N), int64(obs.N)))
	est.M = max(est.M, obs.M)
	est.TotalNodeWeight = max(est.TotalNodeWeight, obs.TotalNodeWeight)
	est.TotalEdgeWeight = max(est.TotalEdgeWeight, obs.TotalEdgeWeight)
	return est
}

// Observed returns the exact totals observed so far (M and
// TotalEdgeWeight halve the per-endpoint observations).
func (e *Estimator) Observed() stream.Stats {
	return stream.Stats{
		N:               int32(min(e.seenN.Load(), math.MaxInt32)),
		M:               (e.seenAdj.Load() + 1) / 2,
		TotalNodeWeight: e.seenW.Load(),
		TotalEdgeWeight: (e.seenEW.Load() + 1) / 2,
	}
}

// Revision returns how many times the projection changed (ratchets plus
// reconciliations). It only ever increases.
func (e *Estimator) Revision() int64 { return e.proj.Load().rev }
