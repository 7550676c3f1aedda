package oms

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"oms/internal/core"
	"oms/internal/hierarchy"
	"oms/internal/stream"
)

// Sentinel errors returned (possibly wrapped) by Session operations, so
// callers — the omsd HTTP layer in particular — can map failure classes
// to distinct responses instead of parsing message strings.
var (
	// ErrSessionFinished reports a Push or second Finish on a sealed
	// session.
	ErrSessionFinished = errors.New("oms: session already finished")
	// ErrNodeOutOfRange reports a node or neighbor id outside the
	// declared [0, N) range.
	ErrNodeOutOfRange = errors.New("oms: node outside declared range")
	// ErrEdgeBudget reports a Push that would exceed the declared edge
	// budget of 2m adjacency entries.
	ErrEdgeBudget = errors.New("oms: declared edge budget exceeded")
)

// StreamStats declares the global stream quantities a one-pass
// partitioner must know before the first node arrives: they size the
// balance constraint Lmax and Fennel's alpha. Pull sources derive them
// from the graph or file header; push sessions declare them up front.
type StreamStats = stream.Stats

// SessionConfig opens a push session. Exactly the information a client
// of the omsd service declares when creating a session.
type SessionConfig struct {
	// Stats are the declared global stream quantities. N and
	// TotalNodeWeight must be exact for the balance guarantee;
	// TotalEdgeWeight only shapes Fennel's alpha. For unit-weight
	// streams set TotalNodeWeight = N.
	Stats StreamStats
	// Topology selects process mapping onto its PEs; nil selects plain
	// partitioning into K blocks over an artificial Options.Base-section
	// hierarchy.
	Topology *Topology
	// K is the partitioning target when Topology is nil.
	K int32
	// Options configures the run exactly as for Partition/Map.
	Options Options
	// Record keeps a copy of every pushed node in a replayable source,
	// enabling Restream and post-hoc quality metrics at O(n + m) extra
	// memory. Off by default: the pure streaming regime is O(n + k).
	Record bool
	// Adaptive opens an open-ended session: the stream's n, m, and
	// total weights need not be declared. Stats become optional hints
	// (lower bounds on the final totals; zeros are ignored), an online
	// estimator projects the totals from what actually arrives, and
	// Fennel's alpha plus every tree-block capacity re-normalize as the
	// projections ratchet. Finish reconciles against the true observed
	// totals and reports the projection error (AdaptiveInfo).
	//
	// Balance caveat: capacities derived from projections overshoot the
	// observed totals by at most AdaptiveHeadroom, so the imbalance
	// guarantee relative to the final totals loosens from Epsilon to
	// (1+Epsilon)(1+AdaptiveHeadroom)-1 ≈ Epsilon + AdaptiveHeadroom
	// (plus integer rounding) — about twice the declared-stats slack at
	// the defaults. Oversized hints widen it further (capacities never
	// shrink).
	Adaptive bool
	// AdaptiveMaxN caps the node ids an adaptive session accepts, since
	// no declared n bounds them; 0 selects DefaultAdaptiveMaxN. Memory
	// grows with the largest id actually pushed, not with the cap.
	AdaptiveMaxN int32
	// AdaptiveHeadroom is the estimator's projection overshoot. 0 picks
	// an automatic default by retention: RetainedAdaptiveHeadroom (2.0)
	// for Record sessions — whose Finish repairs balance with a
	// reconcile pass, so streaming-time optimism is free quality — and
	// the estimator's tight default (the paper's epsilon) otherwise, where
	// the projection alone carries the imbalance bound.
	AdaptiveHeadroom float64
}

// DefaultAdaptiveMaxN bounds node ids in adaptive sessions that do not
// set their own cap (2^26, matching the omsd per-session node cap).
const DefaultAdaptiveMaxN = 1 << 26

// RetainedAdaptiveHeadroom is the automatic projection overshoot for
// adaptive sessions whose stream is retained (Record sessions here; the
// omsd service counts its write-ahead log as retention): the estimator
// assumes the stream is roughly one third done at any instant, which
// keeps early capacities roomy enough for arriving clusters to stay
// together. The resulting streaming-time imbalance is repaired by the
// finish-time reconcile pass, which re-places every node under exact
// capacities.
const RetainedAdaptiveHeadroom = 2.0

// Node is one element of a PushBatch: id, weight (0 means 1), the
// adjacency list, and optional parallel edge weights. The slices are not
// retained past the call (Record sessions copy them).
type Node struct {
	U   int32
	W   int32
	Adj []int32
	EW  []int32
}

// weight is the node's weight with the zero value read as 1. PushBatch
// reads it and never writes it back, so the caller's slice is untouched.
func (nd *Node) weight() int32 {
	if nd.W == 0 {
		return 1
	}
	return nd.W
}

// Session is the push-based counterpart of Partition and Map: instead of
// handing the algorithm a pull Source, the caller pushes each node with
// its adjacency list as it arrives and receives the node's permanent
// block immediately — the paper's "on the fly" assignment surfaced as an
// incremental API. A sequence of Push calls in natural node order
// computes bit-identical assignments to Partition/Map over the same
// stream and options. PushBatch admits a whole buffered slice of
// arrivals as one atomic group and assigns it in order, bit-identical to
// the same Push calls. A session assigns on one engine worker, like
// every pass.
//
// A Session is not safe for concurrent use; serialize access (the omsd
// service multiplexes many sessions over a worker pool with exactly this
// discipline).
type Session struct {
	o   *core.OMS
	buf *stream.Buffer
	n   int32
	// edgeBudget is 2*declared m: every edge may arrive once per
	// endpoint in the paper's stream model. Pushes beyond it are
	// rejected, bounding adjacency storage by the declaration.
	edgeBudget int64
	edgesSeen  int64
	// assigned is atomic so monitoring readers (the omsd session list)
	// may poll it while a worker is pushing; all other state still
	// requires the documented serialization.
	assigned atomic.Int32
	finished bool
	// adaptive marks an open-ended session: n is the id ceiling rather
	// than a declaration, the edge budget is unbounded, and estErrN /
	// estErrW hold the Finish-time reconciliation report (atomic bits:
	// monitoring readers poll AdaptiveInfo while the owning worker may
	// be finishing).
	adaptive bool
	estErrN  atomic.Uint64
	estErrW  atomic.Uint64
}

// NewSession opens a push session. Omitted stats default like the wire
// API: TotalNodeWeight to N (unit weights) and TotalEdgeWeight to M.
func NewSession(cfg SessionConfig) (*Session, error) {
	opt := cfg.Options.withDefaults()
	if cfg.Stats.N < 0 || cfg.Stats.M < 0 || cfg.Stats.TotalNodeWeight < 0 || cfg.Stats.TotalEdgeWeight < 0 {
		return nil, fmt.Errorf("oms: negative declared stats %+v", cfg.Stats)
	}
	ccfg := opt.coreConfig()
	if cfg.Adaptive {
		// Stats are hints: zeros simply leave the estimator to its
		// observations, and a hinted N does not default the weights (a
		// hint is a floor, not a unit-weight declaration).
		if cfg.AdaptiveMaxN < 0 {
			return nil, fmt.Errorf("oms: negative adaptive node cap %d", cfg.AdaptiveMaxN)
		}
		if cfg.AdaptiveHeadroom < 0 {
			return nil, fmt.Errorf("oms: negative adaptive headroom %v", cfg.AdaptiveHeadroom)
		}
		if cfg.AdaptiveHeadroom == 0 && cfg.Record {
			cfg.AdaptiveHeadroom = RetainedAdaptiveHeadroom
		}
		ccfg.Adaptive = true
		ccfg.AdaptiveHeadroom = cfg.AdaptiveHeadroom
	} else {
		if cfg.Stats.N == 0 {
			return nil, fmt.Errorf("oms: session declares 0 nodes (open-ended streams set Adaptive)")
		}
		if cfg.Stats.TotalNodeWeight == 0 {
			cfg.Stats.TotalNodeWeight = int64(cfg.Stats.N)
		}
		if cfg.Stats.TotalEdgeWeight == 0 {
			cfg.Stats.TotalEdgeWeight = cfg.Stats.M
		}
	}
	var o *core.OMS
	var err error
	if cfg.Topology != nil {
		o, err = core.New(hierarchy.FromSpec(cfg.Topology.Spec), cfg.Stats, ccfg)
	} else {
		o, err = core.NewGP(cfg.K, opt.Base, cfg.Stats, ccfg)
	}
	if err != nil {
		return nil, err
	}
	s := &Session{o: o, n: cfg.Stats.N, edgeBudget: 2 * cfg.Stats.M}
	if cfg.Adaptive {
		s.adaptive = true
		s.n = cfg.AdaptiveMaxN
		if s.n <= 0 {
			s.n = DefaultAdaptiveMaxN
		}
		// No declared m bounds an open-ended stream; adjacency is not
		// retained, so the budget is simply off.
		s.edgeBudget = math.MaxInt64
	}
	if cfg.Record {
		s.buf = stream.NewBuffer(cfg.Stats)
	}
	return s, nil
}

// K returns the number of final blocks / PEs.
func (s *Session) K() int32 { return s.o.K() }

// Lmax returns the leaf balance threshold the session enforces.
func (s *Session) Lmax() int64 { return s.o.LmaxValue() }

// Assigned returns how many nodes have been pushed so far.
func (s *Session) Assigned() int32 { return s.assigned.Load() }

// Push streams one node: the online recursive multi-section walks u from
// the root of the multi-section tree to a leaf and returns that leaf,
// u's permanent block. Neighbors not yet pushed simply contribute no
// gain, exactly as in the pull-based one-pass model. The adjacency
// slices are not retained (Record copies them).
//
// Push is idempotent: re-pushing an assigned node returns its existing
// permanent block without re-charging loads or budgets, so clients may
// safely retry a chunk whose response they lost.
func (s *Session) Push(u int32, vwgt int32, adj []int32, ewgt []int32) (int32, error) {
	if s.finished {
		return -1, fmt.Errorf("%w: push after Finish", ErrSessionFinished)
	}
	if u < 0 || u >= s.n {
		return -1, fmt.Errorf("%w: node %d not in [0,%d)", ErrNodeOutOfRange, u, s.n)
	}
	if b := s.o.AssignmentOf(u); b >= 0 {
		return b, nil
	}
	if err := s.validateNode(u, vwgt, adj, ewgt); err != nil {
		return -1, err
	}
	if s.edgesSeen+int64(len(adj)) > s.edgeBudget {
		return -1, fmt.Errorf("%w: node %d overruns 2m = %d", ErrEdgeBudget, u, s.edgeBudget)
	}
	s.edgesSeen += int64(len(adj))
	// Open-ended sessions observe before assigning: the estimator
	// accumulates the node, the assignment vector grows to cover it and
	// its neighbors, and — on a ratchet — alpha and the capacities
	// re-normalize before this node is scored.
	s.o.ObserveAdaptive(u, vwgt, adj, ewgt)
	b := s.o.AssignNode(u, vwgt, adj, ewgt)
	s.assigned.Add(1)
	if s.buf != nil {
		s.buf.Append(u, vwgt, adj, ewgt)
	}
	return b, nil
}

// validateNode applies the per-node admission checks shared by Push,
// PushBatch, and PushAssigned (everything but the idempotency and
// edge-budget checks, whose ordering differs per entry point).
func (s *Session) validateNode(u int32, vwgt int32, adj []int32, ewgt []int32) error {
	if vwgt <= 0 {
		return fmt.Errorf("oms: node %d has non-positive weight %d", u, vwgt)
	}
	if ewgt != nil && len(ewgt) != len(adj) {
		return fmt.Errorf("oms: node %d has %d edge weights for %d edges", u, len(ewgt), len(adj))
	}
	for i, nb := range adj {
		if nb < 0 || nb >= s.n {
			return fmt.Errorf("%w: node %d has neighbor %d not in [0,%d)", ErrNodeOutOfRange, u, nb, s.n)
		}
		if ewgt != nil && ewgt[i] <= 0 {
			return fmt.Errorf("oms: node %d has non-positive edge weight %d", u, ewgt[i])
		}
	}
	return nil
}

// PushBatch streams a buffered slice of arrivals at once: the batched
// counterpart of Push, and the entry the omsd batch endpoint drives. A
// zero Node.W means weight 1, like the wire API. The returned blocks
// align with nodes.
//
// A batch is one atomic group assigned in order: every node is
// validated (and the edge budget checked) before any node is assigned,
// so a rejected batch changes no session state, and the admitted nodes
// then go through the engine one by one in batch order, so the result
// is bit-identical to the same sequence of Push calls. Nodes already
// assigned — and re-occurrences within the batch — are idempotent: they
// contribute their existing (or first) assignment and are neither
// re-charged nor re-recorded.
func (s *Session) PushBatch(nodes []Node) ([]int32, error) {
	if s.finished {
		return nil, fmt.Errorf("%w: push after Finish", ErrSessionFinished)
	}
	// Admission pass: validate everything and find the fresh nodes
	// before touching any engine state.
	fresh := make([]int, 0, len(nodes))
	var freshEdges int64
	// A repeat can only follow a smaller or equal fresh id, so the set
	// of fresh ids is built only once they stop strictly increasing.
	var seen map[int32]struct{}
	top := int32(-1)
	for i := range nodes {
		nd := &nodes[i]
		if nd.U < 0 || nd.U >= s.n {
			return nil, fmt.Errorf("%w: node %d not in [0,%d)", ErrNodeOutOfRange, nd.U, s.n)
		}
		if err := s.validateNode(nd.U, nd.weight(), nd.Adj, nd.EW); err != nil {
			return nil, err
		}
		if s.o.AssignmentOf(nd.U) >= 0 {
			continue
		}
		if nd.U <= top && seen == nil {
			seen = make(map[int32]struct{}, len(nodes))
			for _, j := range fresh {
				seen[nodes[j].U] = struct{}{}
			}
		}
		if seen != nil {
			if _, dup := seen[nd.U]; dup {
				continue
			}
			seen[nd.U] = struct{}{}
		}
		top = max(top, nd.U)
		fresh = append(fresh, i)
		freshEdges += int64(len(nd.Adj))
	}
	if s.edgesSeen+freshEdges > s.edgeBudget {
		return nil, fmt.Errorf("%w: batch of %d fresh nodes overruns 2m = %d", ErrEdgeBudget, len(fresh), s.edgeBudget)
	}
	s.edgesSeen += freshEdges

	// Assignment pass: observe, assign and record each fresh node in
	// batch order, exactly as Push does.
	for _, i := range fresh {
		nd := &nodes[i]
		w := nd.weight()
		s.o.ObserveAdaptive(nd.U, w, nd.Adj, nd.EW)
		s.o.AssignNode(nd.U, w, nd.Adj, nd.EW)
		if s.buf != nil {
			s.buf.Append(nd.U, w, nd.Adj, nd.EW)
		}
	}
	s.assigned.Add(int32(len(fresh)))

	blocks := make([]int32, len(nodes))
	for i := range nodes {
		blocks[i] = s.o.AssignmentOf(nodes[i].U)
	}
	return blocks, nil
}

// PushAssigned replays one node whose block was already decided and
// acknowledged by an earlier run of this stream: it charges the node's
// weight down the recorded root-to-leaf path without re-scoring. This
// is the durable-log replay entry: every ingest record carries its
// blocks, so a recovered daemon replays its decisions themselves and
// reproduces its acks even if a newer engine version would score the
// stream differently (only the per-node records of logs written before
// that go through Push instead). Like Push it is idempotent on
// already-assigned nodes.
func (s *Session) PushAssigned(u int32, vwgt int32, adj []int32, ewgt []int32, block int32) (int32, error) {
	if s.finished {
		return -1, fmt.Errorf("%w: push after Finish", ErrSessionFinished)
	}
	if u < 0 || u >= s.n {
		return -1, fmt.Errorf("%w: node %d not in [0,%d)", ErrNodeOutOfRange, u, s.n)
	}
	if b := s.o.AssignmentOf(u); b >= 0 {
		return b, nil
	}
	if block < 0 || block >= s.o.K() {
		return -1, fmt.Errorf("oms: node %d replays block %d outside [0,%d)", u, block, s.o.K())
	}
	if err := s.validateNode(u, vwgt, adj, ewgt); err != nil {
		return -1, err
	}
	if s.edgesSeen+int64(len(adj)) > s.edgeBudget {
		return -1, fmt.Errorf("%w: node %d overruns 2m = %d", ErrEdgeBudget, u, s.edgeBudget)
	}
	s.edgesSeen += int64(len(adj))
	s.o.ObserveAdaptive(u, vwgt, adj, ewgt)
	s.o.ForceAssign(u, vwgt, block)
	s.assigned.Add(1)
	if s.buf != nil {
		s.buf.Append(u, vwgt, adj, ewgt)
	}
	return block, nil
}

// Finish seals the session and returns the result. Nodes never pushed
// keep assignment -1; pushing after Finish fails. Parts is a copy: a
// later Restream does not mutate it (unlike Partition/Map, the engine
// outlives the returned Result here).
func (s *Session) Finish() (*Result, error) {
	if s.finished {
		return nil, fmt.Errorf("%w: Finish called twice", ErrSessionFinished)
	}
	s.finished = true
	// The threshold the streaming run actually obeyed — for adaptive
	// sessions the final ratcheted value, which exceeds the reconciled
	// one by up to the headroom.
	lmax := s.o.LmaxValue()
	// Open-ended sessions reconcile at the seal: the projection is
	// replaced by the exact observed totals (its error is kept for
	// AdaptiveInfo) and capacities re-normalize one final time, so
	// later restream passes refine against exact capacities.
	errN, errW := s.o.Reconcile()
	s.estErrN.Store(math.Float64bits(errN))
	s.estErrW.Store(math.Float64bits(errW))
	// Retained adaptive sessions also reconcile the partition itself:
	// one sequential retract-and-reassign pass over the recorded stream
	// re-places every node under the now-exact capacities, repairing
	// the imbalance the optimistic streaming-time projection allowed
	// and recovering most of the cold-start cut. The omsd service runs
	// the same pass over its write-ahead log for adaptive sessions that
	// persist instead of record. Only then does the result report the
	// reconciled threshold — Result.Lmax is the bound the run enforced,
	// and without a reconcile pass the streaming bound is the honest
	// one.
	if s.adaptive && s.buf != nil {
		if _, err := s.o.RestreamPasses(s.buf, 1); err != nil {
			return nil, err
		}
		lmax = s.o.LmaxValue()
	}
	parts := append([]int32(nil), s.o.Assignments()[:s.o.Coverage()]...)
	return &Result{Parts: parts, K: s.o.K(), Lmax: lmax}, nil
}

// Source returns the recorded replayable stream of a Record session
// (nil otherwise): the pushed nodes in arrival order, for restreaming or
// second-pass quality metrics.
func (s *Session) Source() Source {
	if s.buf == nil {
		return nil
	}
	return s.buf
}

// Restream improves a finished Record session's result with extra
// sequential passes over the recorded stream, as Restream does for pull
// sources. It requires Record and a prior Finish.
func (s *Session) Restream(passes int) (*Result, error) {
	if s.buf == nil {
		return nil, fmt.Errorf("oms: Restream requires a Record session")
	}
	if !s.finished {
		return nil, fmt.Errorf("oms: Restream before Finish")
	}
	return s.RestreamFrom(s.buf, passes)
}

// RestreamFrom improves the session's current assignment with extra
// retract-and-reassign passes over an external recorded source — the
// same stream the session ingested, replayed from outside (the omsd
// refinement service replays a session's write-ahead log through here).
// Unlike Restream it requires neither Record nor a prior Finish. Its
// callers are a finished adaptive session that persists instead of
// records (one pass is its finish-time reconcile), and a refinement
// replica rebuilt by replaying a seed assignment through PushAssigned,
// which is never itself finished. Passes are sequential and
// deterministic for a fixed src order.
func (s *Session) RestreamFrom(src Source, passes int) (*Result, error) {
	if passes < 0 {
		return nil, fmt.Errorf("oms: negative restream passes %d", passes)
	}
	parts, err := s.o.RestreamPasses(src, passes)
	if err != nil {
		return nil, err
	}
	parts = parts[:s.o.Coverage()]
	return &Result{Parts: append([]int32(nil), parts...), K: s.o.K(), Lmax: s.o.LmaxValue()}, nil
}

// EstimatorState is the exported estimator state of an adaptive
// session: the observed running totals, the ratchet trigger, and the
// projection in force. An alias, like StreamStats, so the WAL's
// stats-revision encoder cannot drift from the estimator's own fields.
type EstimatorState = core.EstimatorState

// Adaptive reports whether the session estimates its stream stats
// online.
func (s *Session) Adaptive() bool { return s.adaptive }

// AdaptiveInfo describes an adaptive session's estimation trajectory.
// The error fields are zero until Finish reconciles.
type AdaptiveInfo struct {
	// Observed are the exact totals seen so far.
	Observed StreamStats
	// Estimated is the projection in force (equal to Observed after
	// Finish reconciles).
	Estimated StreamStats
	// Revision counts projection changes so far.
	Revision int64
	// EstimateErrN / EstimateErrW are the relative projection errors
	// ((estimate-observed)/observed) for the node count and total node
	// weight at the moment Finish sealed the stream.
	EstimateErrN float64
	EstimateErrW float64
}

// AdaptiveInfo returns the estimation trajectory of an adaptive
// session; ok is false for declared sessions. Safe to call concurrently
// with a pushing worker (monitoring endpoints poll it).
func (s *Session) AdaptiveInfo() (info AdaptiveInfo, ok bool) {
	est := s.o.Estimator()
	if est == nil {
		return AdaptiveInfo{}, false
	}
	return AdaptiveInfo{
		Observed:     est.Observed(),
		Estimated:    est.Estimates(),
		Revision:     est.Revision(),
		EstimateErrN: math.Float64frombits(s.estErrN.Load()),
		EstimateErrW: math.Float64frombits(s.estErrW.Load()),
	}, true
}

// StatsRevision returns how many times an adaptive session's projection
// has changed (0 forever on declared sessions). Durable stores log a
// stats-revision frame whenever it advances.
func (s *Session) StatsRevision() int64 {
	if est := s.o.Estimator(); est != nil {
		return est.Revision()
	}
	return 0
}

// Coverage returns how many leading entries of the assignment vector
// are meaningful: the declared n, or — for adaptive sessions — one
// past the highest node or neighbor id observed so far. It is the
// session's live memory footprint in nodes; safe for concurrent
// monitoring reads only between pushes (the omsd service reads it on
// the owning worker).
func (s *Session) Coverage() int32 { return s.o.Coverage() }

// EstimatorSnapshot exports the estimator state of an adaptive
// session (ok false on declared sessions) — the payload of a durable
// stats-revision record.
func (s *Session) EstimatorSnapshot() (EstimatorState, bool) {
	if est, ok := s.o.ExportEstimator(); ok {
		return est, true
	}
	return EstimatorState{}, false
}

// ApplyEstimator overwrites an adaptive session's estimator state and
// re-derives the dependent thresholds — the replay entry for the
// durable log's stats-revision frames, which resynchronize recovery
// even if estimator internals drift between versions. Serialized with
// pushes like every session call.
func (s *Session) ApplyEstimator(st EstimatorState) error {
	return s.o.ImportEstimator(st)
}

// ReconcileStats replaces an adaptive session's projection with the
// exact observed totals and re-normalizes capacities, as Finish does
// (no-op on declared sessions). The offline refinement path uses it
// after rebuilding an engine by replay, where the whole stream has been
// observed but no Finish ran.
func (s *Session) ReconcileStats() { s.o.Reconcile() }
