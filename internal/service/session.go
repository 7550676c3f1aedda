package service

import (
	"context"
	"errors"
	"fmt"
	"oms/internal/store"
	"strconv"
	"sync/atomic"
	"time"

	"oms"
	"oms/internal/refine"
	"oms/internal/telemetry"
	"oms/internal/trace"
)

// job is one running unit of session work, as begin hands it over: the
// submitting request's in-flight trace (nil on the sampled-out path —
// every use is nil-safe) and its id, plus, for an ingest job, the nodes
// of one /nodes chunk or one /batch. The two routes share one body
// (runIngest) and one log record, a group frame of the acknowledged
// nodes with their blocks; they differ only in how the nodes are
// admitted to the engine. Spans use the wall clock, not s.now: an
// injected test clock would break span containment, and traces describe
// real time anyway.
type job struct {
	tr    *trace.Active
	tid   string
	batch bool // the /batch route
	nodes []store.PushNode
}

// Session is one live push stream: the engine (an oms.Session) and the
// turn that serializes all engine access. A session's jobs run one at a
// time in arrival order, each on its caller's goroutine, so assignments
// are deterministic in ingest order even with many sessions sharing the
// pool — and "finish happens after all acknowledged ingest" holds by
// arrival order.
type Session struct {
	ID      string
	Created time.Time

	eng  *oms.Session
	spec store.CreateSpec

	// turn holds one token while a job of the session waits for a slot
	// or runs; a channel queues blocked senders in arrival order.
	turn      chan struct{}
	closed    atomic.Bool // evicted, deleted or faulted; rejects new work
	lastTouch atomic.Int64

	// log is the session's durable record log, nil when the manager has
	// no store. The running job appends each accepted push before the
	// chunk is acknowledged.
	log store.SessionLog
	// lastStatsRev is the estimator revision last logged as a durable
	// stats-revision record (adaptive sessions only; running job only).
	lastStatsRev int64
	// store is the manager's store, nil without one; stream reads the
	// session's durable log back through it.
	store store.Store

	// Adaptive growth accounting: charged is the node footprint this
	// session holds against the manager's aggregate budget (the
	// declared/hinted n at creation, ratcheted up with observed
	// coverage); reserve/release move the shared budget. charged is
	// atomic because removal paths read it outside the session's turn.
	charged atomic.Int64
	nodeCap int32
	reserve func(int64) error
	release func(int64)

	finished atomic.Bool
	result   *oms.Result // set by the job that seals the session
	summary  *Summary

	// ledger holds the session's refined result versions.
	ledger *refine.Ledger

	m   *serviceMetrics
	ev  *telemetry.Logger
	now func() time.Time
}

// Summary is the finish response: global facts of the sealed stream,
// plus stream-computed quality metrics when the session records.
type Summary struct {
	ID       string   `json:"id"`
	K        int32    `json:"k"`
	N        int32    `json:"n"`
	Assigned int32    `json:"assigned"`
	Lmax     int64    `json:"lmax"`
	EdgeCut  *int64   `json:"edge_cut,omitempty"`
	Balance  *float64 `json:"imbalance,omitempty"`
	// Adaptive reconciles an open-ended session against its true
	// totals: what was actually observed, and how far the final
	// projection overshot it.
	Adaptive *AdaptiveSummary `json:"adaptive,omitempty"`
}

// AdaptiveSummary is the finish-time reconciliation report of an
// adaptive session.
type AdaptiveSummary struct {
	ObservedN          int32   `json:"observed_n"`
	ObservedM          int64   `json:"observed_m"`
	ObservedNodeWeight int64   `json:"observed_node_weight"`
	ObservedEdgeWeight int64   `json:"observed_edge_weight"`
	StatsRevisions     int64   `json:"stats_revisions"`
	EstimateErrN       float64 `json:"estimate_err_n"`
	EstimateErrW       float64 `json:"estimate_err_w"`
}

func (s *Session) touch(now time.Time) { s.lastTouch.Store(now.UnixNano()) }

// idleSince returns the instant of the session's last client activity.
func (s *Session) idleSince() time.Time { return time.Unix(0, s.lastTouch.Load()) }

// K returns the session's block count.
func (s *Session) K() int32 { return s.eng.K() }

// Lmax returns the session's balance threshold.
func (s *Session) Lmax() int64 { return s.eng.Lmax() }

// Finished reports whether the finish job has run.
func (s *Session) Finished() bool { return s.finished.Load() }

// Result returns the sealed result, or an error before finish.
func (s *Session) Result() (*oms.Result, error) {
	if !s.finished.Load() {
		return nil, fmt.Errorf("%w: %s", ErrNotFinished, s.ID)
	}
	return s.result, nil
}

// begin starts one job of the session on the caller's goroutine: it
// takes the session's turn, then one of the pool's slots, each in
// arrival order. A job whose ctx ends, or whose pool closes, while it
// waits never starts, and one whose session died meanwhile fails with
// ErrGone. On success the caller runs the job to completion, whatever
// happens to ctx, and then calls end. Every job refreshes the TTL, so a
// session stays alive while a long single-request upload is actively
// delivering chunks.
func (s *Session) begin(ctx context.Context, p *Pool) (job, error) {
	if s.closed.Load() {
		return job{}, errGone(s.ID)
	}
	at := s.now()
	s.touch(at)
	j := job{tr: trace.FromContext(ctx)}
	var wallAt time.Time
	if j.tr != nil {
		wallAt = time.Now()
	}
	select {
	case s.turn <- struct{}{}:
	default:
		// The session is busy: count the backpressure stall, then queue
		// behind its earlier jobs.
		s.m.backpressure.Inc()
		if err := s.wait(ctx, p, s.turn, false); err != nil {
			return job{}, err
		}
	}
	select {
	case p.slots <- struct{}{}:
	default:
		if err := s.wait(ctx, p, p.slots, true); err != nil {
			<-s.turn
			return job{}, err
		}
	}
	if s.closed.Load() {
		s.end(p)
		return job{}, errGone(s.ID)
	}
	// The queue wait runs from arrival to job start: turn plus slot.
	j.tid = j.tr.TraceIDString()
	s.m.queueWait.ObserveExemplar(s.now().Sub(at), j.tid)
	if j.tr != nil {
		j.tr.Span("queue", j.tr.Root(), wallAt, time.Since(wallAt))
	}
	return j, nil
}

// wait blocks until ch — the session's turn or a pool slot — takes the
// job's token, counting the job in the pool's backlog (and, waiting for
// a slot, in its run queue) meanwhile.
func (s *Session) wait(ctx context.Context, p *Pool, ch chan<- struct{}, slot bool) error {
	p.backlog.Add(1)
	defer p.backlog.Add(-1)
	if slot {
		p.runqueue.Add(1)
		defer p.runqueue.Add(-1)
	}
	select {
	case ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.quit:
		return errGone(s.ID)
	}
}

// end releases a started job's slot and then its session's turn.
func (s *Session) end(p *Pool) {
	<-p.slots
	<-s.turn
}

// walFailure handles an unrecoverable durability fault: a push the
// engine already accepted could not be logged (or flushed), so a client
// retry would be acknowledged without ever reaching the log. The only
// honest response is to kill the session — the chunk fails, new work is
// rejected, and the janitor eventually collects it.
func (s *Session) walFailure(op string, err error, traceID string) error {
	s.m.walErrors.Inc()
	s.closed.Store(true)
	fields := map[string]any{
		"session": s.ID,
		"op":      op,
		"error":   err.Error(),
	}
	if traceID != "" {
		fields["trace_id"] = traceID
	}
	s.ev.Emit(telemetry.EventSessionFault, fields)
	return fmt.Errorf("%w: session %s wal %s (session closed): %w", ErrDurability, s.ID, op, err)
}

// closeLog releases the session's durable log, if any.
func (s *Session) closeLog() {
	if s.log != nil {
		_ = s.log.Close()
	}
}

// Ingest runs one chunk as a job of the session and returns its
// per-node assignments. The error is non-nil if any node in the chunk
// was rejected; assignments of the nodes before the offending one are
// still returned.
func (s *Session) Ingest(ctx context.Context, p *Pool, nodes []store.PushNode) ([]int32, error) {
	return s.ingestJob(ctx, p, false, nodes)
}

// IngestBatch runs one batch as a job of the session and returns its
// per-node assignments. Unlike Ingest, the batch is admitted atomically
// (a rejection applies nothing) before it is assigned in order.
func (s *Session) IngestBatch(ctx context.Context, p *Pool, nodes []store.PushNode) ([]int32, error) {
	return s.ingestJob(ctx, p, true, nodes)
}

// ingestJob runs one ingest job on the caller's goroutine. It returns
// only once the job has run or is known never to run, so nodes — and
// everything their Adj, EW and Frame slices alias — are the caller's
// again as soon as it returns, error or not.
func (s *Session) ingestJob(ctx context.Context, p *Pool, batch bool, nodes []store.PushNode) ([]int32, error) {
	j, err := s.begin(ctx, p)
	if err != nil {
		return nil, err
	}
	defer s.end(p)
	j.batch, j.nodes = batch, nodes
	return s.runIngest(j)
}

// Finish runs the sealing job and returns the summary. Retry-safe like
// ingest: a client that lost the finish response gets the stored
// summary back.
func (s *Session) Finish(ctx context.Context, p *Pool) (*Summary, error) {
	j, err := s.begin(ctx, p)
	if err != nil {
		return nil, err
	}
	defer s.end(p)
	if !s.finished.Load() {
		if err := s.seal(true, j.tid); err != nil {
			return nil, err
		}
		s.m.sessionsFinished.Inc()
		fields := map[string]any{
			"session":     s.ID,
			"k":           s.summary.K,
			"assigned":    s.summary.Assigned,
			"lifetime_ms": s.now().Sub(s.Created).Milliseconds(),
		}
		if s.summary.EdgeCut != nil {
			fields["edge_cut"] = *s.summary.EdgeCut
		}
		if j.tid != "" {
			fields["trace_id"] = j.tid
		}
		s.ev.Emit(telemetry.EventSessionSealed, fields)
	}
	return s.summary, nil
}

// seal finishes the engine and stores the sealed result and summary.
// Persisted adaptive sessions reconcile the partition over the sealed
// log first: one sequential retract-and-reassign pass under the
// now-exact capacities (Record sessions already ran it inside Finish,
// over their in-memory buffer). The pass is deterministic given the
// log, so recovery — which seals again from the replayed engine —
// reproduces the acknowledged result byte for byte. A live finish
// (live) also seals the log, before the summary is acked, so a restart
// rebuilds the sealed result instead of offering an unsealed resume;
// there a log failure kills the session like any WAL fault, since the
// store could not reproduce the finish.
func (s *Session) seal(live bool, tid string) error {
	fail := func(op string, err error) error {
		if live {
			return s.walFailure(op, err, tid)
		}
		return fmt.Errorf("seal %s: %w", op, err)
	}
	res, err := s.eng.Finish()
	if err != nil {
		return err
	}
	if live && s.log != nil {
		if err := s.log.Seal(); err != nil {
			return fail("seal", err)
		}
	}
	if s.eng.Adaptive() && !s.spec.Record && s.store != nil {
		src, err := s.stream()
		if err != nil {
			return fail("replay", err)
		}
		if res, err = s.eng.RestreamFrom(src, 1); err != nil {
			return fail("reconcile", err)
		}
	}
	s.result = res
	s.summary = s.summarize(res)
	if s.summary.EdgeCut != nil {
		s.ledger.SetBaseline(*s.summary.EdgeCut)
	}
	s.finished.Store(true)
	return nil
}

// stream opens the session's replayable stream: the durable log when the
// server persists sessions, else the session's own record buffer.
// ErrNoStream reports that neither was kept.
func (s *Session) stream() (oms.Source, error) {
	if s.store != nil {
		return s.store.ReplaySource(s.ID)
	}
	if src := s.eng.Source(); src != nil {
		return src, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoStream, s.ID)
}

// admitted is what one ingest job did to the engine — a value local to
// the job, not session state.
type admitted struct {
	// blocks are the assignments to acknowledge, aligned with the job's
	// nodes: all of them, or on /nodes the prefix before a rejection.
	blocks []int32
	// fresh counts the nodes this job assigned for the first time. A job
	// of idempotent re-pushes changed no state, so only a job with fresh
	// assignments is worth a log record.
	fresh int
	// err is the engine's rejection, if any.
	err error
}

// admitEach is the /nodes admission: sequential pushes that stop at the
// first rejection, keeping the accepted prefix.
func (s *Session) admitEach(nodes []store.PushNode) (a admitted) {
	a.blocks = make([]int32, 0, len(nodes))
	before := s.eng.Assigned()
	for i := range nodes {
		nd := &nodes[i]
		w := nd.W
		if w == 0 {
			w = 1
		}
		b, err := s.eng.Push(nd.U, w, nd.Adj, nd.EW)
		if err != nil {
			a.err = err
			break
		}
		a.blocks = append(a.blocks, b)
	}
	a.fresh = int(s.eng.Assigned() - before)
	return a
}

// admitBatch is the /batch admission: the whole batch or none of it,
// assigned in order.
func (s *Session) admitBatch(nodes []store.PushNode) (a admitted) {
	batch := make([]oms.Node, len(nodes))
	for i := range nodes {
		batch[i] = oms.Node{U: nodes[i].U, W: nodes[i].W, Adj: nodes[i].Adj, EW: nodes[i].EW}
	}
	before := s.eng.Assigned()
	a.blocks, a.err = s.eng.PushBatch(batch)
	a.fresh = int(s.eng.Assigned() - before)
	return a
}

// runIngest executes one started ingest job: reserve the growth, admit
// the nodes to the engine, log what it acknowledges, and only then
// acknowledge. The whole job is assigned before anything is appended —
// the ack is at job end, so log-before-ack holds either way — which
// makes engine time and log time one interval each.
func (s *Session) runIngest(j job) ([]int32, error) {
	if err := s.chargeGrowth(j.nodes); err != nil {
		s.m.pushErrors.Inc()
		return nil, err
	}
	defer s.settleGrowth()
	var wall time.Time
	if j.tr != nil {
		wall = time.Now()
	}
	t0 := s.now()
	var a admitted
	if j.batch {
		a = s.admitBatch(j.nodes)
	} else {
		a = s.admitEach(j.nodes)
	}
	s.m.assign.ObserveExemplar(s.now().Sub(t0), j.tid)
	if j.tr != nil {
		j.tr.Span("assign", j.tr.Root(), wall, time.Since(wall))
	}
	if a.err != nil {
		s.m.pushErrors.Inc()
	}
	if s.log != nil {
		if err := s.logIngest(j, a); err != nil {
			return nil, err
		}
	}
	var edges int64
	for i := range a.blocks {
		edges += int64(len(j.nodes[i].Adj))
	}
	s.m.nodesIngested.Add(int64(len(a.blocks)))
	s.m.edgesIngested.Add(edges)
	if j.batch {
		s.m.batchesIngested.Inc()
	} else {
		s.m.chunksIngested.Inc()
	}
	return a.blocks, a.err
}

// logIngest is the durable half of an ingest job: append one group
// frame of the acknowledged nodes with their blocks, so recovery replays
// the decisions themselves, and, when the estimator advanced, its stats
// revision; then one write-through. Nodes the job re-pushed ride along
// in the frame (replay is idempotent), but a job that assigned nothing
// new — a rejected batch, a pure-duplicate retry — touches neither the
// log nor the disk. A job that ends in a rejection after an accepted
// prefix flushes like any other: the prefix is about to be
// acknowledged, and after any ack a process crash loses nothing, an OS
// crash at most the batched-fsync window. Any failure here kills the
// session.
func (s *Session) logIngest(j job, a admitted) error {
	var wall time.Time
	if j.tr != nil {
		wall = time.Now()
	}
	wrote := a.fresh > 0
	var err error
	if wrote {
		err = s.log.AppendBatch(j.nodes[:len(a.blocks)], a.blocks)
	}
	if err == nil && a.err == nil {
		var stats bool
		stats, err = s.maybeLogStats()
		wrote = wrote || stats
	}
	if err != nil {
		return s.walFailure("append", err, j.tid)
	}
	if !wrote {
		return nil
	}
	s.m.walRecords.Add(int64(a.fresh))
	if j.tr != nil {
		d := time.Since(wall)
		j.tr.Span("wal.append", j.tr.Root(), wall, d)
		s.m.walAppend.AttachExemplar(d, j.tid)
		wall = time.Now()
	}
	err = s.log.Flush()
	if j.tr != nil {
		d := time.Since(wall)
		j.tr.Span("wal.fsync", j.tr.Root(), wall, d)
		s.m.walFsync.AttachExemplar(d, j.tid)
	}
	if err != nil {
		return s.walFailure("flush", err, j.tid)
	}
	return nil
}

// chargeGrowth reserves the coverage a chunk or batch is about to add
// to an adaptive session before the engine grows: nodes and neighbors
// up to the job's highest id, clamped to the server's per-session cap
// (ids beyond it are rejected by the engine, not grown). A rejection
// applies nothing — the whole job fails with the budget error. No-op
// for declared sessions, whose footprint was admitted up front.
// Charged-nodes protocol: charged is this session's contribution to
// the manager's liveNodes. The running job moves it up (chargeGrowth)
// and down (settleGrowth); removal (Delete/EvictIdle) swaps it to zero
// and subtracts exactly what it took. Removal sets closed *before* the
// swap, and the job re-checks closed *after* its add and settles by
// compare-and-swap, so every reserved node is subtracted exactly once
// no matter how a removal interleaves with an in-flight job.
func (s *Session) chargeGrowth(nodes []store.PushNode) error {
	if s.reserve == nil || !s.eng.Adaptive() {
		return nil
	}
	if s.closed.Load() {
		return errGone(s.ID)
	}
	hi := int32(-1)
	for i := range nodes {
		if nodes[i].U > hi {
			hi = nodes[i].U
		}
		for _, nb := range nodes[i].Adj {
			if nb > hi {
				hi = nb
			}
		}
	}
	if hi >= s.nodeCap {
		hi = s.nodeCap - 1
	}
	need := int64(hi+1) - s.charged.Load()
	if need <= 0 {
		return nil
	}
	if err := s.reserve(need); err != nil {
		return err
	}
	s.charged.Add(need)
	if s.closed.Load() {
		// A removal ran between the closed check and the add: it took
		// whatever charge it saw; whatever remains (ours) is released
		// here, and the job fails like any post-removal work.
		s.release(s.charged.Swap(0))
		return errGone(s.ID)
	}
	return nil
}

// settleGrowth returns whatever chargeGrowth over-reserved (a rejected
// tail of the job never grew the engine), never dropping below the
// admission-time charge (the hinted n). CAS against the removal swap:
// if a concurrent Delete/eviction zeroed the charge, there is nothing
// left for the job to release.
func (s *Session) settleGrowth() {
	if s.release == nil || !s.eng.Adaptive() {
		return
	}
	target := int64(s.eng.Coverage())
	if target < int64(s.spec.N) {
		target = int64(s.spec.N)
	}
	for {
		cur := s.charged.Load()
		over := cur - target
		if over <= 0 {
			return
		}
		if s.charged.CompareAndSwap(cur, target) {
			s.release(over)
			return
		}
	}
}

// maybeLogStats appends a durable stats-revision record when the
// adaptive estimator advanced since the last one, reporting whether it
// did (never for declared sessions, whose revision stays 0). Running
// job only, like every log append.
func (s *Session) maybeLogStats() (bool, error) {
	rev := s.eng.StatsRevision()
	if rev == s.lastStatsRev {
		return false, nil
	}
	st, ok := s.eng.EstimatorSnapshot()
	if !ok {
		return false, nil
	}
	if err := s.log.AppendStats(st); err != nil {
		return false, err
	}
	s.lastStatsRev = rev
	s.m.statsRevisions.Inc()
	return true, nil
}

// VersionedResult is one served result version: the one-pass result
// (version 0) or a published refinement. EdgeCut is nil when it was
// never measured (version 0 of a session that does not record its
// stream).
type VersionedResult struct {
	Version int32
	Pass    int32
	EdgeCut *int64
	Parts   []int32
	K       int32
	Lmax    int64
}

// ResultVersion serves one result version by selector: "" or "0" is the
// one-pass result, "latest" the newest published version (falling back
// to 0), "best" the lowest-cut version, and a positive integer that
// exact published version. Published versions are immutable, so repeated
// reads of the same selector value are byte-stable.
func (s *Session) ResultVersion(sel string) (*VersionedResult, error) {
	base, err := s.Result()
	if err != nil {
		return nil, err
	}
	var n int32
	switch sel {
	case "", "onepass":
	case "latest":
		n = s.ledger.Latest()
	case "best":
		n = s.ledger.Best()
	default:
		// 32-bit parse: a selector beyond int32 must be a clean error,
		// not a silent wrap onto an existing version.
		v, err := strconv.ParseInt(sel, 10, 32)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("service: bad version selector %q (want a number, latest, or best)", sel)
		}
		n = int32(v)
	}
	if n == 0 {
		// Version 0 reports only the finish-summary cut (recomputed
		// identically after recovery); the cut a refine job measures is
		// not served, and including it would make the version-0 body
		// differ across a restart.
		return &VersionedResult{EdgeCut: s.summary.EdgeCut, Parts: base.Parts, K: base.K, Lmax: base.Lmax}, nil
	}
	v, err := s.ledger.Get(n)
	if err != nil {
		if !errors.Is(err, refine.ErrNoVersion) {
			err = fmt.Errorf("%w: %w", ErrDurability, err)
		}
		return nil, err
	}
	return &VersionedResult{Version: v.Version, Pass: v.Pass, EdgeCut: &v.EdgeCut, Parts: v.Parts, K: s.K(), Lmax: s.Lmax()}, nil
}

// summarize builds the finish summary; for recording sessions it replays
// the recorded stream to compute the edge cut and imbalance. Each
// undirected edge is counted once via the nb > u endpoint, exact under
// the paper's stream model where every node arrives with its full
// adjacency list.
func (s *Session) summarize(res *oms.Result) *Summary {
	sum := &Summary{
		ID:       s.ID,
		K:        res.K,
		N:        int32(len(res.Parts)),
		Assigned: s.eng.Assigned(),
		Lmax:     res.Lmax,
	}
	if info, ok := s.eng.AdaptiveInfo(); ok {
		sum.Adaptive = &AdaptiveSummary{
			ObservedN:          info.Observed.N,
			ObservedM:          info.Observed.M,
			ObservedNodeWeight: info.Observed.TotalNodeWeight,
			ObservedEdgeWeight: info.Observed.TotalEdgeWeight,
			StatsRevisions:     info.Revision,
			EstimateErrN:       info.EstimateErrN,
			EstimateErrW:       info.EstimateErrW,
		}
	}
	src := s.eng.Source()
	if src == nil {
		return sum
	}
	var cut int64
	loads := make([]int64, res.K)
	var total int64
	_ = src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		loads[res.Parts[u]] += int64(vwgt)
		total += int64(vwgt)
		for i, nb := range adj {
			if nb <= u || res.Parts[nb] < 0 || res.Parts[nb] == res.Parts[u] {
				continue
			}
			if ewgt != nil {
				cut += int64(ewgt[i])
			} else {
				cut++
			}
		}
	})
	sum.EdgeCut = &cut
	if total > 0 {
		var maxLoad int64
		for _, l := range loads {
			if l > maxLoad {
				maxLoad = l
			}
		}
		imb := float64(maxLoad)*float64(res.K)/float64(total) - 1
		sum.Balance = &imb
	}
	return sum
}
