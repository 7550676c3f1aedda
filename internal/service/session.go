package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oms"
	"oms/internal/telemetry"
	"oms/internal/trace"
)

// PushNode is one node of an ingest chunk: id, weight (0 means 1), the
// adjacency list, and optional parallel edge weights.
type PushNode struct {
	U   int32   `json:"u"`
	W   int32   `json:"w,omitempty"`
	Adj []int32 `json:"adj"`
	EW  []int32 `json:"ew,omitempty"`
	// Frame, when set, is the node's canonical wire v2 frame exactly as
	// it was validated at the ingest boundary (both the binary path and
	// the NDJSON shim fill it). The WAL appends it verbatim — the bytes
	// the client sent are the bytes the log holds, no re-marshal. The
	// slice may alias a per-request arena: it is valid only until the
	// ingest job is acknowledged.
	Frame []byte `json:"-"`
}

// jobKind discriminates the work items flowing through a session queue.
type jobKind int

const (
	jobChunk jobKind = iota
	jobBatch
	jobFinish
)

// job is one queued unit of session work. Chunks and batches carry
// nodes; a finish job seals the session after every chunk queued before
// it, so "finish happens after all acknowledged ingest" holds by queue
// order. A batch differs from a chunk in execution, not queueing: the
// owning worker fans it out over the session engine's parallel
// assignment workers and group-commits it as one WAL frame.
type job struct {
	kind  jobKind
	nodes []PushNode
	done  chan jobResult
	// at is the enqueue instant; the worker observes dequeue-at minus
	// at into the queue-wait histogram (backpressure as a distribution,
	// not just a stall counter).
	at time.Time
	// tr is the submitting request's in-flight trace (nil on the
	// sampled-out path — every use is nil-safe), and wallAt the real-
	// clock enqueue instant its queue-wait span starts at. Spans use the
	// wall clock, not s.now: an injected test clock would break span
	// containment, and traces describe real time anyway.
	tr     *trace.Active
	wallAt time.Time
}

// jobResult carries a processed job's outcome back to the enqueuer.
type jobResult struct {
	blocks []int32     // per chunk node, aligned with job.nodes
	result *oms.Result // finish only
	err    error
}

// Session is one live push stream: the engine (an oms.Session), a
// bounded ingest queue, and the scheduling state the worker pool uses to
// serialize all engine access. Exactly one worker drains a session at a
// time, so assignments are deterministic in ingest order even with many
// sessions multiplexed over the pool.
type Session struct {
	ID      string
	Created time.Time

	eng  *oms.Session
	spec CreateSpec

	jobs      chan job
	scheduled atomic.Bool // true while queued for or held by a worker
	closed    atomic.Bool // evicted or deleted; rejects new work
	lastTouch atomic.Int64

	// log is the session's durable record log, nil when the manager has
	// no store. The owning worker appends each accepted push before the
	// chunk is acknowledged and checkpoints engine state every
	// snapEvery fresh records (never for Record sessions, whose replay
	// buffer a checkpoint cannot restore).
	log       SessionLog
	snapEvery int
	sinceSnap int // fresh records since the last checkpoint
	// lastStatsRev is the estimator revision last logged as a durable
	// stats-revision record (adaptive sessions only; owning worker
	// only).
	lastStatsRev int64
	// replay opens a read-only stream over the session's durable log;
	// nil without a store. The finish path of adaptive sessions uses it
	// for the reconcile pass.
	replay func() (oms.Source, error)

	// Adaptive growth accounting: charged is the node footprint this
	// session holds against the manager's aggregate budget (the
	// declared/hinted n at creation, ratcheted up with observed
	// coverage); reserve/release move the shared budget. charged is
	// atomic because removal paths read it off-worker.
	charged atomic.Int64
	nodeCap int32
	reserve func(int64) error
	release func(int64)

	finished atomic.Bool
	result   *oms.Result // set by the worker executing the finish job
	summary  *Summary

	// verMu guards the refinement state below. Versions are append-only
	// and immutable once published; readers (result serving, status)
	// take the read lock, the single active refine job the write lock.
	verMu      sync.RWMutex
	versions   []RefinedVersion
	onePassCut *int64 // measured against the recorded stream at refine start

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

// enqueue hands a job to the session queue, blocking for backpressure
// when the queue is full, and wakes the pool if the session is idle.
// Every enqueue refreshes the TTL, so a session stays alive while a
// long single-request upload is actively delivering chunks.
func (s *Session) enqueue(ctx context.Context, p *Pool, j job) error {
	if s.closed.Load() {
		return errGone(s.ID)
	}
	j.at = s.now()
	s.touch(j.at)
	select {
	case s.jobs <- j:
	default:
		// Full queue: count the backpressure stall, then block until the
		// workers drain a slot or the client gives up.
		s.m.backpressure.Inc()
		select {
		case s.jobs <- j:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if s.scheduled.CompareAndSwap(false, true) {
		p.submit(s)
	}
	if s.closed.Load() {
		// Manager.Close may have drained the queue between our closed
		// check and the send landing; fail out whatever is queued
		// (possibly our own job) so no enqueuer is stranded. Seeing
		// closed==false above guarantees the send preceded the drain.
		s.failPending()
	}
	return nil
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

// failPending drains the session queue and fails every job out. Jobs
// race one receiver each (a worker or this drain), so each is run or
// failed exactly once.
func (s *Session) failPending() {
	for {
		select {
		case j := <-s.jobs:
			j.done <- jobResult{err: errGone(s.ID)}
		default:
			return
		}
	}
}

// Ingest queues one chunk and waits for its per-node assignments. The
// error is non-nil if any node in the chunk was rejected; assignments of
// the nodes before the offending one are still returned.
func (s *Session) Ingest(ctx context.Context, p *Pool, nodes []PushNode) ([]int32, error) {
	return s.ingestJob(ctx, p, jobChunk, nodes)
}

// IngestBatch queues one parallel batch and waits for its per-node
// assignments. Unlike Ingest, the batch is admitted atomically (a
// rejection applies nothing) and assigned across the session engine's
// parallel workers; its durable record is one group-committed WAL
// frame.
func (s *Session) IngestBatch(ctx context.Context, p *Pool, nodes []PushNode) ([]int32, error) {
	return s.ingestJob(ctx, p, jobBatch, nodes)
}

func (s *Session) ingestJob(ctx context.Context, p *Pool, kind jobKind, nodes []PushNode) ([]int32, error) {
	done := make(chan jobResult, 1)
	j := job{kind: kind, nodes: nodes, done: done}
	if j.tr = trace.FromContext(ctx); j.tr != nil {
		j.wallAt = time.Now()
	}
	if err := s.enqueue(ctx, p, j); err != nil {
		return nil, err
	}
	select {
	case r := <-done:
		return r.blocks, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Finish queues the sealing job and waits for the summary.
func (s *Session) Finish(ctx context.Context, p *Pool) (*Summary, error) {
	done := make(chan jobResult, 1)
	j := job{kind: jobFinish, done: done}
	if j.tr = trace.FromContext(ctx); j.tr != nil {
		j.wallAt = time.Now()
	}
	if err := s.enqueue(ctx, p, j); err != nil {
		return nil, err
	}
	select {
	case r := <-done:
		if r.err != nil {
			return nil, r.err
		}
		return s.summary, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run executes one queued job on the worker that currently owns the
// session. All engine access happens here, serialized by the pool.
func (s *Session) run(j job) {
	// traced gates every span-side clock read: the untraced path pays
	// nothing beyond the nil checks.
	traced := j.tr != nil
	tid := j.tr.TraceIDString()
	if !j.at.IsZero() {
		s.m.queueWait.ObserveExemplar(s.now().Sub(j.at), tid)
	}
	if traced && !j.wallAt.IsZero() {
		j.tr.Span("queue", j.tr.Root(), j.wallAt, time.Since(j.wallAt))
	}
	switch j.kind {
	case jobChunk:
		if err := s.chargeGrowth(j.nodes); err != nil {
			s.m.pushErrors.Inc()
			j.done <- jobResult{err: err}
			return
		}
		blocks := make([]int32, 0, len(j.nodes))
		var err error
		var assignDur, walDur time.Duration
		var assignStart, walStart time.Time
		// stamp is the clock read that closed the previous push; it opens
		// the next one unless a WAL append ran in between (then it is
		// zeroed and the clock is read again): one read per node.
		var stamp time.Time
		var edges, records int64
		for _, nd := range j.nodes {
			w := nd.W
			if w == 0 {
				w = 1
			}
			before := s.eng.Assigned()
			var b int32
			if traced && assignStart.IsZero() {
				assignStart = time.Now()
			}
			t0 := stamp
			if t0.IsZero() {
				t0 = s.now()
			}
			b, err = s.eng.Push(nd.U, w, nd.Adj, nd.EW)
			stamp = s.now()
			assignDur += stamp.Sub(t0)
			if err != nil {
				s.m.pushErrors.Inc()
				break
			}
			// Log before acking, but only fresh assignments: an
			// idempotent re-push of an already-assigned node changed no
			// state, and replay is idempotent anyway, so duplicates
			// would only bloat the log.
			if s.log != nil && s.eng.Assigned() > before {
				var wt time.Time
				if traced {
					wt = time.Now()
					if walStart.IsZero() {
						walStart = wt
					}
				}
				var lerr error
				if nd.Frame != nil {
					// The validated request bytes are the log record:
					// append them verbatim instead of re-encoding the
					// adjacency the decoder just walked.
					lerr = s.log.AppendNodeFrame(nd.Frame)
				} else {
					lerr = s.log.AppendNode(nd.U, w, nd.Adj, nd.EW)
				}
				if traced {
					walDur += time.Since(wt)
				}
				if lerr != nil {
					err = s.walFailure("append", lerr, tid)
					break
				}
				records++
				s.sinceSnap++
				stamp = time.Time{}
			}
			blocks = append(blocks, b)
			edges += int64(len(nd.Adj))
		}
		s.m.nodesIngested.Add(int64(len(blocks)))
		s.m.edgesIngested.Add(edges)
		s.m.walRecords.Add(records)
		if err == nil {
			if lerr := s.maybeLogStats(); lerr != nil {
				err = s.walFailure("append", lerr, tid)
				blocks = nil
			}
		}
		if s.log != nil {
			// One write-through per chunk — even a chunk that ends in a
			// rejection, whose earlier nodes were accepted and are about
			// to be acknowledged: after any ack a process crash loses
			// nothing, an OS crash at most the batched-fsync window.
			var ft time.Time
			if traced {
				ft = time.Now()
			}
			lerr := s.log.Flush()
			if traced {
				fd := time.Since(ft)
				j.tr.Span("wal.fsync", j.tr.Root(), ft, fd)
				s.m.walFsync.AttachExemplar(fd, tid)
			}
			if lerr != nil {
				err = s.walFailure("flush", lerr, tid)
				blocks = nil
			}
		}
		if err == nil {
			s.snapshotSpan(j)
		}
		s.settleGrowth()
		s.m.chunksIngested.Inc()
		s.m.assign.ObserveExemplar(assignDur, tid)
		if traced {
			if !assignStart.IsZero() {
				j.tr.Span("assign", j.tr.Root(), assignStart, assignDur)
			}
			if !walStart.IsZero() {
				j.tr.Span("wal.append", j.tr.Root(), walStart, walDur)
				s.m.walAppend.AttachExemplar(walDur, tid)
			}
		}
		j.done <- jobResult{blocks: blocks, err: err}
	case jobBatch:
		j.done <- s.runBatch(j)
	case jobFinish:
		if s.finished.Load() {
			// Retry-safe like ingest: a client that lost the finish
			// response gets the stored summary back.
			j.done <- jobResult{result: s.result}
			return
		}
		res, err := s.eng.Finish()
		if err != nil {
			j.done <- jobResult{err: err}
			return
		}
		if s.log != nil {
			// Seal before acking the summary, so a restart rebuilds the
			// sealed result instead of offering an unsealed resume. A
			// seal failure must not ack a finish the store cannot
			// reproduce — it kills the session like any WAL fault.
			if lerr := s.log.Seal(); lerr != nil {
				j.done <- jobResult{err: s.walFailure("seal", lerr, tid)}
				return
			}
		}
		// Persisted adaptive sessions reconcile the partition over the
		// sealed log: one sequential retract-and-reassign pass under
		// the now-exact capacities (Record sessions already ran it
		// inside Finish, over their in-memory buffer). Deterministic
		// given the sealed log, so recovery reproduces the same result.
		if s.eng.Adaptive() && !s.spec.Record && s.replay != nil {
			src, rerr := s.replay()
			if rerr != nil {
				j.done <- jobResult{err: s.walFailure("replay", rerr, tid)}
				return
			}
			if res, err = s.eng.ReconcilePass(src); err != nil {
				j.done <- jobResult{err: s.walFailure("reconcile", err, tid)}
				return
			}
		}
		s.result = res
		s.summary = s.summarize(res)
		s.finished.Store(true)
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
		if tid != "" {
			fields["trace_id"] = tid
		}
		s.ev.Emit(telemetry.EventSessionSealed, fields)
		j.done <- jobResult{result: res}
	}
}

// runBatch executes one batch job on the owning worker: normalize
// weights, fan the batch out over the engine's parallel assignment
// workers, then group-commit it to the WAL as a single frame carrying
// the assigned blocks — logged before the ack, like every push.
func (s *Session) runBatch(j job) jobResult {
	nodes := j.nodes
	traced := j.tr != nil
	tid := j.tr.TraceIDString()
	if err := s.chargeGrowth(nodes); err != nil {
		s.m.pushErrors.Inc()
		return jobResult{err: err}
	}
	defer s.settleGrowth()
	batch := make([]oms.Node, len(nodes))
	for i := range nodes {
		if nodes[i].W == 0 {
			nodes[i].W = 1
		}
		batch[i] = oms.Node{U: nodes[i].U, W: nodes[i].W, Adj: nodes[i].Adj, EW: nodes[i].EW}
	}
	before := s.eng.Assigned()
	var at time.Time
	if traced {
		at = time.Now()
	}
	t0 := s.now()
	blocks, err := s.eng.PushBatch(batch)
	assignDur := s.now().Sub(t0)
	s.m.assign.ObserveExemplar(assignDur, tid)
	if traced {
		j.tr.Span("assign", j.tr.Root(), at, time.Since(at))
	}
	if err != nil {
		// Batches are atomic: a rejection applied nothing and logged
		// nothing, so there is nothing to flush either.
		s.m.pushErrors.Inc()
		return jobResult{err: err}
	}
	fresh := int(s.eng.Assigned() - before)
	if s.log != nil && fresh > 0 {
		// One frame, one flush for the whole group. A batch with no
		// fresh assignments (an idempotent client retry) skips the log
		// entirely — replaying it would change nothing.
		var wt time.Time
		if traced {
			wt = time.Now()
		}
		lerr := s.log.AppendBatch(nodes, blocks)
		if lerr == nil {
			lerr = s.maybeLogStats()
		}
		if traced {
			wd := time.Since(wt)
			j.tr.Span("wal.append", j.tr.Root(), wt, wd)
			s.m.walAppend.AttachExemplar(wd, tid)
		}
		if lerr != nil {
			return jobResult{err: s.walFailure("append", lerr, tid)}
		}
		var ft time.Time
		if traced {
			ft = time.Now()
		}
		lerr = s.log.Flush()
		if traced {
			fd := time.Since(ft)
			j.tr.Span("wal.fsync", j.tr.Root(), ft, fd)
			s.m.walFsync.AttachExemplar(fd, tid)
		}
		if lerr != nil {
			return jobResult{err: s.walFailure("flush", lerr, tid)}
		}
		s.m.walRecords.Add(int64(fresh))
		s.sinceSnap += fresh
		s.snapshotSpan(j)
	}
	for i := range nodes {
		s.m.edgesIngested.Add(int64(len(nodes[i].Adj)))
	}
	s.m.nodesIngested.Add(int64(len(nodes)))
	s.m.batchesIngested.Inc()
	return jobResult{blocks: blocks}
}

// chargeGrowth reserves the coverage a chunk or batch is about to add
// to an adaptive session before the engine grows: nodes and neighbors
// up to the job's highest id, clamped to the server's per-session cap
// (ids beyond it are rejected by the engine, not grown). A rejection
// applies nothing — the whole job fails with the budget error. No-op
// for declared sessions, whose footprint was admitted up front.
// Charged-nodes protocol: charged is this session's contribution to
// the manager's liveNodes. The owning worker moves it up (chargeGrowth)
// and down (settleGrowth); removal (Delete/EvictIdle) swaps it to zero
// and subtracts exactly what it took. Removal sets closed *before* the
// swap, and the worker re-checks closed *after* its add and settles by
// compare-and-swap, so every reserved node is subtracted exactly once
// no matter how a removal interleaves with an in-flight job.
func (s *Session) chargeGrowth(nodes []PushNode) error {
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
// left for the worker to release.
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
// adaptive estimator advanced since the last one (no-op for declared
// sessions, whose revision stays 0). Owning worker only, like every
// log append.
func (s *Session) maybeLogStats() error {
	if s.log == nil {
		return nil
	}
	rev := s.eng.StatsRevision()
	if rev == s.lastStatsRev {
		return nil
	}
	st, ok := s.eng.EstimatorSnapshot()
	if !ok {
		return nil
	}
	if err := s.log.AppendStats(st); err != nil {
		return err
	}
	s.lastStatsRev = rev
	s.m.statsRevisions.Inc()
	return nil
}

// maybeSnapshot checkpoints the engine when enough fresh records have
// accumulated since the last checkpoint, reporting whether it wrote
// one. Failures are non-fatal: replay covers the gap. Record sessions
// never checkpoint (their replay buffer cannot be restored from one).
func (s *Session) maybeSnapshot() bool {
	if s.log == nil || s.snapEvery <= 0 || s.sinceSnap < s.snapEvery || s.spec.Record {
		return false
	}
	if serr := s.log.Snapshot(s.eng.ExportState()); serr != nil {
		s.m.walErrors.Inc()
		return false
	}
	s.m.walSnapshots.Inc()
	s.sinceSnap = 0
	return true
}

// snapshotSpan runs maybeSnapshot, recording a checkpoint span on the
// job's trace when one was actually written.
func (s *Session) snapshotSpan(j job) {
	if j.tr == nil {
		s.maybeSnapshot()
		return
	}
	t0 := time.Now()
	if s.maybeSnapshot() {
		j.tr.Span("checkpoint", j.tr.Root(), t0, time.Since(t0))
	}
}

// ErrNoVersion reports a result version that does not exist (never
// published, or not yet published).
var ErrNoVersion = fmt.Errorf("service: no such result version")

// VersionedResult is one served result version: the one-pass result
// (version 0) or a published refinement. EdgeCut is nil when it was
// never measured (version 0 of a session that has not been refined and
// does not record its stream).
type VersionedResult struct {
	Version int32
	Pass    int32
	EdgeCut *int64
	Parts   []int32
	K       int32
	Lmax    int64
}

// nextVersion returns the number the next published version will get.
func (s *Session) nextVersion() int32 {
	s.verMu.RLock()
	defer s.verMu.RUnlock()
	if n := len(s.versions); n > 0 {
		return s.versions[n-1].Version + 1
	}
	return 1
}

// maxResidentVersions bounds how many versions keep their O(n) Parts
// slice in memory (the newest ones, plus the best). Older versions keep
// only their metadata row; a read reloads the assignment from the
// durable version file. Without a store nothing is pruned — there is no
// reload path, and storeless refinement already implies the session
// holds its O(n + m) record buffer.
const maxResidentVersions = 4

// addVersion publishes one refined version (append-only; the single
// active refine job is the only writer).
func (s *Session) addVersion(v RefinedVersion) {
	s.verMu.Lock()
	s.versions = append(s.versions, v)
	s.pruneResidentLocked()
	s.verMu.Unlock()
}

// pruneResidentLocked drops cold versions' in-memory assignment,
// keeping the newest maxResidentVersions and the best version resident.
// Callers hold verMu for writing; pruning only happens with a store to
// reload from.
func (s *Session) pruneResidentLocked() {
	if s.log == nil || len(s.versions) <= maxResidentVersions {
		return
	}
	best := 0
	for i := range s.versions {
		if s.versions[i].EdgeCut < s.versions[best].EdgeCut {
			best = i
		}
	}
	for i := 0; i < len(s.versions)-maxResidentVersions; i++ {
		if i != best {
			s.versions[i].Parts = nil
		}
	}
}

// latestVersion returns a copy of the newest published version, or nil
// before the first publish.
func (s *Session) latestVersion() *RefinedVersion {
	s.verMu.RLock()
	defer s.verMu.RUnlock()
	if n := len(s.versions); n > 0 {
		v := s.versions[n-1]
		return &v
	}
	return nil
}

// setOnePassCut records the one-pass result's measured edge cut.
func (s *Session) setOnePassCut(c int64) {
	s.verMu.Lock()
	s.onePassCut = &c
	s.verMu.Unlock()
}

// restoreVersions installs recovered versions (startup only, before the
// session is visible). The parts-free version-0 record carries the
// one-pass result's measured cut, so "best" keeps comparing against it
// across restarts.
func (s *Session) restoreVersions(vs []RefinedVersion) {
	for _, v := range vs {
		if v.Version == 0 {
			cut := v.EdgeCut
			s.onePassCut = &cut
			continue
		}
		s.versions = append(s.versions, v)
	}
	s.pruneResidentLocked()
}

// VersionInfo is one row of the refine-status version listing.
type VersionInfo struct {
	Version int32 `json:"version"`
	Pass    int32 `json:"pass"`
	EdgeCut int64 `json:"edge_cut"`
}

// VersionList snapshots the published versions' metadata.
func (s *Session) VersionList() []VersionInfo {
	s.verMu.RLock()
	defer s.verMu.RUnlock()
	out := make([]VersionInfo, len(s.versions))
	for i, v := range s.versions {
		out[i] = VersionInfo{Version: v.Version, Pass: v.Pass, EdgeCut: v.EdgeCut}
	}
	return out
}

// OnePassCut returns the measured edge cut of the one-pass result: from
// the finish summary when the session records its stream, else from the
// measurement the first refinement job takes; nil before either.
func (s *Session) OnePassCut() *int64 {
	s.verMu.RLock()
	defer s.verMu.RUnlock()
	if s.onePassCut != nil {
		return s.onePassCut
	}
	if s.summary != nil && s.summary.EdgeCut != nil {
		return s.summary.EdgeCut
	}
	return nil
}

// BestVersion returns the number of the lowest-cut version: the refined
// version with the smallest measured cut, or 0 when none beats the
// one-pass result (ties go to the lower version — fewer passes for the
// same cut). Version 0 competes only when its cut is known; with no
// published versions it wins by default.
func (s *Session) BestVersion() int32 {
	s.verMu.RLock()
	defer s.verMu.RUnlock()
	best := int32(0)
	var bestCut *int64
	if s.onePassCut != nil {
		bestCut = s.onePassCut
	} else if s.summary != nil && s.summary.EdgeCut != nil {
		bestCut = s.summary.EdgeCut
	}
	for i := range s.versions {
		v := &s.versions[i]
		if bestCut == nil || v.EdgeCut < *bestCut {
			best, bestCut = v.Version, &v.EdgeCut
		}
	}
	return best
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
	onePass := func() *VersionedResult {
		// Version 0 reports only the finish-summary cut (recomputed
		// identically after recovery); the cut a refine job measures is
		// not persisted, and including it would make the version-0 body
		// differ across a restart.
		var cut *int64
		if s.summary != nil {
			cut = s.summary.EdgeCut
		}
		return &VersionedResult{Version: 0, Pass: 0, EdgeCut: cut, Parts: base.Parts, K: base.K, Lmax: base.Lmax}
	}
	switch sel {
	case "", "0", "onepass":
		return onePass(), nil
	case "latest":
		s.verMu.RLock()
		n := len(s.versions)
		var want int32
		if n > 0 {
			want = s.versions[n-1].Version
		}
		s.verMu.RUnlock()
		if want == 0 {
			return onePass(), nil
		}
		// Through findVersion like any exact read: recovered versions
		// keep only metadata in memory until a read reloads them.
		return s.findVersion(want)
	case "best":
		want := s.BestVersion()
		if want == 0 {
			return onePass(), nil
		}
		return s.findVersion(want)
	default:
		// 32-bit parse: a selector beyond int32 must be a clean error,
		// not a silent wrap onto an existing version.
		n, err := strconv.ParseInt(sel, 10, 32)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("service: bad version selector %q (want a number, latest, or best)", sel)
		}
		if n == 0 {
			return onePass(), nil
		}
		return s.findVersion(int32(n))
	}
}

// findVersion serves one published version by exact number. Cold
// versions (assignment pruned from memory) are reloaded whole from the
// durable version file.
func (s *Session) findVersion(n int32) (*VersionedResult, error) {
	s.verMu.RLock()
	defer s.verMu.RUnlock()
	for i := range s.versions {
		if s.versions[i].Version != n {
			continue
		}
		v := &s.versions[i]
		cut := v.EdgeCut
		parts := v.Parts
		if parts == nil {
			if s.log == nil {
				return nil, fmt.Errorf("%w: version %d of session %s pruned with no store", ErrDurability, n, s.ID)
			}
			loaded, err := s.log.LoadVersion(n)
			if err != nil {
				return nil, fmt.Errorf("%w: reload version %d of session %s: %w", ErrDurability, n, s.ID, err)
			}
			parts = loaded.Parts
		}
		return &VersionedResult{Version: v.Version, Pass: v.Pass, EdgeCut: &cut, Parts: parts, K: s.K(), Lmax: s.Lmax()}, nil
	}
	return nil, fmt.Errorf("%w: version %d of session %s", ErrNoVersion, n, s.ID)
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
