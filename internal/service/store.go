package service

import "oms"

// RefinedVersion is one published refinement result: the assignment
// after Pass cumulative restream passes over the one-pass result
// (cumulative across jobs — a later job continues the trajectory), with
// its measured edge cut. Versions are immutable once published and
// numbered from 1; version 0 is the session's one-pass result, stored
// only as a parts-free baseline record carrying its measured cut.
type RefinedVersion struct {
	Version int32 `json:"version"`
	Pass    int32 `json:"pass"`
	EdgeCut int64 `json:"edge_cut"`
	// Parts is nil for the version-0 baseline record, and may be nil in
	// the session's in-memory ledger for cold versions whose assignment
	// was pruned to bound memory (it is then reloaded from the store on
	// demand).
	Parts []int32 `json:"-"`
}

// Store is the session-persistence hook of the manager: when configured
// (Config.Store), every created session gets a durable log, accepted
// pushes are logged before they are acknowledged, Finish seals the log,
// and TTL eviction or deletion garbage-collects the persisted state.
// After a restart RecoverSessions rebuilds every stored session from
// the store. The interface is defined here (the consumer); internal/wal
// provides the on-disk implementation omsd wires in with -data-dir.
type Store interface {
	// Create opens a fresh durable log for a session. The spec is
	// persisted alongside so recovery can rebuild the engine with the
	// exact same configuration (OMS replay is deterministic for a fixed
	// config, seed, and stream order).
	Create(id string, spec CreateSpec) (SessionLog, error)
	// Recover scans the store and returns every persisted session,
	// sealed or not. Sessions too damaged to recover are skipped; their
	// errors are joined into the returned error, which is advisory when
	// sessions are also returned.
	Recover() ([]RecoveredSession, error)
	// Remove garbage-collects one session's persisted state.
	Remove(id string) error
	// ReplaySource opens a restartable read-only stream over a session's
	// durable log: the logged node and batch frames in append order, the
	// exact stream the session ingested. The background refinement
	// service restreams it; callers must not use it while the log can
	// still grow (refinement only runs on finished — sealed — sessions).
	ReplaySource(id string) (oms.Source, error)
}

// SessionLog is one session's durable record log: the exact sequence
// of records the session acknowledges, in order, with Flush as the
// durability barrier the ack waits on; the seal and release that bound
// its life; and the side-store of refined result versions. The log is
// the session's only durable state — recovery replays it in full.
// All calls are made from the job holding the session's turn, so
// implementations need only guard against concurrent Close from the
// manager. Nothing here names a file — the contract is "records in,
// durable records out" — so a decorator embeds the whole interface and
// overrides what it changes: the cluster's replication wrapper forwards
// the flushed byte range of the underlying WAL file to a follower after
// every Flush and Seal.
type SessionLog interface {
	// AppendNodeFrame logs one push accepted on /nodes from its wire
	// frame (header + payload, as validated at the ingest boundary),
	// verbatim. The frame must be a valid wire.TypeNode frame;
	// implementations may append it without re-verifying, and must
	// reject a missing one rather than write an empty record. The record
	// must be durable against a process crash (written to the OS) once
	// the following Flush returns; fsync durability is batched per the
	// store's sync interval.
	AppendNodeFrame(frame []byte) error
	// AppendBatch group-commits one accepted /batch together with the
	// blocks the engine assigned: one frame (one checksum) over the
	// nodes' verbatim payloads, so recovery resurrects the batch
	// all-or-nothing and replays the recorded assignments verbatim, so
	// a recovered session never depends on the engine version that made
	// them. Every node carries its Frame.
	AppendBatch(nodes []PushNode, blocks []int32) error
	// AppendStats logs one stats-revision record of an adaptive session:
	// the estimator state in force after every record appended so far.
	// The service appends one whenever an acknowledged chunk or batch
	// advanced the estimator revision, so recovery replays the exact
	// adaptation trajectory.
	AppendStats(st oms.EstimatorState) error
	// Flush writes buffered records through to the operating system;
	// the service calls it once per acknowledged job that appended, and
	// it is the point a replicating decorator propagates (and, in wait-
	// for-follower mode, waits on) the new durable prefix.
	Flush() error

	// Seal marks the session finished and forces the log to stable
	// storage. A sealed log rejects further appends. A decorator must
	// carry the seal to a replica (a sealed log is what lets a promoted
	// follower finish the session).
	Seal() error
	// Close releases the log without removing its files.
	Close() error

	// SaveVersion durably persists one refined result version, atomically
	// (write, then rename): after a crash either the whole version is
	// back or none of it is — a torn version must never be served.
	// Versions are whole-file, CRC-protected artifacts outside the record
	// stream, keyed by v.Version; saving is allowed on a sealed log
	// (refinement only runs after Finish), and replication does not ship
	// them (a promoted follower re-refines if asked).
	SaveVersion(v RefinedVersion) error
	// LoadVersion reads one previously saved version back, whole (CRC
	// verified). The session serves cold versions through it after
	// pruning their assignment from memory.
	LoadVersion(version int32) (RefinedVersion, error)
}

// RecoveredSession is one persisted session as reported by
// Store.Recover: its identity, spec and surviving refined versions, and
// a one-shot Replay that reads its log once and only then hands the log
// back, so no caller can hold a log whose valid end is not yet known.
type RecoveredSession struct {
	ID   string
	Spec CreateSpec
	// Replay streams every logged record in append order, validating
	// each as it reads it, and stops at the first torn or invalid record.
	// block is the assignment recorded at ingest time for group-committed
	// batch records, or -1 for per-node records (whose deterministic
	// sequential walk is re-derived instead). Logged stats-revision
	// records are handed to stats (may be nil), which recovery uses to
	// pin an adaptive session's estimator trajectory.
	//
	// After a clean stop Replay cuts the log where the valid records end
	// and returns it reopened for appends there (appends fail on a
	// sealed log), with whether a seal ended it; the caller owns the log
	// and closes it. If fn or stats fail, or the log cannot be read,
	// Replay returns the error and leaves the log as it found it. It may
	// be called once, before the session goes live.
	Replay func(fn func(u, w int32, adj, ew []int32, block int32) error, stats func(st oms.EstimatorState) error) (SessionLog, bool, error)
	// Versions are the refined result versions that survived the crash,
	// ascending by version number, metadata only (Parts is nil; the
	// session reloads assignments on demand through the log). Versions
	// whose files are torn or corrupt are silently dropped — a
	// half-written version is the crash's, not data.
	Versions []RefinedVersion
}
