// Package store is the session contract between the serving layer and
// its persistence: the creation spec a session is built from, the
// pushed node with its wire frame, and the Store and SessionLog
// interfaces a durable backend implements. It imports only the engine
// (oms), so internal/wal implements the contract and internal/service
// consumes it without either importing the other.
package store

import (
	"fmt"
	"strings"

	"oms"
)

// PushNode is one node of an ingest chunk: id, weight (0 means 1), the
// adjacency list, and optional parallel edge weights. Its JSON tags are
// the NDJSON node line's; the shim decodes a line through them only
// when it is outside the canonical subset wire.ParseNodeLine reads by
// hand. Adj and EW may alias a per-request arena, as Frame does: the
// binary decoder and the hand parser both put them there.
type PushNode struct {
	U   int32   `json:"u"`
	W   int32   `json:"w,omitempty"`
	Adj []int32 `json:"adj"`
	EW  []int32 `json:"ew,omitempty"`
	// Frame is the node's canonical wire v2 frame exactly as it was
	// validated at the ingest boundary (the binary path yields the
	// request's bytes, the NDJSON shim encodes them). Its payload is the
	// node's part of the job's log record: the WAL copies it verbatim
	// into the group frame — no re-marshal — and refuses a node that
	// comes without one. The slice may alias a per-request arena: it is
	// valid only until the ingest job has run.
	Frame []byte `json:"-"`
}

// CreateSpec is the session-creation declaration: the stream's global
// stats plus the partitioning target and options, exactly the JSON body
// of POST /v1/sessions.
type CreateSpec struct {
	// N and M are the declared node and edge counts of the stream. In
	// adaptive sessions they are optional hints (lower bounds on the
	// final totals) instead of declarations; n: 0 with no "adaptive"
	// flag implies adaptive.
	N int32 `json:"n"`
	M int64 `json:"m"`
	// Adaptive opens an open-ended session whose stream stats are
	// estimated online: n, m, and the total weights need not be
	// declared, Fennel's alpha and the per-block capacities re-adapt as
	// the estimates ratchet, and finish reconciles against the true
	// observed totals (running a reconcile pass over the write-ahead
	// log when the server persists sessions).
	Adaptive bool `json:"adaptive,omitempty"`
	// AdaptiveHeadroom overrides the estimator's projection overshoot;
	// 0 keeps the automatic default (optimistic when the stream is
	// retained for the finish-time reconcile pass, tight otherwise).
	AdaptiveHeadroom float64 `json:"adaptive_headroom,omitempty"`
	// TotalNodeWeight / TotalEdgeWeight default to N (unit weights) and
	// M when omitted.
	TotalNodeWeight int64 `json:"total_node_weight,omitempty"`
	TotalEdgeWeight int64 `json:"total_edge_weight,omitempty"`
	// K asks for plain partitioning into K blocks; Topology/Distances
	// ask for process mapping instead (mutually exclusive with K).
	K         int32  `json:"k,omitempty"`
	Topology  string `json:"topology,omitempty"`
	Distances string `json:"distances,omitempty"`
	// Scorer is "fennel" (default), "ldg", or "hashing".
	Scorer       string  `json:"scorer,omitempty"`
	Epsilon      float64 `json:"epsilon,omitempty"`
	Base         int32   `json:"base,omitempty"`
	HashLayers   int     `json:"hash_layers,omitempty"`
	VanillaAlpha bool    `json:"vanilla_alpha,omitempty"`
	Gamma        float64 `json:"gamma,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	// Record keeps the pushed stream server-side, enabling edge-cut and
	// imbalance in the finish summary at O(n + m) extra memory.
	Record bool `json:"record,omitempty"`
	// Threads is accepted and ignored: a session assigns every batch in
	// order on one engine worker. It stays so that older clients and
	// persisted specs that carry it still decode.
	Threads int `json:"threads,omitempty"`
	// TTLSeconds overrides the server's idle-eviction TTL.
	TTLSeconds int `json:"ttl_seconds,omitempty"`
	// TraceID is the hex trace id of the sampled create request, set by
	// the HTTP layer (never by clients) and excluded from the persisted
	// spec — a recovered session's creation trace is long gone.
	TraceID string `json:"-"`
}

func parseScorer(s string) (oms.Scorer, error) {
	switch strings.ToLower(s) {
	case "", "fennel":
		return oms.ScorerFennel, nil
	case "ldg":
		return oms.ScorerLDG, nil
	case "hashing":
		return oms.ScorerHashing, nil
	default:
		return 0, fmt.Errorf("service: unknown scorer %q (want fennel, ldg, or hashing)", s)
	}
}

// SessionConfig translates the wire spec into an engine config. Its
// errors keep the "service:" prefix a client reads in the 400 body.
func (cs CreateSpec) SessionConfig() (oms.SessionConfig, error) {
	scorer, err := parseScorer(cs.Scorer)
	if err != nil {
		return oms.SessionConfig{}, err
	}
	cfg := oms.SessionConfig{
		Stats: oms.StreamStats{
			N:               cs.N,
			M:               cs.M,
			TotalNodeWeight: cs.TotalNodeWeight,
			TotalEdgeWeight: cs.TotalEdgeWeight,
		},
		K:                cs.K,
		Adaptive:         cs.Adaptive,
		AdaptiveHeadroom: cs.AdaptiveHeadroom,
		Options: oms.Options{
			Epsilon:      cs.Epsilon,
			Scorer:       scorer,
			Base:         cs.Base,
			HashLayers:   cs.HashLayers,
			VanillaAlpha: cs.VanillaAlpha,
			Gamma:        cs.Gamma,
			Seed:         cs.Seed,
		},
		Record: cs.Record,
	}
	if cs.Topology != "" {
		if cs.K != 0 {
			return oms.SessionConfig{}, fmt.Errorf("service: declare either k or a topology, not both")
		}
		dist := cs.Distances
		if dist == "" {
			// Default to the paper's geometric distances 1:10:100:...,
			// spelled out so a deep topology cannot overflow an integer.
			parts := strings.Split(cs.Topology, ":")
			ds := make([]string, len(parts))
			for i := range parts {
				ds[i] = "1" + strings.Repeat("0", i)
			}
			dist = strings.Join(ds, ":")
		}
		top, err := oms.NewTopology(cs.Topology, dist)
		if err != nil {
			return oms.SessionConfig{}, err
		}
		cfg.Topology = top
	} else if cs.K < 1 {
		return oms.SessionConfig{}, fmt.Errorf("service: k %d < 1 and no topology given", cs.K)
	}
	return cfg, nil
}

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
	// a refine.Ledger for cold versions whose assignment was pruned to
	// bound memory (it is then reloaded from the store on demand).
	Parts []int32 `json:"-"`
}

// Store is the session-persistence hook of the service manager: when
// configured (service.Config.Store), every created session gets a
// durable log, accepted pushes are logged before they are acknowledged,
// Finish seals the log, and TTL eviction or deletion garbage-collects
// the persisted state. After a restart RecoverSessions rebuilds every
// stored session from the store. internal/wal provides the on-disk
// implementation omsd wires in with -data-dir.
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
	// durable log: the logged nodes in append order, each once, the
	// exact stream the session ingested. The background refinement
	// service restreams it; callers must not use it while the log can
	// still grow (refinement only runs on finished — sealed — sessions).
	ReplaySource(id string) (oms.Source, error)
}

// SessionLog is one session's durable record log: the exact sequence
// of records the session acknowledges, in order, with Flush as the
// durability barrier the ack waits on; the seal and release that bound
// its life; and the side-store of refined result versions. The log is
// the session's only durable state — recovery replays it in full, and
// the logged nodes alone rebuild an adaptive session's estimator.
// All calls are made from the job holding the session's turn, so
// implementations need only guard against concurrent Close from the
// manager. Nothing here names a file — the contract is "records in,
// durable records out" — so a decorator embeds the whole interface and
// overrides what it changes: the cluster's replication wrapper forwards
// the flushed byte range of the underlying WAL file to a follower after
// every Flush and Seal.
type SessionLog interface {
	// AppendNodeFrame logs one legacy per-node record: a valid
	// wire.TypeNode frame without its block, verbatim, which recovery
	// still reads and re-decides. The service never calls it; it is kept
	// because the benchmark harness (benchmark/ladder.go) still logs
	// through it, and for tests that author legacy logs; it goes when the
	// harness logs through AppendBatch (ROADMAP 1A(h)).
	AppendNodeFrame(frame []byte) error
	// AppendBatch group-commits one ingest job of either route, a /nodes
	// chunk or a /batch, together with the blocks it acknowledges: one
	// frame (one checksum) over the nodes' verbatim payloads, so
	// recovery resurrects the job all-or-nothing and replays the
	// recorded assignments verbatim, and a recovered session never
	// depends on the engine version that made them. Every node carries
	// its Frame. The record must be durable against a process crash
	// (written to the OS) once the following Flush returns; fsync
	// durability is batched per the store's sync interval.
	AppendBatch(nodes []PushNode, blocks []int32) error
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
	// block is the assignment recorded at ingest time, which every
	// ingest record carries, or -1 for the per-node records of logs
	// written before /nodes logged its blocks (recovery re-derives those
	// by the deterministic sequential walk). The logged nodes are an
	// adaptive session's whole estimator record: replaying them in order
	// rebuilds its estimator bit for bit. Stats-revision frames, which
	// older logs carry between records, are read past.
	//
	// After a clean stop Replay cuts the log where the valid records end
	// and returns it reopened for appends there (appends fail on a
	// sealed log), with whether a seal ended it; the caller owns the log
	// and closes it. If fn fails, or the log cannot be read,
	// Replay returns the error and leaves the log as it found it. It may
	// be called once, before the session goes live.
	Replay func(fn func(u, w int32, adj, ew []int32, block int32) error) (SessionLog, bool, error)
	// Versions are the refined result versions that survived the crash,
	// ascending by version number, metadata only (Parts is nil; the
	// session reloads assignments on demand through the log). Versions
	// whose files are torn or corrupt are silently dropped — a
	// half-written version is the crash's, not data.
	Versions []RefinedVersion
}
