package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"oms"
	"oms/internal/store"
	"oms/internal/wire"
)

// Options configures a Store.
type Options struct {
	// SyncInterval batches WAL fsyncs: every acknowledged chunk is
	// written to the OS before the ack, but fsync runs at most once per
	// interval per session (plus forced syncs on seal and close). Zero or
	// negative fsyncs on every flush — maximally durable, slowest.
	SyncInterval time.Duration
	// ObserveAppend and ObserveFsync, when set, receive the duration of
	// every record encode+write and every fsync stall, across all session
	// logs. omsd points them at the registry's WAL histograms; the hooks
	// are plain functions, so wal imports no metrics package.
	ObserveAppend func(time.Duration)
	ObserveFsync  func(time.Duration)
}

// Store is the on-disk session store, implementing store.Store over a
// data directory laid out as
//
//	<dir>/sessions/<id>/spec.json        creation spec (replay configuration)
//	<dir>/sessions/<id>/log.wal          the record log, the session's only state
//	<dir>/sessions/<id>/version-NNNNNN   refined result versions (atomic replace)
type Store struct {
	dir string // the sessions directory
	opt Options
}

const (
	sessionsDir = "sessions"
	specName    = "spec.json"
	logName     = "log.wal"
)

// Open prepares a store rooted at dir, creating it if needed.
func Open(dir string, opt Options) (*Store, error) {
	sd := filepath.Join(dir, sessionsDir)
	if err := os.MkdirAll(sd, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: sd, opt: opt}, nil
}

// specEnvelope is the spec.json schema.
type specEnvelope struct {
	ID   string           `json:"id"`
	Spec store.CreateSpec `json:"spec"`
}

// Create implements store.Store: it lays down the session directory,
// persists the spec, and opens an empty log. A partial failure removes
// the directory again — a half-created session must not come back as a
// ghost on the next restart (the create was reported failed).
func (st *Store) Create(id string, spec store.CreateSpec) (store.SessionLog, error) {
	dir := filepath.Join(st.dir, id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: session dir: %w", err)
	}
	lg, err := st.createIn(dir, id, spec)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	return lg, nil
}

func (st *Store) createIn(dir, id string, spec store.CreateSpec) (*Log, error) {
	b, err := json.Marshal(specEnvelope{ID: id, Spec: spec})
	if err != nil {
		return nil, err
	}
	if err := writeFileSync(filepath.Join(dir, specName), b); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return st.newLog(f, dir, 0), nil
}

// Remove implements store.Store: it garbage-collects the session's
// persisted state.
func (st *Store) Remove(id string) error {
	if err := os.RemoveAll(filepath.Join(st.dir, id)); err != nil {
		return err
	}
	return syncDir(st.dir)
}

// Recover implements store.Store: it scans the sessions directory and
// rebuilds a RecoveredSession per entry. Unrecoverable sessions are
// skipped; their errors are joined into the returned (advisory) error.
func (st *Store) Recover() ([]store.RecoveredSession, error) {
	ids, err := st.ReplicaIDs()
	if err != nil {
		return nil, err
	}
	var out []store.RecoveredSession
	var errs []error
	for _, id := range ids {
		rec, err := st.RecoverSession(id)
		if err != nil {
			errs = append(errs, fmt.Errorf("wal: session %s: %w", id, err))
			continue
		}
		out = append(out, rec)
	}
	return out, errors.Join(errs...)
}

// SessionDir returns the directory holding one session's persisted
// state (spec.json, log.wal, refined versions). The replication shipper
// reads log.wal out of it directly: the on-disk log is the shipping
// source, so what a follower receives is byte-for-byte what was logged.
func (st *Store) SessionDir(id string) string {
	return filepath.Join(st.dir, id)
}

// LogPath returns the path of one session's record log inside
// SessionDir.
func (st *Store) LogPath(id string) string {
	return filepath.Join(st.dir, id, logName)
}

// AdoptFrom moves one session's directory out of another store (the
// replica store a follower accumulated shipped logs in) into this one,
// durably. The moved session is invisible to the manager until
// RecoverSession + Adopt bring it live.
func (st *Store) AdoptFrom(other *Store, id string) error {
	if err := os.Rename(other.SessionDir(id), st.SessionDir(id)); err != nil {
		return err
	}
	if err := syncDir(st.dir); err != nil {
		return err
	}
	return syncDir(other.dir)
}

// RecoverSession rebuilds one session by id, as Recover does for every
// session: it reads the spec and refined versions, and its Replay reads
// the log once — openValidated replays each record as it validates it
// and cuts the log where the valid records end, and the log reopens for
// appends there. Cluster failover promotes a replicated session through
// it: after the shipped log is moved into this store (AdoptFrom), the
// promoting node recovers just that session and adopts it into its
// manager — replication is recovery over the network.
func (st *Store) RecoverSession(id string) (store.RecoveredSession, error) {
	dir := filepath.Join(st.dir, id)
	env, err := readSpec(dir)
	if err != nil {
		return store.RecoveredSession{}, err
	}
	if env.ID != id {
		return store.RecoveredSession{}, fmt.Errorf("spec names session %q", env.ID)
	}
	// A session directory without its log (a failed create not yet
	// cleaned up, or tampering) is a recovery error, not an empty
	// session to silently resurrect: no O_CREATE below either.
	logPath := filepath.Join(dir, logName)
	if _, err := os.Stat(logPath); err != nil {
		return store.RecoveredSession{}, err
	}
	replay := func(fn visitNode, stats visitStats) (store.SessionLog, bool, error) {
		f, err := os.OpenFile(logPath, os.O_RDWR, 0o644)
		if err != nil {
			return nil, false, err
		}
		nodes, sealed, validEnd, err := openValidated(f, fn, stats)
		if err != nil {
			f.Close()
			return nil, false, err
		}
		l := st.newLog(f, dir, validEnd)
		l.nodes, l.sealed = nodes, sealed
		return l, sealed, nil
	}
	return store.RecoveredSession{ID: id, Spec: env.Spec, Replay: replay, Versions: recoverVersions(dir)}, nil
}

// newLog wraps an open log file handle whose valid records end at end
// (openValidated cut any zero tail).
func (st *Store) newLog(f *os.File, dir string, end int64) *Log {
	return &Log{
		logFile:   newLogFile(f, end, st.opt.ObserveFsync),
		dir:       dir,
		syncEvery: st.opt.SyncInterval,
		lastSync:  time.Now(),
		obsAppend: st.opt.ObserveAppend,
	}
}

// visitNode receives one logged node with the block a batch record
// carries (-1 for a per-node record); the slices are valid until it
// returns. visitStats receives one stats record's estimator state.
type (
	visitNode  = func(u, w int32, adj, ew []int32, block int32) error
	visitStats = func(oms.EstimatorState) error
)

// walkLog is the one reader of a log's records. It reads frames from r
// in order, decodes each record in full, and only then hands its nodes
// to fn and its estimator state to stats (either may be nil). It stops
// cleanly at the first torn or invalid frame — its bytes are the
// crash's, not an error — and after a seal, which nothing may follow.
// It returns the node records walked, whether a seal ended the log, and
// the byte offset the valid prefix ends at. A visitor's error ends the
// walk and is returned, and so is a real read fault: truncating at it
// would destroy acknowledged records that merely failed to read.
//
// Because a record is decoded whole before a visitor sees any of it, a
// batch whose checksum holds but whose nodes do not decode applies none
// of them and ends the valid prefix: the group stays all-or-nothing.
func walkLog(r io.Reader, fn visitNode, stats visitStats) (nodes int64, sealed bool, validEnd int64, err error) {
	rd := wire.NewReader(r)
	var rec record
	for {
		rd.Arena.Reset()
		payload, frame, err := rd.NextFrame()
		if err == io.EOF || errors.Is(err, wire.ErrMalformed) {
			return nodes, false, validEnd, nil
		}
		if err != nil {
			return 0, false, 0, err
		}
		if !rec.decode(payload) {
			return nodes, false, validEnd, nil
		}
		if rec.typ == wire.TypeStats && stats != nil {
			err = stats(rec.stats)
		}
		for i := 0; err == nil && fn != nil && i < len(rec.nodes); i++ {
			nd := &rec.nodes[i]
			err = fn(nd.U, nd.W, nd.Adj, nd.EW, rec.blocks[i])
		}
		if err != nil {
			return 0, false, 0, err
		}
		nodes += int64(len(rec.nodes))
		validEnd += int64(len(frame))
		if rec.typ == wire.TypeSeal {
			return nodes, true, validEnd, nil
		}
	}
}

// openValidated walks f from its start (walkLog, with the visitors),
// then truncates whatever follows the valid prefix — a torn tail or the
// zero tail of a crashed live log — and leaves f positioned at the
// validated end, ready for appends. After a visitor error or a read
// fault f is left as it was. Recovery and a replica reopening its copy
// share it, so both keep exactly the same whole-frame prefix.
func openValidated(f *os.File, fn visitNode, stats visitStats) (nodes int64, sealed bool, validEnd int64, err error) {
	if nodes, sealed, validEnd, err = walkLog(f, fn, stats); err != nil {
		return 0, false, 0, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > validEnd {
		if err := f.Truncate(validEnd); err != nil {
			return 0, false, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, false, 0, err
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		return 0, false, 0, err
	}
	return nodes, sealed, validEnd, nil
}

// record is one fully decoded log record, reused from frame to frame:
// the nodes of a node or batch record with their recorded blocks, or
// the state of a stats record. The nodes' slices point into arena.
type record struct {
	typ    byte
	nodes  []wire.Node
	blocks []int32
	stats  oms.EstimatorState
	arena  wire.Arena
}

// decode decodes one frame payload in full into r and reports whether
// it is a log record: false for a torn tail in a walk, a corrupt
// shipped frame at a replica, or a type byte that is no log record (the
// retired 1 and 3 included).
func (r *record) decode(payload []byte) bool {
	r.typ = payload[0]
	r.nodes, r.blocks, r.arena.Ints = r.nodes[:0], r.blocks[:0], r.arena.Ints[:0]
	switch r.typ {
	case wire.TypeNode:
		nd, err := wire.DecodeNodeInto(&r.arena, payload)
		if err != nil {
			return false
		}
		r.nodes, r.blocks = append(r.nodes, nd), append(r.blocks, -1)
		return true
	case wire.TypeBatch:
		return wire.ForEachBatchNode(&r.arena, payload, func(nd wire.Node, block int32) error {
			r.nodes, r.blocks = append(r.nodes, nd), append(r.blocks, block)
			return nil
		}) == nil
	case wire.TypeStats:
		var err error
		r.stats, err = decodeStatsPayload(payload)
		return err == nil
	case wire.TypeSeal:
		return len(payload) == 1
	}
	return false
}

// writeFileSync writes b to path and fsyncs the file.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
