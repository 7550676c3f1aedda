package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oms"
	"oms/internal/service"
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
	// logs. omsd points them at the service registry's WAL histograms;
	// the hooks are plain functions because wal must not import service's
	// metric types back (wal already sits below service).
	ObserveAppend func(time.Duration)
	ObserveFsync  func(time.Duration)
}

// Store is the on-disk session store, implementing service.Store over a
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
	ID   string             `json:"id"`
	Spec service.CreateSpec `json:"spec"`
}

// Create implements service.Store: it lays down the session directory,
// persists the spec, and opens an empty log. A partial failure removes
// the directory again — a half-created session must not come back as a
// ghost on the next restart (the create was reported failed).
func (st *Store) Create(id string, spec service.CreateSpec) (service.SessionLog, error) {
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

func (st *Store) createIn(dir, id string, spec service.CreateSpec) (*Log, error) {
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
	return st.newLog(f, dir), nil
}

// Remove implements service.Store: it garbage-collects the session's
// persisted state.
func (st *Store) Remove(id string) error {
	if err := os.RemoveAll(filepath.Join(st.dir, id)); err != nil {
		return err
	}
	return syncDir(st.dir)
}

// Recover implements service.Store: it scans the sessions directory and
// rebuilds a RecoveredSession per entry. Unrecoverable sessions are
// skipped; their errors are joined into the returned (advisory) error.
func (st *Store) Recover() ([]service.RecoveredSession, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var out []service.RecoveredSession
	var errs []error
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := st.recoverOne(e.Name())
		if err != nil {
			errs = append(errs, fmt.Errorf("wal: session %s: %w", e.Name(), err))
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

// RecoverSession rebuilds one session by id, exactly as Recover does for
// every session. Cluster failover promotes a replicated session through
// it: after the shipped log is moved into this store (AdoptFrom), the
// promoting node recovers just that session and adopts it into its
// manager — replication is recovery over the network.
func (st *Store) RecoverSession(id string) (service.RecoveredSession, error) {
	return st.recoverOne(id)
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

// recoverOne rebuilds one session directory: validate the log's frame
// prefix, truncate any torn tail, and reopen the log for appends at the
// validated end. Replay covers the whole validated prefix.
func (st *Store) recoverOne(id string) (service.RecoveredSession, error) {
	var rec service.RecoveredSession
	dir := filepath.Join(st.dir, id)
	env, err := readSpec(dir)
	if err != nil {
		return rec, err
	}

	// No O_CREATE: a session directory without its log (a failed create
	// not yet cleaned up, or tampering) is a recovery error, not an
	// empty session to silently resurrect.
	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_RDWR, 0o644)
	if err != nil {
		return rec, err
	}
	nodes, sealed, validEnd, err := openValidated(f)
	if err != nil {
		f.Close()
		return rec, err
	}
	l := st.newLog(f, dir)
	l.nodes = nodes
	l.sealed = sealed
	l.size = validEnd
	l.flushed = validEnd
	l.extent = validEnd // openValidated cut any zero tail

	rec.ID = env.ID
	rec.Spec = env.Spec
	rec.Sealed = sealed
	rec.Log = l
	rec.Versions = recoverVersions(dir)
	rec.Replay = func(fn func(u, w int32, adj, ew []int32, block int32) error, stats func(st oms.EstimatorState) error) error {
		return replayLog(logPath, nodes, fn, stats)
	}
	if env.ID != id {
		l.Close()
		return rec, fmt.Errorf("spec names session %q", env.ID)
	}
	return rec, nil
}

// newLog wraps an open log file handle.
func (st *Store) newLog(f *os.File, dir string) *Log {
	return &Log{
		f:         f,
		w:         bufio.NewWriterSize(f, 64<<10),
		dir:       dir,
		syncEvery: st.opt.SyncInterval,
		lastSync:  time.Now(),
		fsync:     datasync(f),
		writeAt:   f.WriteAt,
		obsAppend: st.opt.ObserveAppend,
		obsFsync:  st.opt.ObserveFsync,
	}
}

// scanLog validates the log's frame prefix from the start of f: it
// returns the node-record count, whether a seal record terminates the
// log, and the byte offset the valid prefix ends at. A torn or corrupt
// frame simply ends the scan — its bytes are the crash's, not an error.
// A real read fault is an error: truncating at it would destroy
// durable, acknowledged records that merely failed to read this time.
func scanLog(f *os.File) (nodes int64, sealed bool, validEnd int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, false, 0, err
	}
	rd := wire.NewReader(f)
	for {
		rd.Arena.Reset()
		payload, frame, err := rd.NextFrame()
		if err == io.EOF || errors.Is(err, wire.ErrMalformed) {
			return nodes, false, validEnd, nil
		}
		if err != nil {
			return 0, false, 0, err
		}
		n, seal, ok := validateRecord(&rd.Arena, payload)
		if !ok {
			return nodes, false, validEnd, nil
		}
		nodes += n
		validEnd += int64(len(frame))
		if seal {
			// Nothing may follow a seal; stop at it either way.
			return nodes, true, validEnd, nil
		}
	}
}

// openValidated scans f like scanLog, truncates whatever follows the
// valid prefix (a torn tail: the crash interrupted a frame write, and
// everything before it checksums clean), and leaves f positioned at the
// validated end, ready for appends. Recovery and a replica reopening its
// copy share it, so both keep exactly the same whole-frame prefix.
func openValidated(f *os.File) (nodes int64, sealed bool, validEnd int64, err error) {
	if nodes, sealed, validEnd, err = scanLog(f); err != nil {
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

// validateRecord decodes one frame payload just far enough to prove it
// is a well-formed log record, returning the node records it carries
// and whether it is the terminal seal. ok=false means the payload is
// not a valid record — a torn tail during a recovery scan, a corrupt
// shipped frame at a replica, or a type byte that is not a log record
// (the retired 1 and 3 included). Decoding appends to arena.Ints; the
// caller resets the arena between records.
func validateRecord(arena *wire.Arena, payload []byte) (nodes int64, seal, ok bool) {
	switch payload[0] {
	case wire.TypeNode:
		_, err := wire.DecodeNodeInto(arena, payload)
		return 1, false, err == nil
	case wire.TypeBatch:
		err := wire.ForEachBatchNode(arena, payload, func(wire.Node, int32) error {
			nodes++
			return nil
		})
		return nodes, false, err == nil
	case wire.TypeStats:
		_, err := decodeStatsPayload(payload)
		return 0, false, err == nil
	case wire.TypeSeal:
		return 0, true, len(payload) == 1
	}
	return 0, false, false
}

// replayLog streams the log's node records in append order, stopping
// after total records (the validated prefix). Per-node frames replay
// with block -1 (re-derive the assignment); batch frames carry the
// recorded assignment, replayed verbatim. The adjacency slices handed
// to fn alias the reader's arena: they are valid until fn returns.
//
// Stats-revision frames are handed to the optional stats callback (nil
// ignores them): applying the recorded estimator state makes adaptive
// recovery replay identically even across estimator-logic changes —
// between frames determinism carries the state, at frames the log
// resynchronizes it.
func replayLog(path string, total int64, fn func(u, w int32, adj, ew []int32, block int32) error, stats func(oms.EstimatorState) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := wire.NewReader(f)
	seen := int64(0)
	for seen < total {
		rd.Arena.Reset()
		payload, _, err := rd.NextFrame()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("wal: log ends after %d of %d records", seen, total)
			}
			return err
		}
		switch payload[0] {
		case wire.TypeStats:
			if stats == nil {
				continue
			}
			st, err := decodeStatsPayload(payload)
			if err != nil {
				return err
			}
			if err := stats(st); err != nil {
				return err
			}
		case wire.TypeNode:
			seen++
			nd, err := wire.DecodeNodeInto(&rd.Arena, payload)
			if err != nil {
				return err
			}
			if err := fn(nd.U, nd.W, nd.Adj, nd.EW, -1); err != nil {
				return err
			}
		case wire.TypeBatch:
			err := wire.ForEachBatchNode(&rd.Arena, payload, func(nd wire.Node, block int32) error {
				seen++
				return fn(nd.U, nd.W, nd.Adj, nd.EW, block)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeFileSync writes b to path and fsyncs the file.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
