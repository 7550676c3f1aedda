package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"oms/internal/wire"
)

// ReplicaLog is the follower half of WAL shipping: an append-only copy
// of an owner's session log, written verbatim frame-for-frame as the
// bytes arrive over the wire. Because the owner ships its on-disk log
// and the follower appends exactly what it validated, the replica file
// is byte-for-byte the owner's file up to the replicated offset — so
// promotion is nothing but the ordinary recovery walk over a log this
// node happens not to have written itself. It shares the owner's log
// writer (logFile), so a sealed and closed replica is the owner's log
// byte for byte.
//
// A ReplicaLog is driven by the single replication-stream handler that
// owns it; it is not safe for concurrent use, and takes no call after
// Close.
type ReplicaLog struct {
	logFile
	rec    record // Append's decode scratch
	sealed bool
}

// OpenReplica opens (creating if needed) the replica log for session id
// inside this store, persisting spec verbatim as the session's spec.json
// if none exists yet. The log's valid frame prefix is walked exactly
// like recovery walks it, with no visitor, and any torn tail — a
// follower crash mid-append, or the zero tail it was appending over —
// is truncated, so Offset is always a whole-frame boundary the owner
// can resume shipping from.
func (st *Store) OpenReplica(id string, spec []byte) (*ReplicaLog, error) {
	dir := filepath.Join(st.dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	specPath := filepath.Join(dir, specName)
	if _, err := os.Stat(specPath); os.IsNotExist(err) {
		var env specEnvelope
		if err := json.Unmarshal(spec, &env); err != nil || env.ID != id {
			return nil, fmt.Errorf("wal: replica spec for %s does not parse or names another session", id)
		}
		if err := writeFileSync(specPath, spec); err != nil {
			return nil, err
		}
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	_, sealed, validEnd, err := openValidated(f, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &ReplicaLog{logFile: newLogFile(f, validEnd, nil), sealed: sealed}, nil
}

// Offset returns the validated, appended byte length of the replica —
// the offset the owner should ship the next frame at. It becomes
// durable at the next Sync; the replication handler acks only synced
// offsets.
func (r *ReplicaLog) Offset() int64 { return r.size }

// Sealed reports whether the replica holds the terminal seal record.
func (r *ReplicaLog) Sealed() bool { return r.sealed }

// Append decodes one shipped frame's payload in full, as the recovery
// walk decodes a record, and appends the verbatim frame bytes. The
// frame's CRC was already verified by the wire reader that produced
// payload; this second, structural check means a frame that would
// poison a future recovery walk is rejected at the wire instead of
// discovered at promotion. A rejected frame leaves the file untouched —
// the owner re-ships from the last acked offset.
func (r *ReplicaLog) Append(payload, frame []byte) error {
	if r.sealed {
		return fmt.Errorf("wal: append to sealed replica")
	}
	if !r.rec.decode(payload) {
		return fmt.Errorf("wal: shipped frame is not a valid log record")
	}
	if err := r.buffer(frame); err != nil {
		return err
	}
	r.sealed = r.rec.typ == wire.TypeSeal
	return nil
}

// Sync writes appended frames through and forces them to stable
// storage; the replication handler calls it before acknowledging an
// offset, so an acked offset survives a follower crash. An open replica
// runs on into its zero tail, so the sync is fdatasync; a sealed one
// takes no more frames and grows no tail. After a failed sync or zero
// fill it only reports that failure.
func (r *ReplicaLog) Sync() error { return r.sync(r.sealed) }

// Close writes the appended frames through, syncs them, truncates the
// zero tail and releases the file, leaving the session's files in
// place. A failed Close means the tail may not be durable.
func (r *ReplicaLog) Close() error { return r.closeFile(r.sync(true)) }

// ReplicaIDs lists the session ids present in this store's directory,
// in name order, without recovering them — Recover walks it, and so does
// the promotion scan to decide which replicas this node now owns.
func (st *Store) ReplicaIDs() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out, nil // os.ReadDir sorts by name
}

// ReadSpecBytes returns one session's spec.json verbatim — the bytes
// the owner ships ahead of the log so a follower can lay down an
// identical session directory.
func (st *Store) ReadSpecBytes(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(st.dir, id, specName))
}
