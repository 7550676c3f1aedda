package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"oms"
)

// snapMagic begins every snapshot file; bump the trailing digit on
// incompatible format changes.
var snapMagic = [8]byte{'O', 'M', 'S', 'S', 'N', 'A', 'P', '2'}

const snapName = "snap"

// Snapshot atomically replaces the session's checkpoint with one
// covering every record appended so far. The log is forced to stable
// storage first, so a surviving snapshot never claims records the log
// lost — recovery can trust count <= durable log length. Write order is
// tmp + fsync, rename, directory fsync.
func (l *Log) Snapshot(st oms.SessionState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: snapshot of closed log")
	}
	if err := l.flushLocked(true); err != nil {
		return err
	}
	return writeSnapshot(l.dir, l.nodes, st)
}

// encodeSnapshot lays out the snapshot body (everything after magic and
// CRC): count, edgesSeen, an estimator-presence flag (with the adaptive
// estimator block when set), loads, parts.
func encodeSnapshot(count int64, st oms.SessionState) []byte {
	buf := make([]byte, 0, 16+1+10*8+8+8*len(st.Loads)+4*len(st.Parts))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.EdgesSeen))
	if est := st.Estimator; est != nil {
		buf = appendEstimatorFields(append(buf, 1), *est)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Loads)))
	for _, v := range st.Loads {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Parts)))
	for _, v := range st.Parts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// decodeSnapshot parses a snapshot file's contents.
func decodeSnapshot(b []byte) (count int64, st oms.SessionState, err error) {
	fail := func() (int64, oms.SessionState, error) {
		return 0, oms.SessionState{}, fmt.Errorf("wal: corrupt snapshot")
	}
	if len(b) < len(snapMagic)+4 {
		return fail()
	}
	if [8]byte(b[:8]) != snapMagic {
		return fail()
	}
	sum := binary.LittleEndian.Uint32(b[8:])
	body := b[12:]
	if crc32.ChecksumIEEE(body) != sum {
		return fail()
	}
	if len(body) < 20 {
		return fail()
	}
	count = int64(binary.LittleEndian.Uint64(body[0:]))
	st.EdgesSeen = int64(binary.LittleEndian.Uint64(body[8:]))
	// The estimator block sits between the scalars and the loads.
	rest := body[17:]
	switch body[16] {
	case 0:
	case 1:
		est, err := decodeEstimatorFields(rest)
		if err != nil {
			return fail()
		}
		st.Estimator = &est
		rest = rest[estimatorFieldsLen:]
	default:
		return fail()
	}
	if len(rest) < 4 {
		return fail()
	}
	nLoads := int64(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if int64(len(rest)) < 8*nLoads+4 {
		return fail()
	}
	st.Loads = make([]int64, nLoads)
	for i := range st.Loads {
		st.Loads[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	rest = rest[8*nLoads:]
	nParts := int64(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if int64(len(rest)) != 4*nParts {
		return fail()
	}
	st.Parts = make([]int32, nParts)
	for i := range st.Parts {
		st.Parts[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	if count < 0 || st.EdgesSeen < 0 {
		return fail()
	}
	return count, st, nil
}

// writeSnapshot performs the atomic tmp + rename + dir-sync dance.
func writeSnapshot(dir string, count int64, st oms.SessionState) error {
	body := encodeSnapshot(count, st)
	out := make([]byte, 0, len(snapMagic)+4+len(body))
	out = append(out, snapMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = append(out, body...)
	return writeAtomic(dir, snapName, out)
}

// readSnapshot loads the session's checkpoint; a missing file returns
// (0, zero state, os.ErrNotExist), a corrupt one an error.
func readSnapshot(dir string) (count int64, st oms.SessionState, err error) {
	b, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		return 0, oms.SessionState{}, err
	}
	return decodeSnapshot(b)
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
