// Package wal persists omsd push sessions as one append-only record log
// each, so a crashed or redeployed daemon rebuilds every session and
// resumes unsealed streams at the exact next node.
//
// The design exploits the defining property of the paper's algorithm:
// OMS assigns each node irrevocably in one pass, deterministically for
// a fixed configuration, seed, and stream order. A session is therefore
// exactly a replayable log of (node, weight, adjacency) records —
// replaying the log through the engine reproduces every load counter
// and assignment bit-identically. Durability is then cheap:
//
//   - log.wal — internal/wire frames (length + CRC32 + payload) of
//     record types from wire's one type table: one TypeBatch group
//     frame per ingest job of either route, /nodes chunk or /batch
//     (the acknowledged nodes plus the blocks the engine assigned them
//     — recorded so recovery replays the acknowledged decisions and
//     never depends on the engine version, and one CRC makes the group
//     all-or-nothing), a TypeStats estimator revision whenever an
//     adaptive session's projection advanced, and a terminal TypeSeal.
//     Logs written before /nodes logged its blocks also hold one
//     TypeNode frame per node, which recovery still reads and
//     re-decides.
//     The log frames bytes with wire's own reader and frame sealer; any
//     other type byte ends a recovery walk like a torn tail. Appends
//     are buffered; the service flushes to the OS once per acknowledged
//     chunk, and fsync is batched on a configurable interval, so a
//     process crash loses nothing acknowledged and an OS crash loses at
//     most the sync window. A failed fsync is never retried: the log
//     returns it from every later call, and the service kills the
//     session.
//   - a zero tail — the log file runs ahead of its last record with
//     zeros: a flush that crosses the zero-filled extent writes zeros
//     past the new end (as many bytes as the log holds, at least 64 KiB
//     and at most 256 KiB). Every later flush overwrites blocks the file
//     already owns at an unchanged size, so the sync is fdatasync
//     (fsync off Linux) and flushes data without committing the file
//     system's journal. Seal and Close truncate the tail, so a sealed or
//     closed log holds its records and nothing else; a crashed log's
//     tail is zeros, which no frame header accepts, so recovery cuts it
//     like any torn tail. A cluster follower's replica of the log is
//     written by the same writer (logFile), zero tail, fdatasync, tail
//     cut and failure rule included, so a sealed or closed replica is
//     the owner's log byte for byte.
//   - spec.json — the session's creation spec, fixing the replay
//     configuration.
//
// The log is the only record of a session: no engine state is ever
// written beside it, so ingest writes nothing but log frames. Recovery
// reads the log once: one walk decodes each record, replays it, and
// stops at the first torn or invalid frame; only then is the log cut
// there and reopened for appends — linear in the logged nodes.
// Duplicate records are harmless: engine pushes are idempotent, so a
// record logged twice replays to the same state.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"oms"
	"oms/internal/store"
	"oms/internal/wire"
)

// errFrameless reports a node that reached the log without its validated
// wire frame. Every product path frames a node at the ingest boundary;
// the log never re-encodes one, and never writes an empty record.
var errFrameless = errors.New("wal: node without its wire frame")

// Log is one session's append-only record log, implementing
// store.SessionLog. Appends buffer in memory; Flush writes through
// to the OS and batches fsync per the configured interval. A Log is
// driven by the single worker owning its session, with Close callable
// concurrently from the manager.
type Log struct {
	logFile
	mu     sync.Mutex
	dir    string // session directory: spec.json, log.wal, refined versions
	buf    []byte // the one frame scratch: header hole, then payload
	nodes  int64  // node records in the log
	sealed bool
	closed bool

	syncEvery time.Duration
	lastSync  time.Time
	// obsAppend observes append latencies into the daemon's histogram;
	// nil when the store is not instrumented.
	obsAppend func(time.Duration)
	// syncTimer fsyncs a dirty tail the stream went idle on, so the
	// batched-sync exposure is bounded by wall clock, not by when the
	// next chunk happens to arrive.
	syncTimer *time.Timer
}

// appendable reports why the log takes no more records, if it does not
// (a dead file refuses them in buffer); callers hold mu.
func (l *Log) appendable() error {
	switch {
	case l.closed:
		return fmt.Errorf("wal: append to closed log")
	case l.sealed:
		return fmt.Errorf("wal: append to sealed log")
	}
	return nil
}

// writeRecord seals the frame built in the scratch — wire.BeginFrame's
// header hole, then the payload — and buffers it: records the log
// encodes itself are framed in place, by the same function that frames
// a request. Buffered frames reach the OS at the next Flush and stable
// storage at the next batched fsync (or Seal / Close, which both force
// one). Callers hold mu.
func (l *Log) writeRecord() error {
	wire.EndFrame(l.buf, 0)
	return l.buffer(l.buf)
}

// AppendNodeFrame buffers one legacy per-node record, a TypeNode frame
// without its block, verbatim; recovery still reads such records and
// re-decides them. No product path writes one: it is kept because the
// benchmark harness (benchmark/ladder.go) still logs through it, and
// for tests that author legacy logs; it goes when the harness logs
// through AppendBatch (ROADMAP 1A(h)). The caller vouches for the
// frame, so nothing is re-checked or re-encoded here.
func (l *Log) AppendNodeFrame(frame []byte) error {
	if len(frame) <= wire.FrameHeaderSize {
		return errFrameless
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendable(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := l.buffer(frame); err != nil {
		return err
	}
	l.observeAppend(t0)
	l.nodes++
	return nil
}

// observeAppend reports one append's encode+write latency to the
// store's hook; callers hold mu.
func (l *Log) observeAppend(t0 time.Time) {
	if l.obsAppend != nil {
		l.obsAppend(time.Since(t0))
	}
}

// AppendBatch buffers one ingest job, a /nodes chunk or a /batch, as a
// group-committed frame: the acknowledged blocks, then every node's
// validated payload copied verbatim out of its request frame, under a
// single CRC — so recovery sees the job all-or-nothing (a crash
// mid-write tears the one frame and drops the whole group, never a
// prefix). The recorded assignments make replay exact whatever engine
// version replays them.
//
// The all-or-nothing guarantee requires exactly one frame, so a batch
// whose encoding would exceed the recovery walk's frame bound is an
// error, never a silent split — the service turns that into a killed
// session rather than a batch that could resurrect partially. The HTTP
// layer cuts batches by bytes as well as count, so real ingest stays
// orders of magnitude below the bound.
func (l *Log) AppendBatch(nodes []store.PushNode, blocks []int32) error {
	if len(nodes) != len(blocks) {
		return fmt.Errorf("wal: batch of %d nodes with %d blocks", len(nodes), len(blocks))
	}
	if len(nodes) == 0 {
		return nil
	}
	body := 0
	for i := range nodes {
		if len(nodes[i].Frame) <= wire.FrameHeaderSize {
			return errFrameless
		}
		body += len(nodes[i].Frame) - wire.FrameHeaderSize
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendable(); err != nil {
		return err
	}
	t0 := time.Now()
	l.buf = wire.AppendBatchHeader(wire.BeginFrame(l.buf[:0]), blocks)
	// The frames are already encoded, so the group's size is known
	// before a byte of it is copied.
	if size := len(l.buf) - wire.FrameHeaderSize + body; size > wire.MaxFramePayload {
		return fmt.Errorf("wal: batch encodes to %d bytes, over the %d frame bound (split the batch)", size, wire.MaxFramePayload)
	}
	for i := range nodes {
		l.buf = append(l.buf, nodes[i].Frame[wire.FrameHeaderSize:]...)
	}
	if err := l.writeRecord(); err != nil {
		return err
	}
	l.observeAppend(t0)
	l.nodes += int64(len(nodes))
	return nil
}

// appendStatsPayload encodes one stats-revision record: the type byte,
// then the estimator state as ten little-endian int64 fields.
func appendStatsPayload(buf []byte, st oms.EstimatorState) []byte {
	buf = append(buf, wire.TypeStats)
	for _, v := range []int64{
		st.SeenNodes, st.SeenNodeWeight, st.SeenAdj, st.SeenEdgeWeight,
		st.NextRatchet, st.Revision,
		int64(st.Est.N), st.Est.M, st.Est.TotalNodeWeight, st.Est.TotalEdgeWeight,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// decodeStatsPayload is the inverse of appendStatsPayload (type byte
// included); the ten fields must fill the payload exactly.
func decodeStatsPayload(payload []byte) (oms.EstimatorState, error) {
	var f [10]int64
	if len(payload) != 1+8*len(f) {
		return oms.EstimatorState{}, wire.ErrMalformed
	}
	for i := range f {
		f[i] = int64(binary.LittleEndian.Uint64(payload[1+8*i:]))
	}
	st := oms.EstimatorState{
		SeenNodes: f[0], SeenNodeWeight: f[1], SeenAdj: f[2], SeenEdgeWeight: f[3],
		NextRatchet: f[4], Revision: f[5],
	}
	st.Est.N = int32(f[6])
	st.Est.M, st.Est.TotalNodeWeight, st.Est.TotalEdgeWeight = f[7], f[8], f[9]
	if st.SeenNodes < 0 || st.SeenNodeWeight < 0 || st.Revision < 0 || st.Est.N < 0 {
		return oms.EstimatorState{}, wire.ErrMalformed
	}
	return st, nil
}

// AppendStats buffers one stats-revision record: the adaptive
// estimator state in force after every record appended so far. The
// service logs one whenever a chunk or batch advanced the revision.
func (l *Log) AppendStats(st oms.EstimatorState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendable(); err != nil {
		return err
	}
	l.buf = appendStatsPayload(wire.BeginFrame(l.buf[:0]), st)
	return l.writeRecord()
}

// Flush writes buffered records through to the operating system and
// fsyncs if the batched sync interval has elapsed (always, when the
// interval is zero or negative).
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: flush of closed log")
	}
	return l.flushLocked(false)
}

// flushLocked writes the buffer through and fsyncs when due or forced;
// when the fsync is deferred it arms the idle-tail timer instead. After
// a failed fsync it only reports that failure.
func (l *Log) flushLocked(force bool) error {
	if l.syncErr != nil {
		return l.syncErr
	}
	if err := l.writeThrough(force); err != nil {
		return err
	}
	if l.synced == l.flushed {
		return nil
	}
	now := time.Now()
	if force || l.syncEvery <= 0 || now.Sub(l.lastSync) >= l.syncEvery {
		if err := l.syncFile(); err != nil {
			return err
		}
		l.lastSync = now
		if l.syncTimer != nil {
			l.syncTimer.Stop()
			l.syncTimer = nil
		}
		return nil
	}
	if l.syncTimer == nil {
		d := l.syncEvery - now.Sub(l.lastSync)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		l.syncTimer = time.AfterFunc(d, l.timedSync)
	}
	return nil
}

// timedSync is the idle-tail fsync: without it, a stream that pauses
// right after a deferred-sync Flush would keep acknowledged records
// un-fsynced until the next chunk arrives, making the documented
// "-wal-sync window" unbounded in wall-clock time. Errors here are left
// for the next Flush/Seal/Close to surface: a write error stays in the
// buffered writer, a failed fsync in syncErr.
func (l *Log) timedSync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncTimer = nil
	if l.closed || l.synced == l.size || l.sync(true) != nil {
		return
	}
	l.lastSync = time.Now()
}

// Seal appends the terminal seal record, forces the whole log to stable
// storage and truncates the zero tail; further appends fail.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return fmt.Errorf("wal: seal of closed log")
	case l.sealed:
		return nil
	}
	l.buf = append(wire.BeginFrame(l.buf[:0]), wire.TypeSeal)
	if err := l.writeRecord(); err != nil {
		return err
	}
	if err := l.flushLocked(true); err != nil {
		return err
	}
	if err := l.cutTail(); err != nil {
		return err
	}
	l.sealed = true
	return nil
}

// Close flushes, fsyncs, truncates the zero tail, and releases the log,
// leaving its files in place (Store.Remove garbage-collects them). Close
// is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.syncTimer != nil {
		l.syncTimer.Stop()
		l.syncTimer = nil
	}
	return l.closeFile(l.flushLocked(true))
}

// Sealed reports whether the log carries the terminal seal record.
func (l *Log) Sealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

// Nodes returns the number of node records in the log.
func (l *Log) Nodes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes
}

// Flushed returns the byte length of the log prefix written through to
// the operating system. It advances only on whole-frame boundaries
// (appends buffer whole frames; Flush empties the buffer), so a reader
// streaming [offset, Flushed()) off the log file — the replication
// shipper — always ships complete frames.
func (l *Log) Flushed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// logFile is the one log file writer, shared by the owner's Log and the
// follower's ReplicaLog: buffered whole frames, a write-through over a
// zero tail, fdatasync, a tail cut on seal and close, and one failure
// rule. Its owner serializes it.
type logFile struct {
	f *os.File
	w *bufio.Writer
	// size is the byte length of the log, buffered records included;
	// flushed is the prefix written through to the OS, and synced the
	// prefix the last sync made durable. A shipper reads [offset,
	// Flushed()) off the file, so flushed only ever advances to
	// whole-frame boundaries: appends buffer whole frames, and a buffer
	// flush moves it only once it succeeds.
	size, flushed, synced int64
	// extent is where the file's zero tail ends: the records, then zeros
	// up to extent. Zeros are only ever written at or past flushed, with
	// the buffer empty, so they never overwrite a record.
	extent int64
	// fsync syncs f's data (fdatasync on Linux) and writeAt writes the
	// zero tail (seams: tests inject disk faults).
	fsync    func() error
	writeAt  func(b []byte, off int64) (int, error)
	obsFsync func(time.Duration) // fsync stall histogram; nil if not instrumented
	// syncErr is the first failed fsync, zero fill or tail truncation. A
	// failed fsync is never retried: after failed writeback the kernel
	// may have dropped the dirty pages, so a later fsync can succeed over
	// records that never reached the disk. The file is dead from then on:
	// every later append, flush, sync, seal and close returns syncErr.
	syncErr error
}

// newLogFile wraps f, positioned at end, where its valid records and the
// file end. Create, recovery and OpenReplica all open through it.
func newLogFile(f *os.File, end int64, obsFsync func(time.Duration)) logFile {
	return logFile{f: f, w: bufio.NewWriterSize(f, 64<<10), size: end, flushed: end, synced: end,
		extent: end, fsync: datasync(f), writeAt: f.WriteAt, obsFsync: obsFsync}
}

// buffer appends whole frames to the write buffer; a dead file takes
// none.
func (lf *logFile) buffer(frames []byte) error {
	if lf.syncErr != nil {
		return lf.syncErr
	}
	if _, err := lf.w.Write(frames); err != nil {
		return err
	}
	lf.size += int64(len(frames))
	return nil
}

// writeThrough empties the buffer into the file. A write-through that
// ran past the zero tail extends it, unless it is forced: only a seal
// and a close force one, and they cut the tail next.
func (lf *logFile) writeThrough(force bool) error {
	if err := lf.w.Flush(); err != nil {
		return err
	}
	lf.flushed = lf.size
	if !force && lf.flushed > lf.extent {
		return lf.extend()
	}
	return nil
}

// sync writes the buffer through and syncs the file. After a failure it
// only reports that failure.
func (lf *logFile) sync(force bool) error {
	if lf.syncErr != nil {
		return lf.syncErr
	}
	if err := lf.writeThrough(force); err != nil {
		return err
	}
	return lf.syncFile()
}

// syncFile fsyncs the file, timing the stall, and records a failure in
// syncErr; callers never call it once syncErr is set.
func (lf *logFile) syncFile() error {
	t0 := time.Now()
	err := lf.fsync()
	if lf.obsFsync != nil {
		lf.obsFsync(time.Since(t0))
	}
	if err != nil {
		return lf.kill("fsync", err)
	}
	lf.synced = lf.flushed
	return nil
}

// kill records the disk failure that ends the file in syncErr and
// returns it.
func (lf *logFile) kill(op string, err error) error {
	lf.syncErr = fmt.Errorf("wal: %s failed, log is dead: %w", op, err)
	return lf.syncErr
}

// Bounds of one zero-tail extension, and the zeros it is written from.
const (
	minExtend = 64 << 10
	maxExtend = 256 << 10
)

var zeroBlock [minExtend]byte

// extend zero-fills the file from the flushed end for as many bytes as
// the log holds, clamped to [minExtend, maxExtend]: write-throughs up to
// there overwrite allocated blocks at an unchanged size. The next sync
// makes the new size and blocks durable with the data. The buffer is
// empty.
func (lf *logFile) extend() error {
	end := lf.flushed + min(max(lf.flushed, minExtend), maxExtend)
	for off := lf.flushed; off < end; {
		n := min(end-off, int64(len(zeroBlock)))
		if _, err := lf.writeAt(zeroBlock[:n], off); err != nil {
			return lf.kill("zero fill", err)
		}
		off += n
	}
	lf.extent = end
	return nil
}

// cutTail truncates the zero tail after a forced write-through and
// sync, so the file ends at the last record. The records are durable by
// then, and should a crash undo the truncation, recovery cuts the zeros
// again: the truncation waits for no sync of its own.
func (lf *logFile) cutTail() error {
	if lf.extent > lf.flushed {
		if err := lf.f.Truncate(lf.flushed); err != nil {
			return lf.kill("tail truncation", err)
		}
		lf.extent = lf.flushed
	}
	return nil
}

// closeFile cuts the tail if the caller's forced sync returned err ==
// nil, then closes f and returns the first failure.
func (lf *logFile) closeFile(err error) error {
	if err == nil {
		err = lf.cutTail()
	}
	if cerr := lf.f.Close(); err == nil {
		err = cerr
	}
	return err
}
