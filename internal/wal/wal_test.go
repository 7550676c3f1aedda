package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oms"
	"oms/internal/store"
	"oms/internal/wire"
)

// testGraph returns a deterministic small graph as push records.
type pushRec struct {
	u, w int32
	adj  []int32
	ew   []int32
}

func testStream(t *testing.T, n int32) ([]pushRec, oms.SessionConfig) {
	t.Helper()
	g := oms.GenDelaunay(n, 7)
	recs := make([]pushRec, 0, n)
	for u := int32(0); u < g.NumNodes(); u++ {
		adj := append([]int32(nil), g.Neighbors(u)...)
		recs = append(recs, pushRec{u: u, w: 1, adj: adj})
	}
	cfg := oms.SessionConfig{
		Stats: oms.StreamStats{N: g.NumNodes(), M: g.NumEdges()},
		K:     8,
	}
	return recs, cfg
}

// framed hand-builds a node the way the ingest boundary delivers one:
// with the canonical wire frame (zero weight is one, an empty edge-
// weight list is none) that the log appends verbatim. It is the one
// framing helper of this package's tests.
func framed(u, w int32, adj, ew []int32) store.PushNode {
	nd := store.PushNode{U: u, W: w, Adj: adj, EW: ew}
	if w == 0 {
		w = 1
	}
	if len(ew) == 0 {
		ew = nil
	}
	nd.Frame = wire.AppendNodeFrame(nil, u, w, adj, ew)
	return nd
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func spec(n int32, m int64) store.CreateSpec {
	return store.CreateSpec{N: n, M: m, K: 8}
}

func TestLogRoundTripSealed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, _ := testStream(t, 1000)

	lg, err := st.Create("s1-0000abcd", spec(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := lg.AppendNodeFrame(framed(r.u, r.w, r.adj, r.ew).Frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	// A flushed log's file runs on into its zero tail; the seal cuts it,
	// so a sealed log is its records and nothing else.
	flushed := lg.(*Log).Flushed()
	if raw, err := os.ReadFile(st.LogPath("s1-0000abcd")); err != nil || int64(len(raw)) <= flushed || len(bytes.Trim(raw[flushed:], "\x00")) != 0 {
		t.Fatalf("flushed log of %d bytes is a %d-byte file (%v), want a zero tail after the records", flushed, len(raw), err)
	}
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, st, "s1-0000abcd"); got != lg.(*Log).Flushed() {
		t.Fatalf("sealed log of %d bytes is a %d-byte file", lg.(*Log).Flushed(), got)
	}
	if err := lg.AppendNodeFrame(framed(0, 1, nil, nil).Frame); err == nil {
		t.Fatal("append after seal succeeded")
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, st, "s1-0000abcd"); got != lg.(*Log).Flushed() {
		t.Fatalf("closed sealed log of %d bytes is a %d-byte file", lg.(*Log).Flushed(), got)
	}

	got, err := st.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(got))
	}
	rec := got[0]
	if rec.ID != "s1-0000abcd" || rec.Spec.N != 1000 {
		t.Fatalf("recovered %+v", rec)
	}
	i := 0
	rl, sealed, err := rec.Replay(func(u, w int32, adj, ew []int32, block int32) error {
		want := recs[i]
		if u != want.u || w != want.w || !equalI32(adj, want.adj) || !equalI32(ew, want.ew) {
			t.Fatalf("record %d: got (%d,%d,%v,%v) want %+v", i, u, w, adj, ew, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sealed {
		t.Fatal("recovered log is not sealed")
	}
	if i != len(recs) {
		t.Fatalf("replayed %d records, want %d", i, len(recs))
	}
	rl.Close()
}

// replayAll replays rec with a visitor that only counts the records,
// and returns the reopened log, whether a seal ended it, and the count.
func replayAll(t *testing.T, rec store.RecoveredSession) (*Log, bool, int64) {
	t.Helper()
	n := int64(0)
	lg, sealed, err := rec.Replay(func(u, w int32, adj, ew []int32, block int32) error { n++; return nil })
	if err != nil {
		t.Fatalf("replay %s: %v", rec.ID, err)
	}
	return lg.(*Log), sealed, n
}

// TestCrashPointsKeepWholeFramePrefix enumerates the crash points of one
// log holding every live record kind, written by the product encoders:
// it is cut at every frame boundary, one byte either side of each, and
// inside each frame. Whatever the cut, recovery (RecoverSession) and a
// replica reopening the same bytes (OpenReplica) keep exactly the whole
// frames before it — same node count, same offset, the file truncated
// there, sealed only when the seal itself survived; a group-committed
// batch comes back whole or not at all. The recovered log then resumes
// appending at the cut, and the replica takes the rest of the owner's
// frames — after refusing payloads that are not log records without
// touching its file — and is adopted and recovered like a local log.
// Every cut is tried twice: bare, and followed by the zero tail a live
// log's file runs on into, which recovery cuts like any torn tail.
func TestCrashPointsKeepWholeFramePrefix(t *testing.T) {
	const id = "s1-0000c4a5"
	full, ends := seedLog(t)
	nodesAt := []int64{1, 2, 4, 4, 4} // two nodes, a batch of two, legacy stats, seal
	cuts := map[int64]bool{0: true}
	prev := int64(0)
	for _, e := range ends {
		for _, c := range []int64{prev + 1, (prev + e) / 2, e - 1, e} {
			cuts[c] = true
		}
		prev = e
	}
	invalid := [][]byte{
		{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, // retired fixed-width node record
		{3, 0, 0, 0, 0},           // retired fixed-width batch record
		{wire.TypeNode, 9},        // node record cut short
		{wire.TypeStats, 1, 2, 3}, // stats record of the wrong size
		append([]byte{wire.TypeStats}, make([]byte, legacyStatsPayload-2)...), // one byte short
		append([]byte{wire.TypeStats}, make([]byte, legacyStatsPayload)...),   // one byte long
		{wire.TypeSeal, 0},   // seal with a body
		{wire.TypeAssign, 0}, // a reply, not a log record
	}

	for _, zeroTail := range []bool{false, true} {
		for cut := range cuts {
			// The zero-tail variant is what a crash leaves of a live log: the
			// records up to the cut, then zeros to the extent a flush there
			// would have reserved.
			data, variant := full[:cut], ""
			if zeroTail {
				variant = "zero-tail "
				data = append(bytes.Clone(data), make([]byte, min(max(cut, minExtend), maxExtend))...)
			}
			// Frames that survive the cut: those before it, and under a zero
			// tail also one whose bytes past the cut are all zeros — its
			// checksum then proves it holds exactly the bytes written.
			whole := 0
			for whole < len(ends) && (ends[whole] <= cut || zeroTail && len(bytes.Trim(full[cut:ends[whole]], "\x00")) == 0) {
				whole++
			}
			var wantOff, wantNodes int64
			if whole > 0 {
				wantOff, wantNodes = ends[whole-1], nodesAt[whole-1]
			}
			wantSealed := whole == len(ends)

			// The owner's side: crash, recover, resume.
			st := openStore(t, t.TempDir())
			lg, err := st.Create(id, spec(8, 8))
			if err != nil {
				t.Fatal(err)
			}
			lg.Close()
			if err := os.WriteFile(st.LogPath(id), data, 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := st.RecoverSession(id)
			if err != nil {
				t.Fatalf("%scut %d: recover: %v", variant, cut, err)
			}
			if fileSize(t, st, id) != int64(len(data)) {
				t.Fatalf("%scut %d: recovery cut the log to %d bytes before its replay", variant, cut, fileSize(t, st, id))
			}
			replayed := int64(0)
			slg, sealed, err := rec.Replay(func(u, w int32, adj, ew []int32, block int32) error { replayed++; return nil })
			if err != nil {
				t.Fatalf("%scut %d: replay: %v", variant, cut, err)
			}
			rl := slg.(*Log)
			if sealed != wantSealed || rl.Sealed() != wantSealed || rl.Nodes() != wantNodes || rl.Flushed() != wantOff || fileSize(t, st, id) != wantOff {
				t.Fatalf("%scut %d: recovered sealed=%v nodes=%d offset=%d file=%d, want %v %d %d %d",
					variant, cut, sealed, rl.Nodes(), rl.Flushed(), fileSize(t, st, id), wantSealed, wantNodes, wantOff, wantOff)
			}
			if replayed != wantNodes {
				t.Fatalf("%scut %d: replayed %d records, want %d", variant, cut, replayed, wantNodes)
			}
			if err := rl.AppendNodeFrame(framed(7, 1, []int32{0}, nil).Frame); (err != nil) != wantSealed {
				t.Fatalf("%scut %d: append to the recovered log (sealed=%v): %v", variant, cut, wantSealed, err)
			}
			if err := rl.Close(); err != nil {
				t.Fatal(err)
			}
			if again, err := st.Recover(); err != nil || len(again) != 1 {
				t.Fatalf("%scut %d: second recovery: %d sessions, %v", variant, cut, len(again), err)
			} else {
				wantAgain := wantNodes
				if !wantSealed {
					wantAgain++ // the log resumed cleanly at the truncation point
				}
				lg, _, replayed := replayAll(t, again[0])
				if got := lg.Nodes(); got != wantAgain || replayed != wantAgain {
					t.Fatalf("%scut %d: %d records (%d replayed) after resuming, want %d", variant, cut, got, replayed, wantAgain)
				}
				lg.Close()
			}

			// The follower's side: the same bytes as a replica's copy.
			specBytes, err := st.ReadSpecBytes(id)
			if err != nil {
				t.Fatal(err)
			}
			rst := openStore(t, t.TempDir())
			if err := os.MkdirAll(rst.SessionDir(id), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(rst.LogPath(id), data, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := rst.OpenReplica(id, specBytes)
			if err != nil {
				t.Fatalf("%scut %d: open replica: %v", variant, cut, err)
			}
			if rep.Offset() != wantOff || rep.Sealed() != wantSealed || fileSize(t, rst, id) != wantOff {
				t.Fatalf("%scut %d: replica offset=%d sealed=%v file=%d, want %d %v %d",
					variant, cut, rep.Offset(), rep.Sealed(), fileSize(t, rst, id), wantOff, wantSealed, wantOff)
			}
			for _, payload := range invalid {
				if err := rep.Append(payload, wire.AppendFrame(nil, payload)); err == nil {
					t.Fatalf("%scut %d: replica accepted payload % x", variant, cut, payload)
				}
				if rep.Offset() != wantOff || fileSize(t, rst, id) != wantOff {
					t.Fatalf("%scut %d: rejected payload % x moved the replica to offset %d, file %d", variant, cut, payload, rep.Offset(), fileSize(t, rst, id))
				}
			}
			for i, off := whole, wantOff; i < len(ends); i, off = i+1, ends[i] {
				frame := full[off:ends[i]]
				if err := rep.Append(frame[wire.FrameHeaderSize:], frame); err != nil {
					t.Fatalf("%scut %d: ship frame %d: %v", variant, cut, i, err)
				}
				if rep.Sealed() {
					break
				}
				// An open replica's Sync writes its frames through over a
				// zero tail, like the owner's: records, then zeros past
				// Offset.
				if err := rep.Sync(); err != nil {
					t.Fatalf("%scut %d: sync after frame %d: %v", variant, cut, i, err)
				}
				raw, err := os.ReadFile(rst.LogPath(id))
				if err != nil {
					t.Fatal(err)
				}
				if end := rep.Offset(); int64(len(raw)) <= end || !bytes.Equal(raw[:end], full[:end]) || len(bytes.Trim(raw[end:], "\x00")) != 0 {
					t.Fatalf("%scut %d: replica synced at offset %d is a %d-byte file, not the owner's frames then a zero tail", variant, cut, end, len(raw))
				}
			}
			if rep.Offset() != int64(len(full)) || !rep.Sealed() {
				t.Fatalf("%scut %d: caught-up replica at offset %d sealed=%v", variant, cut, rep.Offset(), rep.Sealed())
			}
			if err := rep.Append([]byte{wire.TypeSeal}, wire.AppendFrame(nil, []byte{wire.TypeSeal})); err == nil {
				t.Fatalf("%scut %d: sealed replica accepted another frame", variant, cut)
			}
			if err := rep.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := rep.Close(); err != nil {
				t.Fatal(err)
			}
			// Sealed and closed, the replica is the owner's sealed log byte
			// for byte: its zero tail is cut.
			if raw, err := os.ReadFile(rst.LogPath(id)); err != nil || !bytes.Equal(raw, full) {
				t.Fatalf("%scut %d: closed sealed replica is %d bytes, not the owner's %d-byte log (%v)", variant, cut, len(raw), len(full), err)
			}
			if ids, err := rst.ReplicaIDs(); err != nil || len(ids) != 1 || ids[0] != id {
				t.Fatalf("%scut %d: replica ids %v, %v", variant, cut, ids, err)
			}

			// Promotion: the shipped copy moves into a primary store and
			// recovers like a log that store wrote itself.
			pst := openStore(t, t.TempDir())
			if err := pst.AdoptFrom(rst, id); err != nil {
				t.Fatalf("%scut %d: adopt: %v", variant, cut, err)
			}
			got, err := pst.RecoverSession(id)
			if err != nil {
				t.Fatalf("%scut %d: recover adopted: %v", variant, cut, err)
			}
			alg, asealed, _ := replayAll(t, got)
			if !asealed || alg.Nodes() != nodesAt[len(nodesAt)-1] {
				t.Fatalf("%scut %d: adopted log sealed=%v nodes=%d", variant, cut, asealed, alg.Nodes())
			}
			alg.Close()
			if raw, err := os.ReadFile(pst.LogPath(id)); err != nil || !bytes.Equal(raw, full) {
				t.Fatalf("%scut %d: adopted log differs from the owner's (%v)", variant, cut, err)
			}
		}
	}

	// Two more ways a scan ends mid-file, whole frames behind the bad one
	// notwithstanding: a payload bit flipped under an intact header (the
	// checksum catches it), and a frame whose checksum is right but whose
	// type byte is retired — not a record, so the node behind it is never
	// replayed.
	flipped := bytes.Clone(full)
	flipped[ends[1]+wire.FrameHeaderSize+2] ^= 0x10 // inside the batch frame
	type1, off1 := retiredTypeLog(t, 1)
	type3, off3 := retiredTypeLog(t, 3)
	for _, tc := range []struct {
		data    []byte
		wantOff int64
	}{{flipped, ends[1]}, {type1, off1}, {type3, off3}} {
		data, wantOff := tc.data, tc.wantOff
		st := openStore(t, t.TempDir())
		lg, err := st.Create(id, spec(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
		if err := os.WriteFile(st.LogPath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := st.RecoverSession(id)
		if err != nil {
			t.Fatal(err)
		}
		rl, sealed, _ := replayAll(t, rec)
		if rl.Nodes() != 2 || rl.Flushed() != wantOff || sealed {
			t.Fatalf("walk kept nodes=%d offset=%d sealed=%v, want 2 %d false", rl.Nodes(), rl.Flushed(), sealed, wantOff)
		}
		rl.Close()
	}
}

// TestUndecodableBatchAppliesNone: a batch frame whose checksum holds
// but whose second node does not decode is no record. Replay must not
// hand the visitor its first node either — the group is all-or-nothing
// — and recovery cuts the log in front of it, dropping the healthy
// node frame behind. A replica refuses the same frame.
func TestUndecodableBatchAppliesNone(t *testing.T) {
	const id = "s1-0000ba7c"
	st := openStore(t, t.TempDir())
	lg, err := st.Create(id, spec(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	var data []byte
	for u := int32(0); u < 2; u++ {
		data = append(data, framed(u, 1, []int32{(u + 1) % 2}, nil).Frame...)
	}
	wantOff := int64(len(data))
	payload := wire.AppendBatchHeader(nil, []int32{0, 1})
	payload = append(payload, framed(2, 1, []int32{0}, nil).Frame[wire.FrameHeaderSize:]...)
	payload = append(payload, wire.TypeNode, 9) // a node record cut short
	batch := wire.AppendFrame(nil, payload)
	data = append(data, batch...)
	data = append(data, framed(3, 1, nil, nil).Frame...)
	if err := os.WriteFile(st.LogPath(id), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := st.RecoverSession(id)
	if err != nil {
		t.Fatal(err)
	}
	var us []int32
	slg, sealed, err := rec.Replay(func(u, w int32, adj, ew []int32, block int32) error {
		us = append(us, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rl := slg.(*Log)
	defer rl.Close()
	if len(us) != 2 || us[0] != 0 || us[1] != 1 {
		t.Fatalf("replay visited %v, want [0 1]", us)
	}
	if sealed || rl.Nodes() != 2 || rl.Flushed() != wantOff || fileSize(t, st, id) != wantOff {
		t.Fatalf("recovered sealed=%v nodes=%d offset=%d file=%d, want false 2 %d %d",
			sealed, rl.Nodes(), rl.Flushed(), fileSize(t, st, id), wantOff, wantOff)
	}

	rep, err := st.OpenReplica("s1-0000ba7d", []byte(`{"id":"s1-0000ba7d","spec":{"n":8,"m":8,"k":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Append(payload, batch); err == nil || rep.Offset() != 0 {
		t.Fatalf("replica took the undecodable batch (offset %d, err %v)", rep.Offset(), err)
	}
}

func TestIdleTailFsyncTimer(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	slg, err := st.Create("s9-00000009", spec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg := slg.(*Log)
	// Burn the in-interval sync budget, then leave a dirty tail behind
	// a deferred-sync flush and go idle.
	if err := lg.AppendNodeFrame(framed(0, 1, nil, nil).Frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); err != nil { // fsyncs (first sync was at open)
		t.Fatal(err)
	}
	if err := lg.AppendNodeFrame(framed(1, 1, []int32{0}, nil).Frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); err != nil { // within the interval: sync deferred
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lg.mu.Lock()
		dirty := lg.synced < lg.size
		lg.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle dirty tail never fsynced")
		}
		time.Sleep(10 * time.Millisecond)
	}
	lg.Close()
}

// TestFailedFsyncKillsLog: a deferred fsync that fails surfaces on the
// next Flush and from every later call, and is never retried — after
// failed writeback a retried fsync can succeed over pages the kernel
// already dropped, losing acknowledged records without an error.
func TestFailedFsyncKillsLog(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	slg, err := st.Create("s5-00000005", spec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg := slg.(*Log)
	errDisk := errors.New("injected EIO")
	syncs := 0
	lg.mu.Lock()
	lg.fsync = func() error {
		syncs++
		if syncs == 1 {
			return errDisk
		}
		return nil // what a retry after dropped writeback reports
	}
	lg.mu.Unlock()

	if err := lg.AppendNodeFrame(framed(0, 1, nil, nil).Frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); err != nil { // inside the interval: sync deferred
		t.Fatal(err)
	}
	if syncs != 0 {
		t.Fatalf("%d fsyncs inside the interval, want 0", syncs)
	}
	lg.timedSync() // the idle-tail timer fires; its fsync fails
	if syncs != 1 {
		t.Fatalf("%d fsyncs after the timer, want 1", syncs)
	}
	requireDead(t, lg, errDisk, 1)
	if syncs != 1 {
		t.Fatalf("the failed fsync was retried: %d fsyncs", syncs)
	}

	// The zero tail is held to the same rule. A zero fill that fails
	// ends the log and is never retried...
	slg, err = st.Create("s5-00000015", spec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg = slg.(*Log)
	fills := 0
	lg.mu.Lock()
	lg.writeAt = func([]byte, int64) (int, error) { fills++; return 0, errDisk }
	lg.mu.Unlock()
	if err := lg.AppendNodeFrame(framed(0, 1, nil, nil).Frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); !errors.Is(err, errDisk) { // the first flush extends the tail
		t.Fatalf("Flush over a failed zero fill = %v, want %v", err, errDisk)
	}
	requireDead(t, lg, errDisk, 1)
	if fills != 1 {
		t.Fatalf("the failed zero fill was retried: %d fills", fills)
	}

	// ...and so does a failed sync of a flush that extended the tail.
	st, err = Open(t.TempDir(), Options{}) // fsync on every flush
	if err != nil {
		t.Fatal(err)
	}
	slg, err = st.Create("s5-00000025", spec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg = slg.(*Log)
	if err := lg.AppendNodeFrame(framed(0, 1, nil, nil).Frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	syncs = 0
	lg.mu.Lock()
	lg.fsync = func() error {
		syncs++
		if syncs == 1 {
			return errDisk
		}
		return nil
	}
	extent := lg.extent
	lg.mu.Unlock()
	big := framed(1, 1, make([]int32, extent), nil).Frame // runs past the tail
	if err := lg.AppendNodeFrame(big); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); !errors.Is(err, errDisk) {
		t.Fatalf("Flush over a failed extension sync = %v, want %v", err, errDisk)
	}
	if lg.extent <= extent {
		t.Fatalf("the flush past the tail left it at %d, want past %d", lg.extent, extent)
	}
	requireDead(t, lg, errDisk, 2)
	if syncs != 1 {
		t.Fatalf("the failed extension sync was retried: %d fsyncs", syncs)
	}
}

// requireDead holds a log killed by errDisk to its contract: every later
// Flush, append, Seal and Close returns errDisk, and the log still
// counts exactly the nodes appended before it died.
func requireDead(t *testing.T, lg *Log, errDisk error, nodes int64) {
	t.Helper()
	if err := lg.Flush(); !errors.Is(err, errDisk) {
		t.Fatalf("Flush after the failure = %v, want %v", err, errDisk)
	}
	if err := lg.AppendNodeFrame(framed(7, 1, []int32{0}, nil).Frame); !errors.Is(err, errDisk) {
		t.Fatalf("append after the failure = %v, want %v", err, errDisk)
	}
	if err := lg.AppendBatch([]store.PushNode{framed(8, 1, nil, nil)}, []int32{0}); !errors.Is(err, errDisk) {
		t.Fatalf("batch append after the failure = %v, want %v", err, errDisk)
	}
	if err := lg.Flush(); !errors.Is(err, errDisk) {
		t.Fatalf("second Flush = %v, want %v", err, errDisk)
	}
	if err := lg.Seal(); !errors.Is(err, errDisk) {
		t.Fatalf("Seal = %v, want %v", err, errDisk)
	}
	if err := lg.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("Close = %v, want %v", err, errDisk)
	}
	if n := lg.Nodes(); n != nodes {
		t.Fatalf("log counts %d node records, want the %d appended before the failure", n, nodes)
	}
}

// TestRecoverUnclosedLogKeepsEveryRecord: a log flushed and never closed
// — the daemon crashed — is records, then its zero tail. Recovery cuts
// the tail at the last record, the recovered log resumes appending
// without zeroing a byte of what was acknowledged, and a second
// recovery sees the appended record.
func TestRecoverUnclosedLogKeepsEveryRecord(t *testing.T) {
	const id = "s2-0000face"
	st := openStore(t, t.TempDir())
	slg, err := st.Create(id, spec(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	lg := slg.(*Log)
	for u := int32(0); u < 3; u++ {
		if err := lg.AppendNodeFrame(framed(u, 1, []int32{(u + 1) % 3}, nil).Frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	acked := lg.Flushed()
	raw, err := os.ReadFile(st.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) <= acked {
		t.Fatalf("flushed log of %d bytes has no zero tail (file %d bytes)", acked, len(raw))
	}
	prefix := raw[:acked]
	lg.f.Close() // crash: the file is dropped as it is, tail and all

	recoverLog := func() *Log {
		t.Helper()
		rec, err := st.RecoverSession(id)
		if err != nil {
			t.Fatal(err)
		}
		rl, _, _ := replayAll(t, rec)
		return rl
	}
	rl := recoverLog()
	if rl.Nodes() != 3 || rl.Flushed() != acked {
		t.Fatalf("recovered %d nodes, offset %d; want 3, %d", rl.Nodes(), rl.Flushed(), acked)
	}
	if got := fileSize(t, st, id); got != acked {
		t.Fatalf("recovery left a %d-byte file, want the %d valid bytes", got, acked)
	}
	next := framed(3, 1, []int32{0}, nil).Frame
	if err := rl.AppendNodeFrame(next); err != nil {
		t.Fatal(err)
	}
	if err := rl.Flush(); err != nil { // extends the tail again
		t.Fatal(err)
	}
	raw, err = os.ReadFile(st.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	end := acked + int64(len(next))
	if int64(len(raw)) <= end || !bytes.Equal(raw[:acked], prefix) || !bytes.Equal(raw[acked:end], next) {
		t.Fatalf("resumed log is not the acknowledged bytes, then the new record, then a zero tail")
	}
	rl.f.Close() // crash again

	rl = recoverLog()
	if rl.Nodes() != 4 || rl.Flushed() != end {
		t.Fatalf("second recovery: %d nodes, offset %d; want 4, %d", rl.Nodes(), rl.Flushed(), end)
	}
	// A clean Close of the unsealed log cuts the tail it grew again.
	if err := rl.AppendNodeFrame(framed(4, 1, []int32{0}, nil).Frame); err != nil {
		t.Fatal(err)
	}
	if err := rl.Flush(); err != nil {
		t.Fatal(err)
	}
	if fileSize(t, st, id) <= rl.Flushed() {
		t.Fatal("flushed log has no zero tail")
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, st, id); got != rl.Flushed() {
		t.Fatalf("closed log of %d bytes is a %d-byte file", rl.Flushed(), got)
	}
}

// fileSize is the byte length of one session's log file.
func fileSize(t *testing.T, st *Store, id string) int64 {
	t.Helper()
	fi, err := os.Stat(st.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFailedFsyncKillsReplica holds the replica log to the same rule: a
// failed Sync — its fsync or its zero fill — is returned again by every
// later Sync and Append and is never retried, so the replication
// handler can never ack (or nack) an offset whose frames may not have
// reached the disk.
func TestFailedFsyncKillsReplica(t *testing.T) {
	const id = "s6-00000006"
	st := openStore(t, t.TempDir())
	specBytes, err := json.Marshal(specEnvelope{ID: id, Spec: spec(8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.OpenReplica(id, specBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	errDisk := errors.New("injected EIO")
	syncs := 0
	rep.logFile.fsync = func() error {
		syncs++
		if syncs == 1 {
			return errDisk
		}
		return nil // what a retry after dropped writeback reports
	}
	ship := func(u int32) error {
		frame := framed(u, 1, nil, nil).Frame
		return rep.Append(frame[wire.FrameHeaderSize:], frame)
	}

	if err := ship(0); err != nil {
		t.Fatal(err)
	}
	off := rep.Offset()
	if err := rep.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("Sync = %v, want %v", err, errDisk)
	}
	if err := rep.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("second Sync = %v, want %v", err, errDisk)
	}
	if err := ship(1); !errors.Is(err, errDisk) {
		t.Fatalf("Append after a failed fsync = %v, want %v", err, errDisk)
	}
	if syncs != 1 {
		t.Fatalf("the failed fsync was retried: %d fsyncs", syncs)
	}
	if rep.Offset() != off {
		t.Fatalf("offset moved from %d to %d after the failed fsync", off, rep.Offset())
	}

	// The zero tail is held to the same rule: a zero fill that fails
	// kills the replica and is never retried.
	const id2 = "s6-00000016"
	specBytes, err = json.Marshal(specEnvelope{ID: id2, Spec: spec(8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = st.OpenReplica(id2, specBytes); err != nil {
		t.Fatal(err)
	}
	fills := 0
	rep.logFile.writeAt = func([]byte, int64) (int, error) { fills++; return 0, errDisk }
	if err := ship(0); err != nil {
		t.Fatal(err)
	}
	off = rep.Offset()
	if err := rep.Sync(); !errors.Is(err, errDisk) { // the first sync extends the tail
		t.Fatalf("Sync over a failed zero fill = %v, want %v", err, errDisk)
	}
	if err := rep.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("second Sync = %v, want %v", err, errDisk)
	}
	if err := ship(1); !errors.Is(err, errDisk) {
		t.Fatalf("Append after a failed zero fill = %v, want %v", err, errDisk)
	}
	if err := rep.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("Close after a failed zero fill = %v, want %v", err, errDisk)
	}
	if fills != 1 {
		t.Fatalf("the failed zero fill was retried: %d fills", fills)
	}
	if rep.Offset() != off {
		t.Fatalf("offset moved from %d to %d after the failed zero fill", off, rep.Offset())
	}
}

func TestPartialCreateLeavesNoGhostSession(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// A session directory with a spec but no log models a create that
	// failed partway (Create cleans up after itself; this is the
	// defense if that cleanup itself died). Recovery must skip it with
	// an error, not resurrect an empty session.
	ghost := filepath.Join(dir, sessionsDir, "s8-00000008")
	if err := os.MkdirAll(ghost, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ghost, specName), []byte(`{"id":"s8-00000008","spec":{"n":4,"m":3,"k":2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Recover()
	if err == nil {
		t.Fatal("recovery of a log-less session dir reported no error")
	}
	if len(got) != 0 {
		t.Fatalf("recovered %d ghost sessions, want 0", len(got))
	}
}

func TestRemoveGarbageCollects(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	lg, err := st.Create("s4-00000004", spec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if err := st.Remove("s4-00000004"); err != nil {
		t.Fatal(err)
	}
	got, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("recovered %d sessions after remove, want 0", len(got))
	}
	if _, err := os.Stat(filepath.Join(dir, sessionsDir, "s4-00000004")); !os.IsNotExist(err) {
		t.Fatalf("session dir survives remove: %v", err)
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchOf converts push records to service nodes plus fake blocks.
func batchOf(recs []pushRec) ([]store.PushNode, []int32) {
	nodes := make([]store.PushNode, len(recs))
	blocks := make([]int32, len(recs))
	for i, r := range recs {
		nodes[i] = framed(r.u, r.w, r.adj, r.ew)
		blocks[i] = r.u % 8
	}
	return nodes, blocks
}

// TestBatchFrameRoundTrip: a group-committed batch replays every node
// with its recorded block, interleaved correctly with per-node frames.
func TestBatchFrameRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, _ := testStream(t, 600)

	lg, err := st.Create("s1-0000bbbb", spec(600, 0))
	if err != nil {
		t.Fatal(err)
	}
	// One per-node frame, then a batch frame, then another per-node
	// frame: replay must see all three in order with the right blocks.
	if err := lg.AppendNodeFrame(framed(recs[0].u, recs[0].w, recs[0].adj, recs[0].ew).Frame); err != nil {
		t.Fatal(err)
	}
	nodes, blocks := batchOf(recs[1:400])
	if err := lg.AppendBatch(nodes, blocks); err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendNodeFrame(framed(recs[400].u, recs[400].w, recs[400].adj, recs[400].ew).Frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(got))
	}
	i := 0
	rl, _, err := got[0].Replay(func(u, w int32, adj, ew []int32, block int32) error {
		want := recs[i]
		if u != want.u || w != want.w || !equalI32(adj, want.adj) {
			t.Fatalf("record %d: got (%d,%d,%v), want %+v", i, u, w, adj, want)
		}
		switch i {
		case 0, 400:
			if block != -1 {
				t.Fatalf("per-node record %d replayed with block %d, want -1", i, block)
			}
		default:
			if block != want.u%8 {
				t.Fatalf("batch record %d replayed block %d, want %d", i, block, want.u%8)
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 401 {
		t.Fatalf("replayed %d records, want 401", i)
	}
	rl.Close()
}

// TestOversizedBatchRejectedNotSplit: a batch that cannot fit one frame
// is an error — the group-commit guarantee forbids silently splitting
// it into independently-torn frames.
func TestOversizedBatchRejectedNotSplit(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	slog, err := st.Create("s1-0000dddd", spec(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg := slog.(*Log)
	defer lg.Close()
	// 300 nodes sharing one frame of a 1M-entry adjacency: even at one
	// byte per varint delta the group exceeds the bound, and the size
	// check rejects it before copying anything.
	big := framed(0, 1, make([]int32, 1<<20), nil)
	nodes := make([]store.PushNode, 300)
	blocks := make([]int32, 300)
	for i := range nodes {
		nodes[i] = big
	}
	if err := lg.AppendBatch(nodes, blocks); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// A node that reaches the log without its frame is refused the same
	// way: the log re-encodes nothing and never writes an empty record.
	if err := lg.AppendNodeFrame(nil); err == nil {
		t.Fatal("frameless node accepted")
	}
	if err := lg.AppendBatch([]store.PushNode{big, {U: 1, W: 1}}, []int32{0, 1}); err == nil {
		t.Fatal("batch with a frameless node accepted")
	}
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	if lg.Nodes() != 0 || lg.Flushed() != 0 {
		t.Fatalf("rejected appends logged %d nodes, %d bytes", lg.Nodes(), lg.Flushed())
	}
}
