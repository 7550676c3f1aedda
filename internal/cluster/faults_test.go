package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"oms/client"
	"oms/internal/store"
	"oms/internal/wire"
)

// rawStream is a hand-rolled owner half of a replication stream, used
// to inject faults the real shipper never produces.
type rawStream struct {
	pw   *io.PipeWriter
	resp *http.Response
	rd   *wire.Reader
}

func openRaw(t *testing.T, url, id string, spec []byte) *rawStream {
	t.Helper()
	r, err := dialRaw(url, id, spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// dialRaw opens a replication stream with its spec frame and returns
// once the follower has answered the request.
func dialRaw(url, id string, spec []byte) (*rawStream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", url+"/v1/replica/sessions/"+id, pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.MediaType)
	type reply struct {
		resp *http.Response
		err  error
	}
	ch := make(chan reply, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			pr.CloseWithError(err)
		}
		ch <- reply{resp, err}
	}()
	if _, err := pw.Write(wire.AppendFrame(nil, append([]byte{repSpec}, spec...))); err != nil {
		return nil, err
	}
	rep := <-ch
	if rep.err != nil {
		return nil, rep.err
	}
	if rep.resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(rep.resp.Body)
		rep.resp.Body.Close()
		return nil, fmt.Errorf("replica stream refused: %s: %s", rep.resp.Status, body)
	}
	return &rawStream{pw: pw, resp: rep.resp, rd: wire.NewReader(rep.resp.Body)}, nil
}

func (r *rawStream) readCtl(t *testing.T) (byte, int64) {
	t.Helper()
	payload, _, err := r.rd.NextFrame()
	if err != nil {
		t.Fatalf("read control frame: %v", err)
	}
	typ, off, err := parseCtl(payload)
	if err != nil {
		t.Fatal(err)
	}
	return typ, off
}

func (r *rawStream) close() {
	r.pw.Close()
	r.resp.Body.Close()
}

// frameBoundaries parses a WAL file into cumulative frame-end offsets.
func frameBoundaries(t *testing.T, b []byte) []int64 {
	t.Helper()
	rd := wire.NewReader(bytes.NewReader(b))
	var ends []int64
	var off int64
	for {
		_, frame, err := rd.NextFrame()
		if err == io.EOF {
			return ends
		}
		if err != nil {
			t.Fatalf("owner log does not parse: %v", err)
		}
		off += int64(len(frame))
		ends = append(ends, off)
	}
}

// authorLog authors an authentic 32-node session log offline in
// owner's primary store, bypassing owner's node so no real shipper
// competes with the test. The id is one follower does not own, or it
// would refuse to follow it. It returns the id, the closed log's bytes,
// their frame-end offsets and the session's spec bytes.
func authorLog(t *testing.T, owner, follower *testNode) (id string, log []byte, ends []int64, spec []byte) {
	t.Helper()
	for i := 0; ; i++ {
		id = fmt.Sprintf("t%d-%08x", i, i)
		if follower.node.ring.Load().Owner(id) == owner.id {
			break
		}
	}
	l, err := owner.store.Create(id, store.CreateSpec{N: 32, M: 31, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 32; u++ {
		if err := l.AppendNodeFrame(wire.AppendNodeFrame(nil, u, 1, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Close, not just Flush: an open log's file runs on into its zero
	// tail, and only a closed one ends at its last record.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	log = readLog(t, owner.store, id)
	if spec, err = owner.store.ReadSpecBytes(id); err != nil {
		t.Fatal(err)
	}
	return id, log, frameBoundaries(t, log), spec
}

// TestShippedFrameCorruptionNackAndResume: a corrupted frame on the
// wire is rejected by the follower's CRC check with a nack carrying its
// durable offset, and a reconnecting owner is told — via the hello-ack
// — to resend from exactly that offset. After the resend the replica is
// byte-identical.
func TestShippedFrameCorruptionNackAndResume(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2"}, Config{AckMode: "async"})
	n1, n2 := tc.nodes["n1"], tc.nodes["n2"]

	id, want, ends, spec := authorLog(t, n1, n2)
	if len(ends) < 6 {
		t.Fatalf("need more frames, got %d", len(ends))
	}

	// Stream 1: three good frames, then one with a flipped payload byte.
	s1 := openRaw(t, n2.url, id, spec)
	if typ, off := s1.readCtl(t); typ != repAck || off != 0 {
		t.Fatalf("hello-ack %#x @%d, want ack @0", typ, off)
	}
	good := ends[2]
	if _, err := s1.pw.Write(want[:good]); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, want[good:ends[3]]...)
	bad[len(bad)-1] ^= 0x40 // corrupt the last payload byte: CRC mismatch
	if _, err := s1.pw.Write(bad); err != nil {
		t.Fatal(err)
	}
	var nackOff int64 = -1
	for {
		typ, off := s1.readCtl(t)
		if typ == repNack {
			nackOff = off
			break
		}
		if typ != repAck {
			t.Fatalf("unexpected control frame %#x", typ)
		}
	}
	s1.close()
	if nackOff != good {
		t.Fatalf("nack at %d, want the last intact boundary %d", nackOff, good)
	}
	if got, _ := os.ReadFile(n2.replicas.LogPath(id)); string(got) != string(want[:good]) {
		t.Fatalf("replica holds %d bytes after nack, want the %d intact ones", len(got), good)
	}

	// Stream 2: the hello-ack is the re-request point — it must name the
	// follower's durable offset, and resending from there completes the
	// replica byte-for-byte.
	s2 := openRaw(t, n2.url, id, spec)
	typ, off := s2.readCtl(t)
	if typ != repAck || off != good {
		t.Fatalf("reconnect hello-ack %#x @%d, want ack @%d", typ, off, good)
	}
	if _, err := s2.pw.Write(want[off:]); err != nil {
		t.Fatal(err)
	}
	s2.pw.Close()
	final := int64(-1)
	for {
		typ, off := s2.readCtl(t)
		if typ != repAck {
			t.Fatalf("unexpected control frame %#x", typ)
		}
		if off == int64(len(want)) {
			final = off
			break
		}
	}
	// The final ack may be the acker's tick: wait for the follower to
	// hang up, which it does only after closing the replica — frames
	// synced, zero tail cut.
	io.Copy(io.Discard, s2.resp.Body)
	s2.resp.Body.Close()
	if final != int64(len(want)) {
		t.Fatalf("final ack %d, want %d", final, len(want))
	}
	if got, _ := os.ReadFile(n2.replicas.LogPath(id)); string(got) != string(want) {
		t.Fatal("replica not byte-identical after resend")
	}
	if tc.nodes["n2"].reg.Snapshot()["oms_repl_nacks_total"] == 0 {
		t.Error("follower nack counter did not move")
	}
}

// TestSupersedingStreamClosesTheOldFirst: an owner that reconnects
// while its old stream still holds appended frames gets a hello-ack
// covering every frame the old stream received — the old stream closes,
// writing them through, before the new one walks the file — and after
// resending from there the replica is the owner's log byte for byte.
func TestSupersedingStreamClosesTheOldFirst(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2"}, Config{AckMode: "async"})
	n1, n2 := tc.nodes["n1"], tc.nodes["n2"]
	id, want, ends, spec := authorLog(t, n1, n2)
	held := ends[len(ends)/2]

	a := openRaw(t, n2.url, id, spec)
	defer a.close()
	if typ, off := a.readCtl(t); typ != repAck || off != 0 {
		t.Fatalf("hello-ack %#x @%d, want ack @0", typ, off)
	}
	if _, err := a.pw.Write(want[:held]); err != nil {
		t.Fatal(err)
	}
	// Hold stream A's lock as soon as it has appended every frame: its
	// acker, which would write them through within one tick, cannot
	// while stream B connects.
	n2.node.mu.Lock()
	rs := n2.node.repl[id]
	n2.node.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); ; {
		rs.mu.Lock()
		if rs.rl.Offset() == held {
			break
		}
		rs.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("stream A never appended its frames")
		}
		time.Sleep(50 * time.Microsecond)
	}
	type dialed struct {
		r   *rawStream
		err error
	}
	ch := make(chan dialed, 1)
	go func() {
		r, err := dialRaw(n2.url, id, spec)
		ch <- dialed{r, err}
	}()
	time.Sleep(50 * time.Millisecond) // let stream B reach its open
	rs.mu.Unlock()
	d := <-ch
	if d.err != nil {
		t.Fatal(d.err)
	}
	b := d.r
	typ, off := b.readCtl(t)
	if typ != repAck || off != held {
		t.Fatalf("superseding hello-ack %#x @%d, want ack @%d: frames stream A received were cut", typ, off, held)
	}
	if _, err := b.pw.Write(want[off:]); err != nil {
		t.Fatal(err)
	}
	b.pw.Close()
	for {
		typ, off := b.readCtl(t)
		if typ != repAck {
			t.Fatalf("unexpected control frame %#x", typ)
		}
		if off == int64(len(want)) {
			break
		}
	}
	// Wait for the follower to hang up, which it does only after
	// closing the replica.
	io.Copy(io.Discard, b.resp.Body)
	b.resp.Body.Close()
	if got, _ := os.ReadFile(n2.replicas.LogPath(id)); !bytes.Equal(got, want) {
		t.Fatalf("replica holds %d bytes, not the owner's %d", len(got), len(want))
	}
}

// TestStalledFollower: a follower that accepts the stream but never
// acks must not block async-mode ingest; the lag gauge exposes the
// unacknowledged bytes. In sync mode the same stall degrades each
// flush after AckTimeout, counted, still without failing ingest.
func TestStalledFollower(t *testing.T) {
	for _, mode := range []string{"async", "sync"} {
		t.Run(mode, func(t *testing.T) {
			ln1, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln2, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tc := &testCluster{t: t, peers: map[string]string{
				"n1": "http://" + ln1.Addr().String(),
				"n2": "http://" + ln2.Addr().String(),
			}, nodes: map[string]*testNode{}, logs: map[string]*safeLog{},
				cfg: Config{AckMode: mode, AckTimeout: 50 * time.Millisecond}}

			// n2 is a stub follower: healthy, accepts the stream, sends the
			// hello-ack, then goes silent without reading further.
			stall := make(chan struct{})
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {})
			mux.HandleFunc("POST /v1/replica/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
				rc := http.NewResponseController(w)
				rc.EnableFullDuplex()
				rd := wire.NewReader(r.Body)
				if _, _, err := rd.NextFrame(); err != nil { // spec
					return
				}
				w.Header().Set("Content-Type", wire.MediaType)
				w.WriteHeader(http.StatusOK)
				w.Write(ctlFrame(repAck, 0))
				rc.Flush()
				select {
				case <-stall:
				case <-r.Context().Done():
				}
			})
			stub := &http.Server{Handler: mux}
			go stub.Serve(ln2)
			t.Cleanup(func() { close(stall); stub.Close() })

			n1 := tc.startNode("n1", t.TempDir(), ln1)
			t.Cleanup(func() {
				tc.logs["n1"].silence()
				tc.stopNode("n1")
			})

			s, err := n1.mgr.Create(store.CreateSpec{N: 4096, M: 4095, K: 4})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			cl := client.New(n1.url)
			pushN(t, cl, s.ID, 0, 4096)
			elapsed := time.Since(start)

			snap := n1.reg.Snapshot()
			if lag := snap["oms_repl_lag_bytes"]; lag <= 0 {
				t.Errorf("lag gauge %d after stalled follower, want > 0", lag)
			}
			if mode == "async" {
				// No ack wait anywhere: pushing 4096 nodes must not take
				// anything like an ack timeout per flush.
				if elapsed > 5*time.Second {
					t.Errorf("async ingest took %v against a stalled follower", elapsed)
				}
				if snap["oms_repl_sync_degraded_total"] != 0 {
					t.Errorf("async mode counted sync degradations")
				}
			} else {
				if snap["oms_repl_sync_degraded_total"] == 0 {
					t.Errorf("sync mode never counted a degraded flush against a stalled follower")
				}
			}
		})
	}
}

// TestPartitionedFollowerCatchUp: a follower that drops off mid-stream
// and later rejoins is caught up from its persisted offset — the owner
// reships only the tail, and the replica converges byte-for-byte.
func TestPartitionedFollowerCatchUp(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2"}, Config{AckMode: "async"})
	n1 := tc.nodes["n1"]

	s, err := n1.mgr.Create(store.CreateSpec{N: 2000, M: 1999, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	follower := tc.nodes["n2"]
	cl := client.New(n1.url)
	pushN(t, cl, id, 0, 1000)
	// A live replica's file runs on into its zero tail, like the owner's:
	// replicated means the owner's flushed bytes, then only zeros.
	var before int64
	waitFor(t, 5*time.Second, "first half replicated", func() bool {
		before = logFlushed(n1, id)
		got, err := os.ReadFile(follower.replicas.LogPath(id))
		want := readLog(t, n1.store, id)
		return err == nil && before > 0 && int64(len(got)) >= before &&
			bytes.Equal(got[:before], want[:before]) && len(bytes.Trim(got[before:], "\x00")) == 0
	})

	// Partition: the follower vanishes; async ingest keeps going.
	dir := tc.stopNode("n2")
	pushN(t, cl, id, 1000, 2000)
	if _, err := cl.Finish(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	// Rejoin on the same address over the same directories: the reopened
	// replica's scan reports its durable offset and the owner ships the
	// tail from there.
	tc.startNode("n2", dir, nil)
	restarted := tc.nodes["n2"]
	want := readLog(t, n1.store, id)
	waitFor(t, 10*time.Second, "catch-up after rejoin", func() bool {
		got, err := os.ReadFile(restarted.replicas.LogPath(id))
		return err == nil && string(got) == string(want)
	})
	after, err := os.Stat(restarted.replicas.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() <= before {
		t.Fatalf("replica did not grow across the partition: %d -> %d", before, after.Size())
	}
}

// logFlushed reads the owner-side flushed boundary of a session's log
// through its shipper (test-only helper).
func logFlushed(tn *testNode, id string) int64 {
	tn.node.mu.Lock()
	defer tn.node.mu.Unlock()
	sh := tn.node.shippers[id]
	if sh == nil {
		return -1
	}
	return sh.log.Flushed()
}
