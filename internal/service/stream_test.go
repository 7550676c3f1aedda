package service

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
	"time"

	"oms"
	"oms/internal/store"
	"oms/internal/wire"
)

// dialStream opens a connection to base, asks it to upgrade
// POST /v1/sessions/{id}/nodes to wire.StreamProtocol, with hdr added,
// and returns the connection, a frame reader over what follows the 101
// and the 101 itself. The connection closes at cleanup.
func dialStream(t *testing.T, base, id string, hdr http.Header) (net.Conn, *wire.Reader, *http.Response) {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+id+"/nodes", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.MediaType)
	req.Header.Set("Accept", wire.MediaType)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.StreamProtocol)
	for k, v := range hdr {
		req.Header[k] = v
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != wire.StreamProtocol {
		t.Fatalf("upgrade answered %s, Upgrade %q", resp.Status, resp.Header.Get("Upgrade"))
	}
	return conn, wire.NewReader(br), resp
}

// TestNodesRepliesAdvertiseUpgrade: every /nodes reply advertises
// wire.StreamProtocol in an Upgrade header with its Connection option,
// and no reply carries the X-OMS-Stream header, so a client that opens
// pipe-bodied streams on seeing it never does here. A request that asks
// for such a stream (X-OMS-Stream: 1, one body holding two pushes) is a
// plain request: answered once its body ended, with the replies two
// plain pushes get, and no chunk counted as streamed.
func TestNodesRepliesAdvertiseUpgrade(t *testing.T) {
	g := oms.GenGrid2D(8, 16, false)
	n := g.NumNodes()
	mgr, srv := newTestServer(t, Config{})
	var ids [2]createReply
	for i := range ids {
		postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: n, M: g.NumEdges(), K: 4, Seed: 3}, &ids[i])
	}
	post := func(id string, lo, hi int32, hdr http.Header) []int32 {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/sessions/"+id+"/nodes", bytes.NewReader(wireGraph(g, lo, hi)))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header[k] = v
		}
		req.Header.Set("Content-Type", wire.MediaType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Upgrade") != wire.StreamProtocol ||
			!wire.HasToken(resp.Header.Get("Connection"), "upgrade") || resp.Header.Get("X-OMS-Stream") != "" {
			t.Fatalf("status %d, Upgrade %q, Connection %q, X-OMS-Stream %q", resp.StatusCode,
				resp.Header.Get("Upgrade"), resp.Header.Get("Connection"), resp.Header.Get("X-OMS-Stream"))
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]int32, n)
		for i := range parts {
			parts[i] = -1
		}
		readAssignFrames(t, wire.NewReader(bytes.NewReader(raw)), int(hi-lo), parts)
		return parts
	}
	half := n / 2
	want := post(ids[0].ID, 0, half, nil)
	for u, b := range post(ids[0].ID, half, n, nil) {
		if b >= 0 {
			want[u] = b
		}
	}
	got := post(ids[1].ID, 0, n, http.Header{"X-Oms-Stream": {"1"}})
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: %d in one X-OMS-Stream request, %d in two plain pushes", u, got[u], want[u])
		}
	}
	if c := mgr.Registry().Snapshot()["omsd_push_stream_chunks_total"]; c != 0 {
		t.Fatalf("omsd_push_stream_chunks_total %d, want 0", c)
	}
}

// TestStreamEndsAtChunkBoundary: once the Manager's streams are asked
// to end (EndStreams, as omsd does when shutdown starts), a stream
// waiting inside a push, with half of a frame in, reads and answers the
// rest of that push before it ends; an upgrade asked for after that is
// closed unanswered; WaitStreams then returns at once.
func TestStreamEndsAtChunkBoundary(t *testing.T) {
	g := oms.GenGrid2D(8, 16, false)
	n := g.NumNodes()
	mgr, srv := newTestServer(t, Config{})
	var created createReply
	postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: n, M: g.NumEdges(), K: 4}, &created)
	conn, rd, _ := dialStream(t, srv.URL, created.ID, nil)
	parts := make([]int32, n)
	if _, err := conn.Write(wireGraph(g, 0, 32)); err != nil {
		t.Fatal(err)
	}
	readAssignFrames(t, rd, 32, parts)

	push := wireGraph(g, 32, 64)
	cut := len(wireGraph(g, 32, 40)) + 3 // inside the ninth frame
	if _, err := conn.Write(push[:cut]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the server holds the head and waits
	mgr.EndStreams()
	time.Sleep(20 * time.Millisecond)
	if _, err := conn.Write(push[cut:]); err != nil {
		t.Fatal(err)
	}
	readAssignFrames(t, rd, 32, parts)
	if _, _, err := rd.NextFrame(); err != io.EOF {
		t.Fatalf("after the last push of an ending stream: %v, want EOF", err)
	}

	late, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/nodes", nil)
	req.Header.Set("Content-Type", wire.MediaType)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.StreamProtocol)
	if err := req.Write(late); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.ReadResponse(bufio.NewReader(late), req); err == nil {
		t.Fatalf("an upgrade after EndStreams answered %s", resp.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := mgr.WaitStreams(ctx); err != nil {
		t.Fatalf("WaitStreams: %v", err)
	}
	s, err := mgr.Get(created.ID)
	if err != nil || s.eng.Assigned() != 64 {
		t.Fatalf("session %v: want 64 nodes assigned", err)
	}
}

// TestManagerCloseEndsOpenStreams: Manager.Close with streams open,
// idle between pushes, returns well within streamCloseWait, each stream
// reads a clean end, and once the clients close their side the
// goroutine count is back where it was before the server started.
func TestManagerCloseEndsOpenStreams(t *testing.T) {
	base := runtime.NumGoroutine()
	g := oms.GenGrid2D(8, 16, false)
	n := g.NumNodes()
	mgr := NewManager(Config{JanitorPeriod: time.Hour})
	srv := httptest.NewServer(NewServer(mgr))
	const streams = 4
	var conns []net.Conn
	var rds []*wire.Reader
	for range streams {
		var created createReply
		postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: n, M: g.NumEdges(), K: 4}, &created)
		conn, rd, _ := dialStream(t, srv.URL, created.ID, nil)
		if _, err := conn.Write(wireGraph(g, 0, 16)); err != nil {
			t.Fatal(err)
		}
		readAssignFrames(t, rd, 16, make([]int32, n))
		conns, rds = append(conns, conn), append(rds, rd)
	}
	http.DefaultClient.CloseIdleConnections()
	srv.Close()
	t0 := time.Now()
	mgr.Close()
	if d := time.Since(t0); d > streamCloseWait/2 {
		t.Fatalf("Manager.Close took %v with %d idle streams open", d, streams)
	}
	for i, rd := range rds {
		_ = conns[i].SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := rd.NextFrame(); err != io.EOF {
			t.Fatalf("stream %d after Close: %v, want EOF", i, err)
		}
		conns[i].Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the server started:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
