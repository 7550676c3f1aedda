package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"oms"
	"oms/client"
	"oms/internal/wire"
)

// TestDrainEndsOpenStream: omsd shutting down while a binary client
// pushes over an open stream, mid-session, and while another stream
// sits idle between pushes, returns nil within its -drain, though
// http.Server.Shutdown neither waits for nor closes an upgraded
// connection; the idle stream reads a clean end at once; and every push
// omsd acknowledged is in the log: the restarted daemon answers those
// nodes with the same blocks, and the finished session's result repeats
// them.
func TestDrainEndsOpenStream(t *testing.T) {
	dataDir := t.TempDir()
	g := oms.GenGrid2D(64, 64, false)
	n := g.NumNodes()
	nodes := make([]client.Node, n)
	for u := range n {
		nodes[u] = client.Node{U: u, Adj: g.Neighbors(u)}
	}
	const drain = 3 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-drain", drain.String()}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}
	c := client.New(base, client.WithBinary(true))
	cr, err := c.Create(context.Background(), client.Spec{N: n, M: g.NumEdges(), K: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	idle, err := c.Create(context.Background(), client.Spec{N: n, M: g.NumEdges(), K: 8})
	if err != nil {
		t.Fatal(err)
	}
	conn, rd := dialStream(t, base, idle.ID)
	if _, err := conn.Write(wire.AppendNodeFrame(nil, 0, 1, g.Neighbors(0), nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rd.NextFrame(); err != nil {
		t.Fatalf("idle stream's push: %v", err)
	}

	// Push until a push fails; shut down once a few have ridden the
	// stream.
	var mu sync.Mutex
	acked := make(map[int32]int32)
	streaming := make(chan struct{})
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		for lo := int32(0); lo < n; lo += 64 {
			as, err := c.Push(context.Background(), cr.ID, nodes[lo:lo+64])
			mu.Lock()
			for _, a := range as {
				acked[a.U] = a.B
			}
			mu.Unlock()
			if err != nil {
				return
			}
			if lo == 4*64 {
				close(streaming)
			}
		}
	}()
	<-streaming
	t0 := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown with a stream open: %v", err)
		}
	case <-time.After(2 * drain):
		t.Fatal("daemon did not shut down")
	}
	if d := time.Since(t0); d > drain {
		t.Fatalf("shutdown took %v, longer than its %v drain", d, drain)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := rd.NextFrame(); err != io.EOF {
		t.Fatalf("idle stream after the shutdown: %v, want EOF", err)
	}
	<-pushed
	mu.Lock()
	defer mu.Unlock()
	if len(acked) < 5*64 {
		t.Fatalf("%d nodes acknowledged before the shutdown, want at least %d", len(acked), 5*64)
	}

	base, stop := startDaemon(t, "-data-dir", dataDir)
	defer stop()
	c = client.New(base)
	sum, err := c.Status(context.Background(), cr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Assigned < int32(len(acked)) {
		t.Fatalf("%d nodes recovered, %d were acknowledged", sum.Assigned, len(acked))
	}
	for lo := int32(0); lo < n; lo += 64 {
		as, err := c.Push(context.Background(), cr.ID, nodes[lo:lo+64])
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range as {
			if b, ok := acked[a.U]; ok && a.B != b {
				t.Fatalf("node %d answered %d after the restart, %d before", a.U, a.B, b)
			}
		}
	}
	if _, err := c.Finish(context.Background(), cr.ID); err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(context.Background(), cr.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	for u, b := range acked {
		if res.Parts[u] != b {
			t.Fatalf("node %d: result %d, acknowledged %d", u, res.Parts[u], b)
		}
	}
	if i := slices.Index(res.Parts, -1); i >= 0 {
		t.Fatalf("node %d unassigned in the result", i)
	}
}

// dialStream opens a connection to base and upgrades
// POST /v1/sessions/{id}/nodes on it to an open stream, as a binary
// client does; it returns the connection and a frame reader over what
// follows the 101. The connection closes at cleanup.
func dialStream(t *testing.T, base, id string) (net.Conn, *wire.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
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
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v, %v", resp, err)
	}
	return conn, wire.NewReader(br)
}
