package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"oms/internal/service"
	"oms/internal/wire"
)

// ringNodes is an n-node cycle with chords of stride s: a different
// graph per stride, so replies from different sessions differ.
func ringNodes(n, s int32) []Node {
	nodes := make([]Node, n)
	for u := range n {
		nodes[u] = Node{U: u, Adj: []int32{(u + n - 1) % n, (u + 1) % n, (u + s) % n, (u + n - s) % n}}
	}
	return nodes
}

// pushAll creates a session over nodes and pushes them in chunks,
// alternating between clients (and so formats) from chunk to chunk.
func pushAll(ctx context.Context, clients []*Client, g int, nodes []Node, chunk int) ([][]Assignment, error) {
	n := int32(len(nodes))
	created, err := clients[0].Create(ctx, Spec{N: n, M: 2 * int64(n), K: int32(4 + g), Seed: uint64(g)})
	if err != nil {
		return nil, err
	}
	var replies [][]Assignment
	for i := 0; i < len(nodes); i += chunk {
		c := clients[(g+i/chunk)%len(clients)]
		as, err := c.Push(ctx, created.ID, nodes[i:min(i+chunk, len(nodes))])
		if err != nil {
			return nil, fmt.Errorf("session %d, chunk at %d: %w", g, i, err)
		}
		replies = append(replies, as)
	}
	return replies, nil
}

// TestConcurrentPushesMatchSequential: goroutines sharing one binary and
// one NDJSON Client, each streaming its own session through both, get
// exactly the replies a sequential run gets — pooled push state never
// leaks between requests, formats or goroutines. An in-band error read
// before all that traffic recycled the pooled state keeps its message.
func TestConcurrentPushesMatchSequential(t *testing.T) {
	url := testServer(t)
	ctx := context.Background()
	clients := []*Client{New(url), New(url, WithBinary(true))}
	const goroutines, n, chunk = 8, 512, 48

	bad, err := clients[1].Create(ctx, Spec{N: 4, M: 3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := clients[1].Push(ctx, bad.ID, append(pathNodes()[:2], Node{U: 99}))
	var inband *Error
	if !errors.As(err, &inband) || inband.Status != 0 || inband.Message == "" {
		t.Fatalf("want an in-band error, got %v", err)
	}
	wantMsg, wantPrefix := strings.Clone(inband.Message), slices.Clone(prefix)

	want := make([][][]Assignment, goroutines)
	for g := range goroutines {
		if want[g], err = pushAll(ctx, clients[:1], g, ringNodes(n, int32(3+g)), chunk); err != nil {
			t.Fatal(err)
		}
	}

	got := make([][][]Assignment, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = pushAll(ctx, clients, g, ringNodes(n, int32(3+g)), chunk)
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if len(got[g]) != len(want[g]) {
			t.Fatalf("session %d: %d replies, want %d", g, len(got[g]), len(want[g]))
		}
		for i := range want[g] {
			if !slices.Equal(got[g][i], want[g][i]) {
				t.Fatalf("session %d, reply %d differs from the sequential run:\n got %v\nwant %v",
					g, i, got[g][i], want[g][i])
			}
		}
	}

	if inband.Message != wantMsg {
		t.Fatalf("in-band error message changed after the pooled state was recycled: %q, want %q",
			inband.Message, wantMsg)
	}
	if !slices.Equal(prefix, wantPrefix) {
		t.Fatalf("accepted prefix changed after the pooled state was recycled: %v, want %v", prefix, wantPrefix)
	}
}

// TestReleaseDropsOversizedScratch: a state goes back to the pool
// without any buffer that grew past maxPooledScratch, and keeps the
// ones that did not.
func TestReleaseDropsOversizedScratch(t *testing.T) {
	big := pushState{rd: wire.NewReader(nil), body: make([]byte, 0, maxPooledScratch+1)}
	big.us, big.bs = make([]int32, 0, maxPooledScratch/4+1), make([]int32, 0, maxPooledScratch/4+1)
	big.rd.Arena.Raw = make([]byte, 0, maxPooledScratch+1)
	big.release()
	if big.body != nil || big.us != nil || big.bs != nil || big.rd != nil {
		t.Fatalf("oversized scratch pooled: body %d, us %d, bs %d, reader %v",
			cap(big.body), cap(big.us), cap(big.bs), big.rd != nil)
	}

	small := pushState{rd: wire.NewReader(nil)}
	body, _ := small.encode(true, pathNodes())
	small.release()
	if cap(small.body) < len(body) || small.rd == nil {
		t.Fatalf("warm scratch dropped: body %d, reader %v", cap(small.body), small.rd != nil)
	}
}

// TestPushFollowsRedirect: a 307 in front of the ingest route makes
// net/http rewind the request body through GetBody and send it again;
// the replayed body must be the encoded nodes, in either format, both
// for a push sent from memory and for one larger than streamHead,
// which is encoded while it is sent and must replay from its first
// byte.
func TestPushFollowsRedirect(t *testing.T) {
	url := testServer(t)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, url+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	t.Cleanup(front.Close)
	ctx := context.Background()
	for _, tc := range []struct {
		spec  Spec
		nodes []Node
	}{
		{Spec{N: 4, M: 3, K: 2}, pathNodes()},
		{Spec{N: 4096, M: 2 * 4096, K: 8}, ringNodes(4096, 3)},
	} {
		for _, binary := range []bool{false, true} {
			direct := New(url, WithBinary(binary))
			redirected := New(front.URL, WithBinary(binary))
			var replies [2][]Assignment
			for i, c := range []*Client{direct, redirected} {
				created, err := direct.Create(ctx, tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if replies[i], err = c.Push(ctx, created.ID, tc.nodes); err != nil {
					t.Fatalf("%d nodes, binary=%v: %v", len(tc.nodes), binary, err)
				}
			}
			if len(replies[1]) != len(tc.nodes) || !slices.Equal(replies[0], replies[1]) {
				t.Fatalf("%d nodes, binary=%v: redirected push %v, direct push %v",
					len(tc.nodes), binary, replies[1], replies[0])
			}
		}
	}
}

// TestPushBodyBytes captures the raw request body of a push at the
// server: in either format it is the nodes' wire.AppendNodeLine or
// wire.AppendNodeFrame output, concatenated, byte for byte. A 64-node
// push goes out from memory with a Content-Length; a 4096-node one,
// larger than streamHead, is chunk-encoded as it is encoded.
func TestPushBodyBytes(t *testing.T) {
	var mu sync.Mutex
	var got []byte
	var length int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		mu.Lock()
		got, length = body, r.ContentLength
		mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	}))
	t.Cleanup(srv.Close)
	ctx := context.Background()
	for _, n := range []int32{64, 4096} {
		nodes := ringNodes(n, 3)
		nodes[1].W, nodes[1].EW = 5, []int32{1, 2, 3, 4}
		for _, binary := range []bool{false, true} {
			var want []byte
			for _, nd := range nodes {
				if binary {
					want = wire.AppendNodeFrame(want, nd.U, nd.W, nd.Adj, nd.EW)
				} else {
					want = wire.AppendNodeLine(want, nd.U, nd.W, nd.Adj, nd.EW)
				}
			}
			if _, err := New(srv.URL, WithBinary(binary)).Push(ctx, "s", nodes); err != nil {
				t.Fatalf("%d nodes, binary=%v: %v", n, binary, err)
			}
			mu.Lock()
			body, cl := got, length
			mu.Unlock()
			if !bytes.Equal(body, want) {
				t.Fatalf("%d nodes, binary=%v: the server read %d bytes, want the %d encoded ones",
					n, binary, len(body), len(want))
			}
			wantCL := int64(len(want))
			if len(want) > streamHead {
				wantCL = -1 // streamed: chunked, no Content-Length
			}
			if cl != wantCL {
				t.Fatalf("%d nodes, binary=%v: Content-Length %d, want %d", n, binary, cl, wantCL)
			}
		}
	}
}

// TestPushFencesEarlyAnswer pushes a body larger than streamHead into a
// finished session, which answers 409 after its first chunk, while the
// client is still encoding the rest. The transport may go on reading
// the body after Push returns; overwriting every adjacency list at once
// must not race with it (run under -race), and the push must fail with
// ErrFinished. Both formats share one transport: the early answer closes
// its connection, so the next request opens a fresh one.
func TestPushFencesEarlyAnswer(t *testing.T) {
	url := testServer(t)
	ctx := context.Background()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	for _, binary := range []bool{false, true} {
		c := New(url, WithBinary(binary), WithHTTPClient(&http.Client{Transport: tr}))
		created, err := c.Create(ctx, Spec{N: 4096, M: 2 * 4096, K: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Finish(ctx, created.ID); err != nil {
			t.Fatal(err)
		}
		nodes := ringNodes(4096, 3)
		_, err = c.Push(ctx, created.ID, nodes)
		for _, nd := range nodes {
			for j := range nd.Adj {
				nd.Adj[j] = -1
			}
		}
		if !errors.Is(err, ErrFinished) {
			t.Fatalf("binary=%v: push into a finished session: %v, want ErrFinished", binary, err)
		}
	}
}

// lockedBuffer is a bytes.Buffer the server's goroutines may write to.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestEarlyAnswerLeavesServerQuiet pushes 4096 nodes into a finished
// session, then creates a session on the same transport, in both
// formats, several times over. omsd answers the push before it has read
// the body; with full duplex on, net/http would drain the rest while the
// connection's next read starts, and log a recovered panic ("invalid
// concurrent Body.Read call") and drop the connection. The answer closes
// the connection instead, so the server's log stays free of panics and
// every Create succeeds.
func TestEarlyAnswerLeavesServerQuiet(t *testing.T) {
	mgr := service.NewManager(service.Config{})
	t.Cleanup(mgr.Close)
	srv := httptest.NewUnstartedServer(service.NewServer(mgr))
	var logged lockedBuffer
	srv.Config.ErrorLog = log.New(&logged, "", 0)
	srv.Start()
	t.Cleanup(srv.Close)
	ctx := context.Background()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	for round := 0; round < 4; round++ {
		for _, binary := range []bool{false, true} {
			c := New(srv.URL, WithBinary(binary), WithHTTPClient(&http.Client{Transport: tr}))
			created, err := c.Create(ctx, Spec{N: 4096, M: 2 * 4096, K: 8})
			if err != nil {
				t.Fatalf("round %d, binary=%v: create: %v; server log:\n%s", round, binary, err, logged.String())
			}
			if _, err := c.Finish(ctx, created.ID); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Push(ctx, created.ID, ringNodes(4096, 3)); !errors.Is(err, ErrFinished) {
				t.Fatalf("round %d, binary=%v: push into a finished session: %v, want ErrFinished", round, binary, err)
			}
		}
	}
	srv.Close()
	if out := logged.String(); strings.Contains(out, "panic") {
		t.Fatalf("the server logged a panic:\n%s", out)
	}
}

// TestInbandErrorAfterFlush pushes 800 nodes (a body sent whole, with a
// Content-Length) and 4096 nodes (a body encoded while it is sent),
// node 300 out of range, each as one plain request, then asks for the
// session's status on the same keep-alive transport, in both formats,
// several times over. omsd answers the
// first 256 nodes mid-body, then ends the reply with the in-band error
// while the last nodes are still unread; net/http must neither log a
// recovered panic draining them nor hand the connection to the next
// request broken. Each push returns the answered head and the in-band
// error, and every Create succeeds.
func TestInbandErrorAfterFlush(t *testing.T) {
	mgr := service.NewManager(service.Config{})
	t.Cleanup(mgr.Close)
	srv := httptest.NewUnstartedServer(service.NewServer(mgr))
	var logged lockedBuffer
	srv.Config.ErrorLog = log.New(&logged, "", 0)
	srv.Start()
	t.Cleanup(srv.Close)
	ctx := context.Background()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	const n = 4096
	all := ringNodes(n, 3)
	all[300] = Node{U: n, Adj: []int32{0}}
	for round := 0; round < 4; round++ {
		nodes := all[:800]
		if round%2 == 1 {
			nodes = all
		}
		for _, binary := range []bool{false, true} {
			c := New(srv.URL, WithBinary(binary), WithHTTPClient(&http.Client{Transport: tr}))
			created, err := c.Create(ctx, Spec{N: n, M: 2 * n, K: 8})
			if err != nil {
				t.Fatalf("round %d, binary=%v: create: %v; server log:\n%s", round, binary, err, logged.String())
			}
			as, err := c.Push(ctx, created.ID, nodes)
			var e *Error
			if !errors.As(err, &e) || e.Status != 0 || len(as) != 300 || as[299].U != 299 {
				t.Fatalf("round %d, binary=%v: %d assignments, %#v; want 300 and an in-band error", round, binary, len(as), err)
			}
			if _, err := c.Status(ctx, created.ID); err != nil {
				t.Fatalf("round %d, binary=%v: status after the push: %v; server log:\n%s", round, binary, err, logged.String())
			}
		}
	}
	srv.Close()
	if out := logged.String(); strings.Contains(out, "panic") {
		t.Fatalf("the server logged a panic:\n%s", out)
	}
}

// TestStreamBodyFence reads a streamed body directly: any read size
// yields the whole encoded body, a reader opened later (GetBody) retires
// the earlier one mid-body, and close retires the last.
func TestStreamBodyFence(t *testing.T) {
	nodes := ringNodes(4096, 3)
	var want []byte
	for i := range nodes {
		want = appendNode(want, false, &nodes[i])
	}
	var s pushState
	body, head := s.encode(false, nodes)
	if body != nil {
		t.Fatalf("a %d-byte body was not streamed", len(want))
	}
	b := &streamBody{s: &s, head: len(s.body), nodes: nodes[head:]}
	old, _ := b.open()
	if _, err := io.ReadFull(old, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 777, 32 << 10} {
		r, _ := b.open()
		if _, err := old.Read(make([]byte, 10)); err != errBodyClosed {
			t.Fatalf("a retired reader read on: %v", err)
		}
		var got []byte
		buf := make([]byte, size)
		for {
			n, err := r.Read(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reads of %d bytes: %d body bytes, want the %d encoded ones", size, len(got), len(want))
		}
		old = r
	}
	b.close()
	if _, err := old.Read(make([]byte, 10)); err != errBodyClosed {
		t.Fatalf("a read after close: %v", err)
	}
}
