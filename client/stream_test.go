package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/service"
)

// streamServer is an in-process omsd that counts its /nodes requests:
// how many are being served, and how many asked to upgrade to a stream
// (wire.StreamProtocol). With strip it answers as a server that streams
// over pipe bodies instead: no /nodes reply advertises the upgrade, each
// says X-OMS-Stream: 1, and upgrade counts the requests that asked for
// one anyway.
type streamServer struct {
	*httptest.Server
	mgr     *service.Manager
	serving atomic.Int32
	streams atomic.Int32
	// slow, when set, makes the first read of each stream's connection
	// after its upgrade wait that long, as a session busy with other
	// jobs would.
	slow atomic.Int64
	// held, while not nil, keeps each stream connection's next read
	// waiting until it is closed; the read then fails.
	holdMu sync.Mutex
	held   chan struct{}
}

func newStreamServer(t *testing.T, strip bool) *streamServer {
	t.Helper()
	ss := &streamServer{mgr: service.NewManager(service.Config{})}
	t.Cleanup(ss.mgr.Close)
	h := service.NewServer(ss.mgr)
	ss.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/nodes") {
			ss.serving.Add(1)
			defer ss.serving.Add(-1)
			if r.Header.Get("Upgrade") != "" {
				ss.streams.Add(1)
				c := r.Context().Value(connKey{}).(*testConn)
				c.slow.Store(ss.slow.Load())
				c.stream.Store(true)
			}
			if strip {
				w = stripHeader{w}
			}
		}
		h.ServeHTTP(w, r)
	}))
	ss.Listener = testListener{Listener: ss.Listener, ss: ss}
	ss.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		return context.WithValue(ctx, connKey{}, c)
	}
	ss.Start()
	t.Cleanup(ss.Close)
	return ss
}

// connKey keys a request's connection in its context.
type connKey struct{}

// testListener hands out testConns.
type testListener struct {
	net.Listener
	ss *streamServer
}

func (l testListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &testConn{Conn: c, ss: l.ss}, nil
}

// testConn is a server connection. Once it carries a stream, its reads
// wait out the server's slow setting once, and a read that returns
// while the server holds streams (a read may already be waiting for the
// next push when the hold starts) waits for the release and fails.
type testConn struct {
	net.Conn
	ss     *streamServer
	stream atomic.Bool
	slow   atomic.Int64
}

func (c *testConn) Read(p []byte) (int, error) {
	if !c.stream.Load() {
		return c.Conn.Read(p)
	}
	time.Sleep(time.Duration(c.slow.Swap(0)))
	n, err := c.Conn.Read(p)
	c.ss.holdMu.Lock()
	ch := c.ss.held
	c.ss.holdMu.Unlock()
	if ch != nil {
		<-ch
		return 0, errors.New("held")
	}
	return n, err
}

// streamedChunks is the server's count of chunks answered on streams.
func (ss *streamServer) streamedChunks() int64 {
	return ss.mgr.Registry().Snapshot()["omsd_push_stream_chunks_total"]
}

// pushSamples is the number of observations in the server's push
// latency histogram.
func (ss *streamServer) pushSamples() uint64 {
	for _, h := range ss.mgr.Registry().Histograms() {
		if h.Name() == "omsd_http_push_seconds" {
			return h.Snapshot().Count
		}
	}
	return 0
}

// waitIdle waits until no /nodes request is being served.
func (ss *streamServer) waitIdle(t *testing.T, within time.Duration) {
	t.Helper()
	for end := time.Now().Add(within); ss.serving.Load() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d /nodes requests still served after %v", ss.serving.Load(), within)
		}
	}
}

// hold makes streams' reads wait from now on; the returned function
// lets them fail.
func (ss *streamServer) hold() (release func()) {
	ch := make(chan struct{})
	ss.holdMu.Lock()
	ss.held = ch
	ss.holdMu.Unlock()
	return func() {
		ss.holdMu.Lock()
		ss.held = nil
		ss.holdMu.Unlock()
		close(ch)
	}
}

// stripHeader makes a /nodes reply look like one of a server that
// streams over pipe bodies: X-OMS-Stream: 1, no upgrade advertised.
// Unwrap keeps the ingest handler's full duplex, flushes and hijack
// working through it.
type stripHeader struct{ http.ResponseWriter }

func (s stripHeader) strip() {
	h := s.Header()
	h.Del("Upgrade")
	h.Del("Connection")
	h.Set("X-OMS-Stream", "1")
}

func (s stripHeader) WriteHeader(code int) {
	s.strip()
	s.ResponseWriter.WriteHeader(code)
}

func (s stripHeader) Write(b []byte) (int, error) {
	s.strip()
	return s.ResponseWriter.Write(b)
}

func (s stripHeader) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// graphNodes is g as a push stream, weights included.
func graphNodes(g *graph.Graph) []Node {
	nodes := make([]Node, g.NumNodes())
	for u := range g.NumNodes() {
		nodes[u] = Node{U: u, Adj: g.Neighbors(u), EW: g.EdgeWeights(u)}
		if g.VWgt != nil {
			nodes[u].W = g.NodeWeight(u)
		}
	}
	return nodes
}

// weighted gives g node weights 1–3 and symmetric edge weights 1–5.
func weighted(g *graph.Graph) *graph.Graph {
	g.VWgt = make([]int32, g.NumNodes())
	g.AdjWgt = make([]int32, len(g.Adjncy))
	for u := range g.NumNodes() {
		g.VWgt[u] = 1 + u%3
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			g.AdjWgt[i] = 1 + (u+g.Adjncy[i])%5
		}
	}
	return g
}

func graphSpec(g *graph.Graph, seed uint64) Spec {
	return Spec{N: g.NumNodes(), M: g.NumEdges(), TotalNodeWeight: g.TotalNodeWeight(),
		TotalEdgeWeight: g.TotalEdgeWeight(), K: 32, Seed: seed}
}

// TestStreamRepliesMatchRequests: a binary Client's pushes ride one
// stream per session after its first push, and every reply equals the
// one an NDJSON Client gets, one request per push, from a same-seed
// session: on an unweighted RGG and on a weighted, skewed RMAT.
func TestStreamRepliesMatchRequests(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg", gen.RandomGeometric(4096, 0.55, 7)},
		{"rmat-weighted", weighted(gen.RMAT(4096, 32768, gen.SocialRMAT, 9))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss := newStreamServer(t, false)
			bin, plain := New(ss.URL, WithBinary(true)), New(ss.URL)
			nodes := graphNodes(tc.g)
			var ids [2]string
			for i := range ids {
				cr, err := plain.Create(ctx, graphSpec(tc.g, 5))
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = cr.ID
			}
			const chunk = 64
			var s pushState
			large := int32(0) // pushes over streamHead, either format: chunk-encoded
			for lo := 0; lo < len(nodes); lo += chunk {
				part := nodes[lo:min(lo+chunk, len(nodes))]
				for _, binary := range []bool{true, false} {
					if s.fill(binary, part) < len(part) {
						large++
					}
				}
				got, err := bin.Push(ctx, ids[0], part)
				if err != nil {
					t.Fatalf("streamed push at %d: %v", lo, err)
				}
				want, err := plain.Push(ctx, ids[1], part)
				if err != nil {
					t.Fatalf("plain push at %d: %v", lo, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("push at %d: streamed %v, plain %v", lo, got, want)
				}
			}
			for _, id := range ids {
				if _, err := bin.Finish(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			// Finish ended the stream, so its handler has counted every
			// chunk it answered.
			pushes := int64((len(nodes) + chunk - 1) / chunk)
			// A large push goes as a request of its own. A push the
			// server reads in two parts may be answered in two chunks.
			if s, c := ss.streams.Load(), ss.streamedChunks(); s != 1 || c < pushes-1-int64(large) {
				t.Fatalf("%d streams (%d large pushes) answered %d chunks; want 1 stream answering every push but the first and the large ones (%d)",
					s, large, c, pushes-1-int64(large))
			}
			t.Logf("%d pushes in each format, %d of them over %d bytes", pushes, large, streamHead)
		})
	}
}

// TestNoStreamWithoutHeader: a Client never asks to upgrade a server
// whose /nodes replies do not advertise wire.StreamProtocol, as a
// server that streams over pipe bodies (X-OMS-Stream) does not, and
// every push gets the reply an NDJSON Client gets from a same-seed
// session.
func TestNoStreamWithoutHeader(t *testing.T) {
	ss := newStreamServer(t, true)
	ctx := context.Background()
	c, plain := New(ss.URL, WithBinary(true)), New(ss.URL)
	nodes := ringNodes(1024, 5)
	var ids [2]string
	for i := range ids {
		cr, err := c.Create(ctx, Spec{N: 1024, M: 2048, K: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = cr.ID
	}
	for lo := 0; lo < len(nodes); lo += 64 {
		got, err := c.Push(ctx, ids[0], nodes[lo:lo+64])
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Push(ctx, ids[1], nodes[lo:lo+64])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("push at %d: binary %v, NDJSON %v", lo, got, want)
		}
	}
	if s := ss.streams.Load(); s != 0 {
		t.Fatalf("%d upgrades asked of a server that never offered them", s)
	}
}

// TestNonUpgradeAnswerKeepsPlain: behind something that drops the
// upgrade request's Upgrade header, so omsd answers it as a plain push
// of no nodes, the Client redoes that push as a request of its own,
// asks for no other upgrade, and every push gets the reply an NDJSON
// Client gets from a same-seed session.
func TestNonUpgradeAnswerKeepsPlain(t *testing.T) {
	ctx := context.Background()
	mgr := service.NewManager(service.Config{})
	t.Cleanup(mgr.Close)
	h := service.NewServer(mgr)
	var asked atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Upgrade") != "" {
			asked.Add(1)
			r.Header.Del("Upgrade")
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c, plain := New(srv.URL, WithBinary(true)), New(srv.URL)
	nodes := ringNodes(512, 3)
	var ids [2]string
	for i := range ids {
		cr, err := c.Create(ctx, Spec{N: 512, M: 1024, K: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = cr.ID
	}
	for lo := 0; lo < len(nodes); lo += 64 {
		got, err := c.Push(ctx, ids[0], nodes[lo:lo+64])
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Push(ctx, ids[1], nodes[lo:lo+64])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("push at %d: binary %v, NDJSON %v", lo, got, want)
		}
	}
	if a := asked.Load(); a != 1 || !c.noUpgrade.Load() {
		t.Fatalf("%d upgrades asked, noUpgrade %v; want one, then plain pushes", a, c.noUpgrade.Load())
	}
	if s := mgr.Registry().Snapshot()["omsd_push_stream_chunks_total"]; s != 0 {
		t.Fatalf("%d chunks streamed", s)
	}
}

// openStream pushes twice into a fresh session of nodes, so the second
// push rides a stream, and checks that it did.
func openStream(t *testing.T, ss *streamServer, c *Client, nodes []Node) string {
	t.Helper()
	ctx := context.Background()
	cr, err := c.Create(ctx, Spec{N: int32(len(nodes)), M: 2 * int64(len(nodes)), K: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := ss.streams.Load()
	for i := range 2 {
		if _, err := c.Push(ctx, cr.ID, nodes[64*i:64*(i+1)]); err != nil {
			t.Fatal(err)
		}
	}
	if ss.streams.Load() != before+1 || ss.serving.Load() != 1 {
		t.Fatalf("streams %d -> %d, %d /nodes served; want one open stream", before, ss.streams.Load(), ss.serving.Load())
	}
	return cr.ID
}

// TestStreamCloses: Finish and Delete close the session's stream before
// they send, and omsd's handler ends at once; a context done mid-push
// closes it and the push fails as a plain push with that context fails;
// and a stream left unused closes within about streamIdle.
// httptest.Server.Close does not wait for a stream.
func TestStreamCloses(t *testing.T) {
	ctx := context.Background()
	nodes := ringNodes(512, 3)

	t.Run("finish", func(t *testing.T) {
		ss := newStreamServer(t, false)
		c := New(ss.URL, WithBinary(true))
		c.streamOK.Store(true)
		id := openStream(t, ss, c, nodes)
		if _, err := c.Finish(ctx, id); err != nil {
			t.Fatal(err)
		}
		ss.waitIdle(t, streamIdle/4)
	})
	t.Run("delete", func(t *testing.T) {
		ss := newStreamServer(t, false)
		c := New(ss.URL, WithBinary(true))
		c.streamOK.Store(true)
		id := openStream(t, ss, c, nodes)
		if err := c.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
		ss.waitIdle(t, streamIdle/4)
		t0 := time.Now()
		ss.Close()
		if d := time.Since(t0); d > streamIdle/2 {
			t.Fatalf("httptest.Server.Close took %v after the last session was deleted", d)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		ss := newStreamServer(t, false)
		c := New(ss.URL, WithBinary(true))
		c.streamOK.Store(true)
		id := openStream(t, ss, c, nodes)
		release := ss.hold()
		cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		_, err := c.Push(cctx, id, nodes[128:192])
		release()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("push past its deadline: %v, want context.DeadlineExceeded", err)
		}
		ss.waitIdle(t, time.Second)
		c.smu.Lock()
		open := len(c.streams)
		c.smu.Unlock()
		if open != 0 {
			t.Fatalf("%d streams kept after a canceled push", open)
		}
		// The session goes on: the next push opens a new stream.
		if _, err := c.Push(ctx, id, nodes[128:192]); err != nil {
			t.Fatal(err)
		}
		if s := ss.streams.Load(); s != 2 {
			t.Fatalf("%d streams, want a second one after the canceled push", s)
		}
	})
	t.Run("idle", func(t *testing.T) {
		ss := newStreamServer(t, false)
		c := New(ss.URL, WithBinary(true))
		c.streamOK.Store(true)
		openStream(t, ss, c, nodes)
		ss.waitIdle(t, 3*streamIdle)
	})
}

// TestStreamedPushToDeletedSession: after another client deletes the
// session, a streamed push fails with the typed error a plain push gets.
func TestStreamedPushToDeletedSession(t *testing.T) {
	ctx := context.Background()
	ss := newStreamServer(t, false)
	c := New(ss.URL, WithBinary(true))
	c.streamOK.Store(true)
	nodes := ringNodes(512, 3)
	id := openStream(t, ss, c, nodes)
	if err := New(ss.URL).Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	_, streamed := c.Push(ctx, id, nodes[128:192])
	_, plain := New(ss.URL, WithBinary(true)).Push(ctx, id, nodes[128:192])
	var se, pe *Error
	if !errors.As(streamed, &se) || !errors.As(plain, &pe) || *se != *pe || !errors.Is(streamed, ErrGone) {
		t.Fatalf("streamed push: %#v; plain push: %#v; want the same ErrGone", streamed, plain)
	}
	ss.waitIdle(t, time.Second)
}

// replyLengths records, per plain /nodes request, the reply's
// Content-Length and transfer encoding.
type replyLengths struct {
	mu    sync.Mutex
	plain []string
}

func (rl *replyLengths) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/nodes") && req.ContentLength > 0 {
		rl.mu.Lock()
		if resp.ContentLength < 0 || len(resp.TransferEncoding) != 0 {
			rl.plain = append(rl.plain, "chunked")
		} else {
			rl.plain = append(rl.plain, "length")
		}
		rl.mu.Unlock()
	}
	return resp, err
}

// TestPlainPushReplyHasLength: a plain binary push of at most
// streamHead bytes — the first one, and one whose context carries a
// traceparent — is still answered in one write with a Content-Length,
// while the pushes between them ride the stream.
func TestPlainPushReplyHasLength(t *testing.T) {
	ctx := context.Background()
	ss := newStreamServer(t, false)
	rl := &replyLengths{}
	c := New(ss.URL, WithBinary(true), WithHTTPClient(&http.Client{Transport: rl}))
	nodes := ringNodes(512, 3)
	cr, err := c.Create(ctx, Spec{N: 512, M: 1024, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := NewTraceparent(false)
	for i := range 4 {
		pctx := ctx
		if i == 3 {
			pctx = ContextWithTraceparent(ctx, tp)
		}
		if _, err := c.Push(pctx, cr.ID, nodes[64*i:64*(i+1)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(ctx, cr.ID); err != nil {
		t.Fatal(err)
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if !slices.Equal(rl.plain, []string{"length", "length"}) || ss.streams.Load() != 1 {
		t.Fatalf("plain /nodes replies %v, %d streams; want two replies with a length and one stream", rl.plain, ss.streams.Load())
	}
}

// TestStreamSharedBySessionPushers: goroutines pushing disjoint node
// ranges into one session through one Client share its stream, a push
// that finds it busy going as a request of its own; every push is
// answered with one block per node, and the session ends with every
// node assigned. Run under -race.
func TestStreamSharedBySessionPushers(t *testing.T) {
	ctx := context.Background()
	ss := newStreamServer(t, false)
	c := New(ss.URL, WithBinary(true))
	const goroutines, pushes, size = 4, 8, 32
	nodes := ringNodes(goroutines*pushes*size, 7)
	cr, err := c.Create(ctx, Spec{N: int32(len(nodes)), M: 2 * int64(len(nodes)), K: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pushes {
				lo := (g*pushes + i) * size
				as, err := c.Push(ctx, cr.ID, nodes[lo:lo+size])
				if err == nil && (len(as) != size || as[0].U != int32(lo) || as[size-1].U != int32(lo+size-1)) {
					err = fmt.Errorf("push at %d answered %v", lo, as)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	sum, err := c.Finish(ctx, cr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Assigned != int32(len(nodes)) || ss.streams.Load() == 0 {
		t.Fatalf("%d of %d nodes assigned, %d streams", sum.Assigned, len(nodes), ss.streams.Load())
	}
	ss.waitIdle(t, time.Second)
}

// TestStreamThroughProxy: httputil.ReverseProxy drops the upgrade
// advertisement from /nodes replies, as it drops every hop-by-hop
// header, so a Client behind it pushes plain requests, none of which
// waits. A Client that takes the server to stream anyway streams
// through the same proxy, which carries the upgraded connection.
func TestStreamThroughProxy(t *testing.T) {
	ctx := context.Background()
	ss := newStreamServer(t, false)
	u, err := url.Parse(ss.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(httputil.NewSingleHostReverseProxy(u))
	t.Cleanup(proxy.Close)
	nodes := ringNodes(512, 3)
	for _, advertised := range []bool{false, true} {
		c := New(proxy.URL, WithBinary(true))
		cr, err := c.Create(ctx, Spec{N: 512, M: 1024, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		before := ss.streams.Load()
		for i := range 4 {
			if advertised {
				// Each plain reply through the proxy says otherwise.
				c.streamOK.Store(true)
			}
			t0 := time.Now()
			as, err := c.Push(ctx, cr.ID, nodes[64*i:64*(i+1)])
			if err != nil || len(as) != 64 {
				t.Fatalf("push %d: %d assignments, %v", i, len(as), err)
			}
			if d := time.Since(t0); d >= streamIdle/2 {
				t.Fatalf("push %d took %v", i, d)
			}
		}
		if opened := ss.streams.Load() - before; opened != map[bool]int32{false: 0, true: 1}[advertised] {
			t.Fatalf("advertised %v: %d streams reached the server", advertised, opened)
		}
		if err := c.Delete(ctx, cr.ID); err != nil {
			t.Fatal(err)
		}
	}
	ss.waitIdle(t, time.Second)
}

// TestLargePushStaysPlain: a binary push over streamHead goes as a
// request of its own while its session's stream stays open, and the
// server observes it once in its push latency histogram, with no chunk
// answered as streamed, though it answers the push in 256-node chunks.
func TestLargePushStaysPlain(t *testing.T) {
	ctx := context.Background()
	ss := newStreamServer(t, false)
	c := New(ss.URL, WithBinary(true))
	nodes := ringNodes(4096, 3)
	id := openStream(t, ss, c, nodes)
	large := nodes[128:]
	var st pushState
	if st.fill(true, large) == len(large) {
		t.Fatalf("%d nodes fit in %d bytes", len(large), streamHead)
	}
	samples, chunks := ss.pushSamples(), ss.streamedChunks()
	as, err := c.Push(ctx, id, large)
	if err != nil || len(as) != len(large) {
		t.Fatalf("%d assignments, %v", len(as), err)
	}
	if ss.streams.Load() != 1 {
		t.Fatalf("%d streams, want the one", ss.streams.Load())
	}
	// Once every handler has returned, the server has counted all.
	if err := c.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	ss.waitIdle(t, time.Second)
	if got := ss.pushSamples() - samples; got != 1 {
		t.Fatalf("one large push observed %d times, want 1", got)
	}
	if got := ss.streamedChunks() - chunks; got != 0 {
		t.Fatalf("%d chunks of the large push answered as streamed, want none", got)
	}
}

// TestSparsePushesStayPlain: a session whose pushes come more than
// streamIdle apart never gets a stream; two pushes close together open
// one.
func TestSparsePushesStayPlain(t *testing.T) {
	ctx := context.Background()
	ss := newStreamServer(t, false)
	c := New(ss.URL, WithBinary(true))
	nodes := ringNodes(512, 3)
	cr, err := c.Create(ctx, Spec{N: 512, M: 1024, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		// Date the session's last push back past streamIdle.
		c.smu.Lock()
		if last, ok := c.lastPush[cr.ID]; ok {
			c.lastPush[cr.ID] = last.Add(-streamIdle)
		}
		c.smu.Unlock()
		if _, err := c.Push(ctx, cr.ID, nodes[64*i:64*(i+1)]); err != nil {
			t.Fatal(err)
		}
	}
	if s := ss.streams.Load(); s != 0 {
		t.Fatalf("%d streams opened for pushes streamIdle apart", s)
	}
	if _, err := c.Push(ctx, cr.ID, nodes[256:320]); err != nil {
		t.Fatal(err)
	}
	if s := ss.streams.Load(); s != 1 {
		t.Fatalf("%d streams after two pushes close together, want 1", s)
	}
	if err := c.Delete(ctx, cr.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSlowSessionKeepsStreaming: a stream whose first push is answered
// only after more than streamIdle, as on a session busy with other jobs,
// is waited for, and the Client goes on streaming over it.
func TestSlowSessionKeepsStreaming(t *testing.T) {
	ctx := context.Background()
	ss := newStreamServer(t, false)
	slow := streamIdle + streamIdle/2
	ss.slow.Store(int64(slow))
	c := New(ss.URL, WithBinary(true))
	nodes := ringNodes(512, 3)
	cr, err := c.Create(ctx, Spec{N: 512, M: 1024, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		t0 := time.Now()
		as, err := c.Push(ctx, cr.ID, nodes[64*i:64*(i+1)])
		if err != nil || len(as) != 64 {
			t.Fatalf("push %d: %d assignments, %v", i, len(as), err)
		}
		if d := time.Since(t0); (i == 1) != (d >= slow) {
			t.Fatalf("push %d took %v; want only the first streamed one to wait %v", i, d, slow)
		}
	}
	// Delete ends the stream, so its handler has counted every chunk.
	if err := c.Delete(ctx, cr.ID); err != nil {
		t.Fatal(err)
	}
	if c.noUpgrade.Load() || ss.streams.Load() != 1 || ss.streamedChunks() < 3 {
		t.Fatalf("noUpgrade %v, %d streams, %d streamed chunks; want one stream answering the last three pushes",
			c.noUpgrade.Load(), ss.streams.Load(), ss.streamedChunks())
	}
}

// TestStreamedRefusalMatchesPlain: a push omsd refuses on a stream
// returns what a plain push of the same nodes into a same-state session
// returns, the typed error of a push refused whole and the answered head
// with an in-band error of one refused part way, and is not sent again:
// each refused node is counted once as a push error.
func TestStreamedRefusalMatchesPlain(t *testing.T) {
	ctx := context.Background()
	ss := newStreamServer(t, false)
	c, plain := New(ss.URL, WithBinary(true)), New(ss.URL)
	c.streamOK.Store(true)
	nodes := ringNodes(512, 3)
	idS := openStream(t, ss, c, nodes)
	cr, err := plain.Create(ctx, Spec{N: 512, M: 1024, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	idP := cr.ID
	if _, err := plain.Push(ctx, idP, nodes[:128]); err != nil {
		t.Fatal(err)
	}
	errs := func() int64 { return ss.mgr.Registry().Snapshot()["omsd_push_errors_total"] }
	before := errs()
	for i, bad := range [][]Node{
		{{U: 512}},
		append(slices.Clone(nodes[128:160]), Node{U: 512}),
	} {
		gotS, errS := c.Push(ctx, idS, bad)
		gotP, errP := plain.Push(ctx, idP, bad)
		var se, pe *Error
		if !errors.As(errS, &se) || !errors.As(errP, &pe) || *se != *pe || !slices.Equal(gotS, gotP) {
			t.Fatalf("refused push %d: streamed %d assignments, %#v; plain %d, %#v", i, len(gotS), errS, len(gotP), errP)
		}
		if (i == 0) != errors.Is(errS, ErrOutOfRange) {
			t.Fatalf("refused push %d: %#v", i, errS)
		}
	}
	if got := errs() - before; got != 4 || ss.streams.Load() != 2 {
		t.Fatalf("%d push errors counted, %d streams; want 2 per client and a new stream for the second refused push", got, ss.streams.Load())
	}
	ss.waitIdle(t, time.Second)
}

// TestStreamFootprint opens maxStreams streams from one Client to an
// in-process omsd and holds what they pin, client and server together,
// to a bound: heap in use per stream, after a GC, and goroutines per
// stream. Each session's first push is plain and its second opens the
// stream, so the difference between the two counts is the streams'.
func TestStreamFootprint(t *testing.T) {
	ss := newStreamServer(t, false)
	ctx := context.Background()
	c := New(ss.URL, WithBinary(true))
	nodes := ringNodes(1024, 3)
	ids := make([]string, maxStreams)
	for i := range ids {
		cr, err := c.Create(ctx, Spec{N: 1024, M: 2048, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = cr.ID
	}
	measure := func() (heap uint64, goroutines int) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, runtime.NumGoroutine()
	}
	push := func(lo int) {
		for _, id := range ids {
			if _, err := c.Push(ctx, id, nodes[lo:lo+64]); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(0)
	heap0, g0 := measure()
	push(64)
	heap1, g1 := measure()
	if s := ss.streams.Load(); s != maxStreams {
		t.Fatalf("%d streams opened, want %d", s, maxStreams)
	}
	perHeap := (float64(heap1) - float64(heap0)) / maxStreams / 1024
	perG := float64(g1-g0) / maxStreams
	t.Logf("%d streams: %.1f KiB of heap and %.2f goroutines per stream", maxStreams, perHeap, perG)
	// Bounds: the server's pooled ingest state (a 64 KiB frame reader,
	// its 64 KiB arena, the chunk), net/http's per-connection buffers and
	// one handler goroutine; the Client's reply reader is about 1 KiB.
	if perHeap > 192 || perG > 1.05 {
		t.Fatalf("%.1f KiB of heap and %.2f goroutines per stream, want at most 192 KiB and 1", perHeap, perG)
	}
	for _, id := range ids {
		if err := c.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	ss.waitIdle(t, time.Second)
}
