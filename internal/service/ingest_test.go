package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"oms/internal/store"
	"testing"
	"time"

	"oms"
	"oms/internal/promtext"
	"oms/internal/wire"
)

// wireGraph renders g's nodes [lo,hi) as binary node frames.
func wireGraph(g *oms.Graph, lo, hi int32) []byte {
	var buf []byte
	for u := lo; u < hi; u++ {
		buf = wire.AppendNodeFrame(buf, u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u))
	}
	return buf
}

// readAssignFrames reads binary assignment frames from rd until want
// nodes have been acknowledged, recording each block in parts.
func readAssignFrames(t *testing.T, rd *wire.Reader, want int, parts []int32) {
	t.Helper()
	var us, blocks []int32
	for len(us) < want {
		payload, _, err := rd.NextFrame()
		if err != nil {
			t.Fatalf("after %d of %d assignments: %v", len(us), want, err)
		}
		if us, blocks, err = wire.DecodeAssignPayload(payload, us, blocks); err != nil {
			t.Fatalf("reply frame: %v", err)
		}
	}
	for i, u := range us {
		parts[u] = blocks[i]
	}
}

// TestSingleChunkReplyHasContentLength: a push that fits one ingest
// chunk is answered in one write — the reply carries a Content-Length,
// not chunked transfer encoding — in both request formats.
func TestSingleChunkReplyHasContentLength(t *testing.T) {
	g := oms.GenGrid2D(8, 8, false)
	_, srv := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, ct string
		body     []byte
	}{
		{"binary", wire.MediaType, wireGraph(g, 0, g.NumNodes())},
		{"ndjson", "application/x-ndjson", ndjsonGraph(t, g, 0, g.NumNodes()).Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var created createReply
			postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: g.NumNodes(), M: g.NumEdges(), K: 4}, &created)
			resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/nodes", srv.URL, created.ID), tc.ct, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, body)
			}
			if resp.ContentLength < 0 || len(resp.TransferEncoding) != 0 {
				t.Fatalf("Content-Length %d, Transfer-Encoding %v; want a length and no transfer encoding",
					resp.ContentLength, resp.TransferEncoding)
			}
			if int(resp.ContentLength) != len(body) {
				t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
			}
		})
	}
}

// TestIngestFullDuplexRepliesMidStream: the assignments of a full chunk
// reach the client while its request body is still open. The client
// writes one chunk's nodes through a pipe and reads their assignments
// before it writes the rest; if the server held mid-stream replies back,
// both sides would wait on each other until the deadline.
func TestIngestFullDuplexRepliesMidStream(t *testing.T) {
	g := oms.GenGrid2D(16, 32, false)
	n := g.NumNodes()
	_, srv := newTestServer(t, Config{})
	var created createReply
	postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: n, M: g.NumEdges(), K: 4}, &created)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/sessions/%s/nodes", srv.URL, created.ID), pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.MediaType)

	more := make(chan struct{})
	writeErr := make(chan error, 1)
	go func() {
		if _, err := pw.Write(wireGraph(g, 0, ingestChunkSize)); err != nil {
			writeErr <- err
			return
		}
		select {
		case <-more:
		case <-ctx.Done():
			pw.CloseWithError(ctx.Err())
			writeErr <- ctx.Err()
			return
		}
		_, err := pw.Write(wireGraph(g, ingestChunkSize, n))
		pw.CloseWithError(err)
		writeErr <- err
	}()

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no reply while the body was open: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = -1
	}
	rd := wire.NewReader(resp.Body)
	readAssignFrames(t, rd, ingestChunkSize, parts)
	close(more)
	readAssignFrames(t, rd, int(n)-ingestChunkSize, parts)
	if err := <-writeErr; err != nil {
		t.Fatalf("body writer: %v", err)
	}
	if _, _, err := rd.NextFrame(); err != io.EOF {
		t.Fatalf("after the last assignment: %v, want EOF", err)
	}
	for u, b := range parts {
		if b < 0 || b >= 4 {
			t.Fatalf("node %d in block %d", u, b)
		}
	}
}

// TestOpenStreamAnswersEachPush: a binary /nodes request that asks to
// upgrade to wire.StreamProtocol is answered 101 Switching Protocols
// before it has sent a byte of a push. Each push of a few frames is
// then answered as soon as the server has read it, over the same
// connection, and adds exactly one observation to the push route's
// latency histogram and one to the streamed-chunk counter, whatever the
// stream's lifetime. A refused push ends the stream with a refusal frame
// that keeps the status and code a request of its own would get, and is
// counted once as a push error.
func TestOpenStreamAnswersEachPush(t *testing.T) {
	g := oms.GenGrid2D(16, 32, false)
	n := g.NumNodes()
	mgr, srv := newTestServer(t, Config{})
	var created createReply
	postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: n, M: g.NumEdges(), K: 4}, &created)
	hist := pushHistogram(mgr)
	before := hist.Snapshot().Count

	conn, rd, _ := dialStream(t, srv.URL, created.ID, nil)
	const pushes, size = 8, 64
	parts := make([]int32, n)
	for i := range int32(pushes) {
		if _, err := conn.Write(wireGraph(g, i*size, (i+1)*size)); err != nil {
			t.Fatal(err)
		}
		readAssignFrames(t, rd, size, parts)
	}
	if _, err := conn.Write(wire.AppendNodeFrame(nil, n, 1, nil, nil)); err != nil {
		t.Fatal(err)
	}
	payload, _, err := rd.NextFrame()
	if err != nil {
		t.Fatalf("reply to a refused push: %v", err)
	}
	status, code, msg, err := wire.DecodeRefusalPayload(payload)
	if err != nil || status != http.StatusUnprocessableEntity || code != "node_out_of_range" {
		t.Fatalf("refusal %d %q %q (%v), want 422 node_out_of_range", status, code, msg, err)
	}
	if _, _, err := rd.NextFrame(); err != io.EOF {
		t.Fatalf("after the refusal: %v, want EOF", err)
	}
	reg := mgr.Registry().Snapshot()
	if got := hist.Snapshot().Count - before; got != pushes+1 {
		t.Fatalf("%d pushes over one stream observed %d times, want %d", pushes+1, got, pushes+1)
	}
	if got := reg["omsd_push_stream_chunks_total"]; got != pushes+1 {
		t.Fatalf("omsd_push_stream_chunks_total %d, want %d", got, pushes+1)
	}
	if got := reg["omsd_push_errors_total"]; got != 1 {
		t.Fatalf("omsd_push_errors_total %d, want 1", got)
	}
}

// TestUnsizedBodyStaysPlain: a binary /nodes body of unknown length that
// did not ask for an open stream (a large push, chunk-encoded) keeps the
// plain path: it is answered in 256-node chunks, observed once in the
// push route's latency histogram, and no chunk counts as streamed, even
// though the server reads it in many parts.
func TestUnsizedBodyStaysPlain(t *testing.T) {
	g := oms.GenGrid2D(64, 64, false)
	n := g.NumNodes()
	mgr, srv := newTestServer(t, Config{})
	var created createReply
	postJSON(t, srv.URL+"/v1/sessions", store.CreateSpec{N: n, M: g.NumEdges(), K: 4}, &created)
	hist := pushHistogram(mgr)
	before := hist.Snapshot().Count

	pr, pw := io.Pipe()
	go func() {
		for lo := int32(0); lo < n; lo += 128 {
			if _, err := pw.Write(wireGraph(g, lo, lo+128)); err != nil {
				return
			}
		}
		pw.Close()
	}()
	resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/nodes", srv.URL, created.ID), wire.MediaType, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	parts := make([]int32, n)
	readAssignFrames(t, wire.NewReader(resp.Body), int(n), parts)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := hist.Snapshot().Count - before; got != 1 {
		t.Fatalf("one push of %d nodes observed %d times, want 1", n, got)
	}
	if got := mgr.Registry().Snapshot()["omsd_push_stream_chunks_total"]; got != 0 {
		t.Fatalf("omsd_push_stream_chunks_total %d, want 0", got)
	}
}

// pushHistogram is the push route's latency histogram.
func pushHistogram(mgr *Manager) *promtext.Histogram {
	for _, h := range mgr.Registry().Histograms() {
		if h.Name() == "omsd_http_push_seconds" {
			return h
		}
	}
	return nil
}
