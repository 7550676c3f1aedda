package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"oms"
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
			postJSON(t, srv.URL+"/v1/sessions", CreateSpec{N: g.NumNodes(), M: g.NumEdges(), K: 4}, &created)
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
	postJSON(t, srv.URL+"/v1/sessions", CreateSpec{N: n, M: g.NumEdges(), K: 4}, &created)

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
