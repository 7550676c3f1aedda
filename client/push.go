package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"oms/internal/wire"
)

// Node is one pushed node: id, weight (0 means 1), neighbors, and
// optional parallel edge weights.
type Node struct {
	U   int32   `json:"u"`
	W   int32   `json:"w,omitempty"`
	Adj []int32 `json:"adj"`
	EW  []int32 `json:"ew,omitempty"`
}

// Assignment is one node's permanent block.
type Assignment struct {
	U int32 `json:"u"`
	B int32 `json:"b"`
}

// Push streams nodes through POST /v1/sessions/{id}/nodes and returns
// their assignments in push order. The transfer encoding follows
// WithBinary. On a mid-stream rejection the accepted prefix's
// assignments are returned alongside the error.
//
// In binary mode, once the server has said it answers open streams,
// Push writes its frames into the session's open stream (see
// ingestStream) instead of sending a request of its own, opening one if
// the session's previous push started within streamIdle; it returns
// what a request of its own would return.
func (c *Client) Push(ctx context.Context, id string, nodes []Node) ([]Assignment, error) {
	if out, ok, err := c.pushStream(ctx, id, nodes); ok {
		return out, err
	}
	return c.ingest(ctx, id, "nodes", nodes)
}

// PushBatch streams nodes through POST /v1/sessions/{id}/batch — the
// atomic, group-committed ingest route.
func (c *Client) PushBatch(ctx context.Context, id string, nodes []Node) ([]Assignment, error) {
	return c.ingest(ctx, id, "batch", nodes)
}

// maxPooledScratch caps what a push state may keep when it goes back to
// the pool: one huge push must not pin its buffers for the process's
// lifetime.
const maxPooledScratch = 1 << 20

// streamHead is the encoded size up to which a push body is built before
// the request goes out. A body that fits is sent from memory, in one
// write with a Content-Length: every 64-node push, about 2 KiB binary
// and 5 KiB NDJSON. A larger one streams: net/http sends its headers in
// a write of their own and chunk-encodes the body, which costs a small
// push more than it saves, while a large NDJSON push (about 80 KiB for
// 1024 RGG nodes) gains from the server parsing its head while the
// client encodes its tail. The bound is by size, whatever the format:
// a 1024-node binary push of the same graph, about 27 KiB, stays whole.
// It also bounds what rides a session's open stream (ingestStream): a
// binary push that fits is written into the stream's connection whole,
// and a larger one goes as a request of its own.
const streamHead = 32 << 10

// pushState is the pooled per-request state of a push, either format:
// the reply reader (read-ahead buffer and arena), one assign frame's
// decoded pairs, the NDJSON reply scanner's initial line buffer and the
// request encode scratch. Each buffer is allocated by the first request
// that needs it and reused by the next, so a steady push allocates only
// its request, one exact-size copy of a body of at most streamHead
// bytes (a larger one streams from the scratch) and the []Assignment it
// returns. Nothing handed to the caller or to net/http aliases the
// state, except through a streamBody, which ingest closes before the
// state goes back to the pool. A push over an open stream borrows only
// the encode scratch: the connection's Write returns once every byte is
// written.
type pushState struct {
	rd     *wire.Reader // nil until the first binary reply
	us, bs []int32
	line   []byte
	body   []byte
}

var pushPool = sync.Pool{New: func() any { return new(pushState) }}

// release returns the state to the pool, holding no response and no
// buffer that grew past maxPooledScratch.
func (s *pushState) release() {
	if s.rd != nil {
		s.rd.Reset(nil)
		if cap(s.rd.Arena.Raw) > maxPooledScratch {
			s.rd = nil
		}
	}
	if cap(s.body) > maxPooledScratch {
		s.body = nil
	}
	if 4*cap(s.us) > maxPooledScratch {
		s.us, s.bs = nil, nil
	}
	pushPool.Put(s)
}

// appendNode appends one node in the request format. An NDJSON line is
// written by hand (wire.AppendNodeLine), byte for byte what json.Encoder
// writes for a Node.
func appendNode(buf []byte, binary bool, nd *Node) []byte {
	if binary {
		return wire.AppendNodeFrame(buf, nd.U, nd.W, nd.Adj, nd.EW)
	}
	return wire.AppendNodeLine(buf, nd.U, nd.W, nd.Adj, nd.EW)
}

// encode renders nodes in the request format into the scratch until it
// holds streamHead bytes, and returns how many nodes it took. If that is
// all of them, it also returns one exact-size copy of the body: net/http
// gets the copy, never the scratch, as the Transport may still read a
// body after Do returns and a 307 wrong_node redirect rewinds it through
// GetBody. Otherwise body is nil, the scratch holds the body's head,
// and a streamBody sends the rest.
func (s *pushState) encode(binary bool, nodes []Node) (body []byte, head int) {
	if head = s.fill(binary, nodes); head < len(nodes) {
		return nil, head
	}
	return append(make([]byte, 0, len(s.body)), s.body...), head
}

// fill renders nodes in the request format into the scratch until it
// holds streamHead bytes, and returns how many nodes it took.
func (s *pushState) fill(binary bool, nodes []Node) (head int) {
	s.body = s.body[:0]
	for head < len(nodes) && len(s.body) < streamHead {
		s.body = appendNode(s.body, binary, &nodes[head])
		head++
	}
	return head
}

// errBodyClosed ends a read of a push body that no request needs any
// more: ingest returned, or GetBody handed out a newer reader.
var errBodyClosed = errors.New("oms: push body closed")

// streamBody is the request body of a push larger than streamHead: the
// head already in the scratch, then the remaining nodes, encoded inside
// Read into the scratch behind the head, as many as fill the buffer
// net/http reads into. Read runs on the Transport's writer goroutine, so
// the server parses the head while the tail is encoded.
//
// One mutex fences every reader the body hands out. net/http may go on
// reading a body after Do returns (when the server answered before it
// read everything), and GetBody (a 307, or a retry on a stale
// connection) opens a new reader while an old one may still be read. So
// open makes the newest reader the only one that reads, and close, which
// ingest calls before it returns, ends them all: nothing reads the
// caller's nodes or the pooled scratch after Push returns.
type streamBody struct {
	mu     sync.Mutex
	s      *pushState
	binary bool
	head   int           // the head's length in s.body
	nodes  []Node        // the nodes behind the head
	cur    *streamReader // the one reader that may read; nil once closed
}

// streamReader is one pass over a streamBody, from its first byte.
type streamReader struct {
	b    *streamBody
	off  int    // bytes of the head read
	next int    // the next node to encode
	pend []byte // encoded bytes not yet read, in the scratch behind the head
}

// open returns a reader over the whole body and retires every earlier
// one; it has the signature of http.Request.GetBody.
func (b *streamBody) open() (io.ReadCloser, error) {
	r := &streamReader{b: b}
	b.mu.Lock()
	b.cur = r
	b.mu.Unlock()
	return r, nil
}

// close retires every reader; a read after it fails with errBodyClosed.
func (b *streamBody) close() {
	b.mu.Lock()
	b.cur = nil
	b.mu.Unlock()
}

// Read returns the head, then the tail: it appends nodes behind the
// head until they fill p, and keeps what overflows for the next Read.
func (r *streamReader) Read(p []byte) (int, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if r != b.cur {
		return 0, errBodyClosed
	}
	s := b.s
	n := copy(p, s.body[r.off:b.head])
	r.off += n
	c := copy(p[n:], r.pend)
	n += c
	r.pend = r.pend[c:]
	for n < len(p) && r.next < len(b.nodes) {
		s.body = s.body[:b.head]
		for r.next < len(b.nodes) && len(s.body)-b.head < len(p)-n {
			s.body = appendNode(s.body, b.binary, &b.nodes[r.next])
			r.next++
		}
		c = copy(p[n:], s.body[b.head:])
		n += c
		r.pend = s.body[b.head+c:]
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Close is a no-op: only the push that owns the body retires it.
func (r *streamReader) Close() error { return nil }

// ingest encodes the nodes and streams them to the session's node; a
// body larger than streamHead is encoded while it is sent (streamBody).
// In cluster mode the request is routed to the owner and retried
// through failover — but only on failures that provably never delivered
// a byte (dial errors) or were rejected before ingest began (404/503/
// wrong_node): once a server may have consumed part of the stream, a
// replay would re-assign nodes, so mid-stream breaks surface to the
// caller, who resumes from the session's authoritative assigned count.
func (c *Client) ingest(ctx context.Context, id, route string, nodes []Node) ([]Assignment, error) {
	s := pushPool.Get().(*pushState)
	defer s.release()
	ct := "application/x-ndjson"
	if c.binary {
		ct = wire.MediaType
	}
	body, head := s.encode(c.binary, nodes)
	var stream *streamBody
	if body == nil {
		stream = &streamBody{s: s, binary: c.binary, head: len(s.body), nodes: nodes[head:]}
		defer stream.close()
	}
	var out []Assignment
	err := c.route(ctx, id, true, func(base string) error {
		var rd io.Reader
		if stream == nil {
			rd = bytes.NewReader(body)
		} else {
			rd, _ = stream.open()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%s/%s", base, id, route), rd)
		if err != nil {
			return err
		}
		if stream != nil {
			req.GetBody = stream.open
		}
		req.Header.Set("Content-Type", ct)
		req.Header.Set("Accept", ct)
		injectTrace(ctx, req)
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return apiError(resp)
		}
		if c.binary && route == "nodes" && c.router == nil {
			// A redirected reply speaks for another server, and HTTP/2
			// has no upgrade.
			c.streamOK.Store(resp.ProtoMajor == 1 && wire.HasToken(resp.Header.Get("Upgrade"), wire.StreamProtocol) && resp.Request.URL.Host == req.URL.Host)
		}
		if c.binary {
			out, err = s.readWireAssignments(resp.Body, len(nodes))
		} else {
			out, err = s.readJSONAssignments(resp.Body, len(nodes))
		}
		return err
	})
	return out, err
}

// readWireAssignments drains a binary reply stream: TypeAssign frames
// carry assignments, a TypeError frame ends the stream with an in-band
// error (the assignments before it stand). Frames land in the state's
// pooled reader and pairs in its us/bs scratch; the returned slice is
// built by value and the error message is a copy, so neither aliases
// the state once it is recycled.
func (s *pushState) readWireAssignments(r io.Reader, hint int) ([]Assignment, error) {
	if s.rd == nil {
		s.rd = wire.NewReader(r)
	} else {
		s.rd.Reset(r)
	}
	return readAssignFrames(s.rd, &s.us, &s.bs, make([]Assignment, 0, hint), -1)
}

// readAssignFrames appends the assignments of rd's reply frames to out,
// decoding each frame's pairs into the us/bs scratch, until the stream
// ends or, when want >= 0, until out holds want of them: an open stream
// never ends between pushes, so the push that reads it stops at its own
// count, and a reply that runs past that count is an error.
// A refusal frame (open streams only) ends the push with the status and
// code a request of its own would have got if out is still empty, and
// as that request's in-band error otherwise.
func readAssignFrames(rd *wire.Reader, us, bs *[]int32, out []Assignment, want int) ([]Assignment, error) {
	for want < 0 || len(out) < want {
		payload, _, err := rd.NextFrame()
		if err == io.EOF {
			if want >= 0 {
				return out, io.ErrUnexpectedEOF
			}
			return out, nil
		}
		if err != nil {
			return out, err
		}
		switch payload[0] {
		case wire.TypeAssign:
			*us, *bs, err = wire.DecodeAssignPayload(payload, (*us)[:0], (*bs)[:0])
			if err != nil {
				return out, err
			}
			if want >= 0 && len(out)+len(*us) > want {
				return out, fmt.Errorf("oms: %d assignments for a push of %d nodes", len(out)+len(*us), want)
			}
			for i, u := range *us {
				out = append(out, Assignment{U: u, B: (*bs)[i]})
			}
		case wire.TypeError:
			msg, err := wire.DecodeErrorPayload(payload)
			if err != nil {
				return out, err
			}
			return out, &Error{Message: msg}
		case wire.TypeRefusal:
			status, code, msg, err := wire.DecodeRefusalPayload(payload)
			if err != nil {
				return out, err
			}
			if len(out) > 0 {
				// Part of the push was answered, so a request of its
				// own would have ended as this reply does: in-band.
				return out, &Error{Message: msg}
			}
			return out, &Error{Status: status, Code: code, Message: msg}
		default:
			return out, fmt.Errorf("oms: unexpected reply frame type %d", payload[0])
		}
		rd.Arena.Reset()
	}
	return out, nil
}

// readJSONAssignments drains an NDJSON reply stream; a line with an
// "error" field ends the stream with an in-band error. The scanner
// starts on the state's pooled line buffer. An assignment line of the
// canonical subset (wire.ParseAssignLine; every line omsd writes) is
// parsed by hand, any other line by json.Unmarshal.
func (s *pushState) readJSONAssignments(r io.Reader, hint int) ([]Assignment, error) {
	out := make([]Assignment, 0, hint)
	if s.line == nil {
		s.line = make([]byte, 64<<10)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(s.line, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if u, b, ok := wire.ParseAssignLine(sc.Bytes()); ok {
			out = append(out, Assignment{U: u, B: b})
			continue
		}
		var line struct {
			U     int32  `json:"u"`
			B     int32  `json:"b"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return out, err
		}
		if line.Error != "" {
			return out, &Error{Message: line.Error}
		}
		out = append(out, Assignment{U: line.U, B: line.B})
	}
	return out, sc.Err()
}

// Result fetches an assignment vector. version is "" for the streamed
// partition, "N", "latest", or "best" for refined versions. With
// WithBinary the transfer is one binary result frame instead of JSON.
func (c *Client) Result(ctx context.Context, id, version string) (Result, error) {
	path := "/v1/sessions/" + id + "/result"
	if version != "" {
		path += "?version=" + version
	}
	if !c.binary {
		var out Result
		err := c.doJSON(ctx, http.MethodGet, path, nil, &out)
		return out, err
	}
	var out Result
	err := c.route(ctx, id, false, func(base string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", wire.MediaType)
		injectTrace(ctx, req)
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return apiError(resp)
		}
		rd := wire.NewReader(resp.Body)
		payload, _, err := rd.NextFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		wres, err := wire.DecodeResultPayload(payload)
		if err != nil {
			return err
		}
		out = Result{
			ID: id, Version: wres.Version, Pass: wres.Pass, K: wres.K,
			Lmax: wres.Lmax, EdgeCut: wres.EdgeCut, Parts: wres.Parts,
		}
		return nil
	})
	return out, err
}
