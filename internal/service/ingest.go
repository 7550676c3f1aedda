package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"
	"time"

	"oms/internal/promtext"
	"oms/internal/store"
	"oms/internal/trace"
	"oms/internal/wire"
)

// ErrUnsupportedMedia reports a request Content-Type the ingest routes
// do not speak; the HTTP layer answers 415 unsupported_media_type.
var ErrUnsupportedMedia = errors.New("service: unsupported media type")

// requestBinary decides the ingest wire format from the request
// Content-Type: the binary frame protocol for wire.MediaType, NDJSON
// for the JSON-ish types (plus the types generic tools send when the
// caller sets none — curl posts x-www-form-urlencoded by default), and
// an ErrUnsupportedMedia for anything genuinely alien. The exact frame
// type every binary client sends skips mime.ParseMediaType, which
// allocates a parameter map per call.
func requestBinary(r *http.Request) (bool, error) {
	ct := r.Header.Get("Content-Type")
	switch ct {
	case wire.MediaType:
		return true, nil
	case "":
		return false, nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false, fmt.Errorf("%w: %q", ErrUnsupportedMedia, ct)
	}
	switch mt {
	case wire.MediaType:
		return true, nil
	case "application/x-ndjson", "application/jsonlines", "application/json",
		"application/octet-stream", "application/x-www-form-urlencoded":
		return false, nil
	}
	if strings.HasPrefix(mt, "text/") {
		return false, nil
	}
	return false, fmt.Errorf("%w: %q (want %s or application/x-ndjson)", ErrUnsupportedMedia, ct, wire.MediaType)
}

// acceptBinary decides the response format: an explicit Accept wins,
// otherwise the reply mirrors the request format.
func acceptBinary(r *http.Request, def bool) bool {
	acc := r.Header.Get("Accept")
	switch {
	case strings.Contains(acc, "oms-frame"):
		return true
	case strings.Contains(acc, "ndjson"), strings.Contains(acc, "json"):
		return false
	}
	return def
}

// ingestError is the terminal NDJSON line after a rejected node.
type ingestError struct {
	Error string `json:"error"`
}

// replier streams per-chunk assignments (and at most one terminal
// error) back to the ingest client in its negotiated format.
type replier interface {
	// assignments reports blocks[i] as the assignment of chunk[i].
	assignments(chunk []store.PushNode, blocks []int32) // len(blocks) <= len(chunk)
	// errLine terminates the stream with an in-band error record.
	errLine(msg string)
}

// jsonReplier streams NDJSON assignment lines: a chunk's lines are
// written by hand (wire.AppendAssignLine, the bytes json.Encoder would
// write) into a scratch reused across chunks and go out in one Write.
// The rare terminal error line keeps json.Encoder for its escaping.
type jsonReplier struct {
	w   io.Writer
	buf []byte
}

func (rp *jsonReplier) assignments(chunk []store.PushNode, blocks []int32) {
	if len(blocks) == 0 {
		return
	}
	rp.buf = rp.buf[:0]
	for i, b := range blocks {
		rp.buf = wire.AppendAssignLine(rp.buf, chunk[i].U, b)
	}
	_, _ = rp.w.Write(rp.buf)
}

func (rp *jsonReplier) errLine(msg string) {
	_ = json.NewEncoder(rp.w).Encode(ingestError{Error: msg})
}

// wireReplier streams binary frames: one TypeAssign frame per chunk,
// a terminal TypeError frame on failure. Scratch buffers are reused
// across chunks, so the steady path writes without allocating.
type wireReplier struct {
	w   io.Writer
	us  []int32
	pay []byte
	fr  []byte
}

func (rp *wireReplier) assignments(chunk []store.PushNode, blocks []int32) {
	if len(blocks) == 0 {
		return
	}
	rp.us = rp.us[:0]
	for i := range blocks {
		rp.us = append(rp.us, chunk[i].U)
	}
	rp.pay = wire.AppendAssignPayload(rp.pay[:0], rp.us, blocks)
	rp.fr = wire.AppendFrame(rp.fr[:0], rp.pay)
	_, _ = rp.w.Write(rp.fr)
}

func (rp *wireReplier) errLine(msg string) {
	rp.pay = wire.AppendErrorPayload(rp.pay[:0], msg)
	rp.fr = wire.AppendFrame(rp.fr[:0], rp.pay)
	_, _ = rp.w.Write(rp.fr)
}

// refusal terminates an open stream with a TypeRefusal frame.
func (rp *wireReplier) refusal(status int, code, msg string) {
	rp.pay = wire.AppendRefusalPayload(rp.pay[:0], status, code, msg)
	rp.fr = wire.AppendFrame(rp.fr[:0], rp.pay)
	_, _ = rp.w.Write(rp.fr)
}

// ingestReq is the pooled per-request state of an ingest, either
// format: the frame reader whose arena hosts every node's frame and
// decoded adjacency (a binary request's verbatim, an NDJSON line's as
// the shim encodes it), the chunk being assembled, the reply scratch of
// either format, and the flush-to-session protocol. Pooling it makes
// the steady-state push path allocation-free in both formats — the
// buffers warm up to a request's working set and the next request
// reuses them.
type ingestReq struct {
	mgr   *Manager
	s     *Session
	batch bool
	w     http.ResponseWriter
	rc    *http.ResponseController
	r     *http.Request
	rep   replier

	rd   *wire.Reader
	wrep wireReplier
	jrep jsonReplier
	// line is the NDJSON scanner's initial buffer, allocated by the
	// first NDJSON request this state serves.
	line []byte

	chunk      []store.PushNode
	chunkBytes int
	wrote      bool

	// stream is set on an open stream (see streamUpgrade): each chunk
	// is answered once the connection holds no further byte, and
	// observed in hist from t0, its first frame.
	stream *nodeStream
	hist   *promtext.Histogram
	t0     time.Time
}

var ingestPool = sync.Pool{
	New: func() any { return &ingestReq{rd: wire.NewReader(nil)} },
}

// release returns the state to the pool. Every session job of the
// request has run or never will by now (see ingestJob), so nothing still
// reads the chunk or the arena behind it.
func (q *ingestReq) release() {
	q.rd.Reset(nil)
	// Keep the buffers, drop everything that names the request.
	bufs := ingestReq{rd: q.rd, wrep: q.wrep, jrep: q.jrep, line: q.line, chunk: q.chunk[:0]}
	bufs.wrep.w, bufs.jrep.w = nil, nil
	*q = bufs
	ingestPool.Put(q)
}

// flush runs the assembled chunk as a session job and writes the
// assignments back; it reports whether ingest may continue. The job has
// consumed every frame and adjacency slice of the chunk by the time it
// returns, so the arena is free to host the next one. Pushing the reply
// to the client is the caller's: a mid-stream chunk is flushed at once,
// while the chunk at body EOF is left to the handler's return, so a
// reply that fits net/http's buffer goes out in one write with a
// Content-Length instead of chunked encoding.
func (q *ingestReq) flush() bool {
	if len(q.chunk) == 0 {
		return true
	}
	var blocks []int32
	var err error
	if q.batch {
		blocks, err = q.s.IngestBatch(q.r.Context(), q.mgr.Pool(), q.chunk)
	} else {
		blocks, err = q.s.Ingest(q.r.Context(), q.mgr.Pool(), q.chunk)
	}
	if err != nil && !q.wrote && len(blocks) == 0 {
		// Nothing committed yet: report the rejection as a distinct
		// status (finished -> 409, out-of-range -> 422, edge budget
		// -> 413) instead of a 200 with an in-stream error record.
		q.refuse(err)
		return false
	}
	if len(blocks) > 0 {
		q.rep.assignments(q.chunk, blocks)
		q.wrote = true
	}
	if err != nil {
		q.inband(err)
		return false
	}
	q.chunk = q.chunk[:0]
	q.chunkBytes = 0
	q.rd.Arena.Reset()
	return true
}

// answer flushes the chunk and sends its reply at once; it reports
// whether ingest may continue. A stream's chunk stands for one push:
// it is counted and observed in the route's latency histogram before
// its reply goes out in one write to the connection.
func (q *ingestReq) answer() bool {
	ok := q.flush()
	if q.stream == nil {
		if ok {
			_ = q.rc.Flush()
		}
		return ok
	}
	q.mgr.m.streamChunks.Inc()
	if q.hist != nil {
		q.hist.ObserveExemplar(time.Since(q.t0), trace.FromContext(q.r.Context()).TraceIDString())
	}
	return q.stream.send() && ok
}

// fail reports an ingest-side (parse or read) failure: as a proper
// error status while nothing has been written, in-band afterwards.
func (q *ingestReq) fail(err error) {
	if !q.wrote {
		q.refuse(err)
		return
	}
	q.inband(err)
}

// inband ends a reply already under way with err. An open stream's
// client reads a push's whole answer from one reply, so it is told the
// status and code err would have been refused with; whether that stands
// for the push depends on how many of its nodes were answered before.
//
// A plain request's reply is under way, so it cannot say Connection:
// close as refuse does. Left unread, the rest of its body would be read
// by net/http after the handler returns, while the connection's next
// read starts: a recovered panic ("invalid concurrent Body.Read call")
// under the client's next request. So the error goes out first and the
// rest of the body is read here.
func (q *ingestReq) inband(err error) {
	if q.stream != nil {
		q.wrep.refusal(statusOf(err), errCode(err), err.Error())
		return
	}
	q.rep.errLine(err.Error())
	_ = q.rc.Flush()
	_, _ = io.Copy(io.Discard, q.r.Body)
}

// refuse answers err with its status before any reply was written, when
// the body may be partly unread. With full duplex on, net/http would
// drain the rest after the handler returns while the connection's next
// read starts, log a recovered panic and drop the connection under the
// client's next request; closing the connection after the answer
// avoids both.
func (q *ingestReq) refuse(err error) {
	q.w.Header().Set("Connection", "close")
	writeError(q.w, statusOf(err), err)
}

// nextFrame is the binary format's step: one frame, validated once (CRC
// + record decode into the arena), yielded with its verbatim bytes.
func (q *ingestReq) nextFrame() (store.PushNode, error) {
	nd, frame, err := q.rd.NextNode()
	switch {
	case err == nil:
		return store.PushNode{U: nd.U, W: nd.W, Adj: nd.Adj, EW: nd.EW, Frame: frame}, nil
	case err == io.EOF:
		return store.PushNode{}, io.EOF
	case errors.Is(err, wire.ErrMalformed):
		return store.PushNode{}, fmt.Errorf("%w (at node %d of the request)", err, len(q.chunk))
	}
	return store.PushNode{}, fmt.Errorf("read body: %w", err)
}

// nextLine is the NDJSON shim's step: one line, decoded once and
// immediately encoded into the arena as its canonical wire frame —
// exactly as a binary client would have sent the node (see
// wire.AppendNodePayload) — so the log bytes are identical no matter
// which format carried the stream. An empty edge-weight list becomes
// none in the node handed to the engine too, which rejects an ew whose
// length differs from adj's. A line of the canonical subset (see
// wire.ParseNodeLine; every line this repo's client writes) is parsed
// by hand into the arena in one pass over its bytes, as a binary frame
// is decoded; any other line goes through json.Unmarshal, which decides
// what is accepted and what its error says. The client streams a large
// body, so the lines of its head are parsed here while its tail is
// still being encoded.
func (q *ingestReq) nextLine(sc *bufio.Scanner) (store.PushNode, error) {
	a := &q.rd.Arena
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		wn, ok := wire.ParseNodeLine(line, a)
		nd := store.PushNode{U: wn.U, W: wn.W, Adj: wn.Adj, EW: wn.EW}
		if !ok {
			// Declared here, so only a fallback line pays its escape.
			var fb store.PushNode
			if err := json.Unmarshal(line, &fb); err != nil {
				return store.PushNode{}, fmt.Errorf("bad node line %.120q: %v", line, err)
			}
			nd = fb
		}
		if len(nd.EW) == 0 {
			nd.EW = nil
		}
		from := len(a.Raw)
		a.Raw = wire.AppendNodeFrame(a.Raw, nd.U, nd.W, nd.Adj, nd.EW)
		nd.Frame = a.Raw[from:len(a.Raw):len(a.Raw)]
		return nd, nil
	}
	if err := sc.Err(); err != nil {
		return store.PushNode{}, fmt.Errorf("read body: %v", err)
	}
	return store.PushNode{}, io.EOF
}

// ingest streams the request body into the session in chunks and
// streams the per-node assignments back after each chunk — the client
// sees its nodes' permanent blocks while it is still uploading the rest
// of the graph. The body is either wire v2 binary frames
// (Content-Type: application/x-oms-frame) or NDJSON PushNode lines; a
// per-format step turns either into framed nodes for the one chunking
// loop below, and the reply format follows the request format unless
// Accept overrides it. Full-duplex mode keeps the request body readable
// after the first response flush (without it, HTTP/1.x servers cut the
// body off once headers go out); clients uploading very large streams
// in a single POST must read the response concurrently, as curl and
// browsers do.
//
// A binary /nodes request that asks to upgrade to wire.StreamProtocol
// is an open stream: omsd answers 101 Switching Protocols, takes the
// connection over (http.ResponseController.Hijack) and reads frames
// from it directly, while a client writes each push's frames and waits
// for their answer before it writes the next. A chunk is answered as
// soon as the frame reader holds no further byte after a whole frame,
// not at 256 nodes, with its reply frames written straight to the
// connection; an error ends the stream with a refusal frame (inband).
// The stream ends when the client closes it, after streamIdleTimeout
// without a byte, and at its next chunk boundary once the Manager ends
// its streams (shutdown). Every /nodes reply advertises the upgrade
// (RFC 9110 §7.8); a client streams only to a server that did. Any
// other body, whatever its length, keeps the plain path, as does an
// upgrade request whose writer cannot be hijacked.
//
// With batch set (the /batch endpoint) the chunks are larger atomic
// batches instead: each is admitted whole before it is assigned in
// order, and a rejected batch applies none of its nodes. Either way a
// chunk's acknowledged nodes are logged as one group frame.
func ingest(mgr *Manager, s *Session, w http.ResponseWriter, r *http.Request, batch bool) {
	binReq, err := requestBinary(r)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	q := ingestPool.Get().(*ingestReq)
	defer q.release()
	q.mgr, q.s, q.batch = mgr, s, batch
	q.w, q.rc, q.r = w, http.NewResponseController(w), r
	var body io.Reader = r.Body
	if !batch {
		h := w.Header()
		h.Set("Connection", "Upgrade")
		h.Set("Upgrade", wire.StreamProtocol)
		if streamUpgrade(r) {
			st, hijacked := mgr.upgradeStream(w, q.rc)
			if st != nil {
				defer st.close()
				q.stream, body, q.wrote = st, st, true
				q.hist, _ = r.Context().Value(chunkHistogram{}).(*promtext.Histogram)
			} else if hijacked {
				return
			}
		}
	}
	if q.stream == nil {
		_ = q.rc.EnableFullDuplex() // best effort; HTTP/2 is duplex already
	}

	if acceptBinary(r, binReq) {
		q.wrep.w = w
		if q.stream != nil {
			q.wrep.w = q.stream
		}
		q.rep = &q.wrep
		w.Header().Set("Content-Type", wire.MediaType)
	} else {
		q.jrep.w = w
		q.rep = &q.jrep
		w.Header().Set("Content-Type", "application/x-ndjson")
	}

	next := q.nextFrame
	if binReq {
		q.rd.Reset(body)
		q.rd.MaxPayload = maxNodeLine
	} else {
		if q.line == nil {
			q.line = make([]byte, 64<<10)
		}
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(q.line, maxNodeLine)
		next = func() (store.PushNode, error) { return q.nextLine(sc) }
	}

	chunkSize := ingestChunkSize
	if batch {
		chunkSize = batchChunkSize
	}
	if cap(q.chunk) < chunkSize {
		q.chunk = make([]store.PushNode, 0, chunkSize)
	}
	for {
		if q.stream != nil && len(q.chunk) == 0 && q.rd.Buffered() == 0 {
			q.stream.between = true
		}
		nd, err := next()
		if err == io.EOF {
			// A stream's last frame emptied the reader: nothing is left.
			q.flush()
			return
		}
		if err != nil {
			q.fail(err)
			return
		}
		if q.stream != nil && len(q.chunk) == 0 {
			q.t0 = time.Now()
		}
		q.chunk = append(q.chunk, nd)
		q.chunkBytes += len(nd.Frame)
		if len(q.chunk) >= chunkSize || q.chunkBytes >= chunkByteBudget || q.stream != nil && q.rd.Buffered() == 0 {
			if !q.answer() {
				return
			}
		}
	}
}

// chunkHistogram keys the route latency histogram in the context of an
// open stream, which ingest observes once per answered chunk instead of
// withTrace once per request.
type chunkHistogram struct{}
