package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"oms/internal/wire"
)

// Stream bounds. A session's push opens a stream only if its previous
// push came within streamIdle, so a session pushed less often than that
// sends a request per push as it would without streams; a stream that
// no push used for streamIdle is closed. A Client keeps at most
// maxStreams open; a push beyond that bound goes as a request of its
// own. Each stream holds a connection, three goroutines and about
// 330 KiB across client and server, mostly the two frame readers'
// read-ahead buffers and arenas (64 streams to an in-process omsd held
// 21 MiB more heap than none), so the bound caps what one Client pins
// at about that; a workload's open streams number the sessions it
// pushed within the last streamIdle.
const (
	streamIdle = time.Second
	maxStreams = 64
)

// ingestStream is one session's open POST /v1/sessions/{id}/nodes: an
// io.Pipe body that each binary push writes its frames into, and the
// reply those pushes read their assignment frames from. One push uses
// it at a time; a push that finds it busy sends a request of its own.
//
// The request carries wire.OpenStreamHeader, so omsd answers its header
// before it reads the body, each push's frames as soon as they are in,
// and a refused push with a refusal frame that keeps the status and
// code a request of its own would have got. It runs under a context of
// its own, not a push's, so it outlives the push that opened it. It
// ends on Finish or Delete of the session from the same Client (before
// they send), after streamIdle without a push, when a push's context is
// done mid-push, when omsd refuses a push, and on any other failure,
// which the push then redoes once as a request of its own: the server
// answers a node it already assigned with the same block, so the redo
// returns what the push would have returned without the stream.
type ingestStream struct {
	c  *Client
	id string

	// mu is held by the push that uses the stream and by whoever ends
	// it; everything below is guarded by it.
	mu     sync.Mutex
	closed bool
	pw     *io.PipeWriter // nil until the first push opens the request
	cancel context.CancelFunc
	done   chan streamReply // the request's outcome, until resp is set
	resp   *http.Response
	rd     *wire.Reader
	us, bs []int32
	last   time.Time
	idle   *time.Timer
}

// streamReply is what the stream's http.Client.Do returned.
type streamReply struct {
	resp *http.Response
	err  error
}

// pushStream sends a binary push over the session's open stream,
// opening one if need be, and reports whether it did; if so, it returns
// what the push returns. It does not for an NDJSON or cluster Client,
// before a /nodes reply carried wire.OpenStreamHeader, once a stream's
// first reply was held back (see push), for a context carrying a
// traceparent (the server's trace of it would be the stream's), for an
// empty push or one over streamHead bytes, when the stream is busy, or
// when it would open a stream and the session's previous push came
// longer than streamIdle ago or maxStreams are open. A push omsd
// refuses ends the stream and returns the refusal. On any other failure
// it ends the stream and reports false, so the push goes again as a
// request of its own.
func (c *Client) pushStream(ctx context.Context, id string, nodes []Node) ([]Assignment, bool, error) {
	if !c.binary || c.router != nil || len(nodes) == 0 {
		return nil, false, nil
	}
	recent := c.notePush(id)
	if !c.streamOK.Load() || c.streamHeld.Load() || traceparentFrom(ctx) != "" {
		return nil, false, nil
	}
	s := pushPool.Get().(*pushState)
	defer s.release()
	if s.fill(true, nodes) < len(nodes) {
		return nil, false, nil
	}
	st := c.takeStream(id, recent)
	if st == nil {
		return nil, false, nil
	}
	defer st.mu.Unlock()
	out, err := st.push(ctx, s.body, len(nodes))
	if err != nil {
		c.dropStream(st)
		var refused *Error
		if errors.As(err, &refused) {
			// omsd answered the push and ended the reply.
			st.end(true)
			return out, true, err
		}
		st.end(false)
		return nil, false, nil
	}
	st.last = time.Now()
	st.idle.Reset(streamIdle)
	return out, true, nil
}

// notePush records a binary push to session id and reports whether the
// session's previous one came within streamIdle. It forgets the
// sessions pushed longer ago than that whenever the record has doubled.
func (c *Client) notePush(id string) bool {
	now := time.Now()
	c.smu.Lock()
	defer c.smu.Unlock()
	prev, seen := c.lastPush[id]
	if c.lastPush == nil {
		c.lastPush = make(map[string]time.Time)
	}
	c.lastPush[id] = now
	if len(c.lastPush) > c.prunePushes {
		for k, t := range c.lastPush {
			if now.Sub(t) >= streamIdle {
				delete(c.lastPush, k)
			}
		}
		c.prunePushes = max(2*len(c.lastPush), maxStreams)
	}
	return seen && now.Sub(prev) < streamIdle
}

// takeStream returns the session's stream, locked. If it has none, it
// creates one when recent is set and the Client holds fewer than
// maxStreams. It returns nil when another push holds the stream, or
// none may be created.
func (c *Client) takeStream(id string, recent bool) *ingestStream {
	c.smu.Lock()
	st := c.streams[id]
	if st == nil {
		if !recent || len(c.streams) >= maxStreams {
			c.smu.Unlock()
			return nil
		}
		if c.streams == nil {
			c.streams = make(map[string]*ingestStream)
		}
		st = &ingestStream{c: c, id: id}
		c.streams[id] = st
	}
	c.smu.Unlock()
	if !st.mu.TryLock() {
		return nil
	}
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	return st
}

// dropStream forgets st, unless the session has a newer stream.
func (c *Client) dropStream(st *ingestStream) {
	c.smu.Lock()
	if c.streams[st.id] == st {
		delete(c.streams, st.id)
	}
	c.smu.Unlock()
}

// closeStream ends the session's stream, if any, once the push that
// uses it has returned, and forgets the session's last push.
func (c *Client) closeStream(id string) {
	c.smu.Lock()
	st := c.streams[id]
	delete(c.streams, id)
	delete(c.lastPush, id)
	c.smu.Unlock()
	if st != nil {
		st.mu.Lock()
		st.end(true)
		st.mu.Unlock()
	}
}

// push writes one push's encoded frames into the stream, opening its
// request first if this is the stream's first push, and reads back
// exactly n assignments. A done ctx, or the http.Client's Timeout,
// cancels the request.
func (st *ingestStream) push(ctx context.Context, body []byte, n int) (out []Assignment, err error) {
	if st.pw == nil {
		if err := st.open(); err != nil {
			return nil, err
		}
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, st.abort)
		defer func() {
			if !stop() && err == nil {
				err = ctx.Err()
			}
		}()
	}
	if d := st.c.hc.Timeout; d > 0 {
		// The http.Client's Timeout bounds each push, as it bounds
		// each plain request.
		t := time.AfterFunc(d, st.abort)
		defer t.Stop()
	}
	if _, err := st.pw.Write(body); err != nil {
		return nil, err
	}
	if st.resp == nil {
		// omsd writes a stream's reply header before it reads the
		// body, so only something between the Client and omsd that
		// reads a whole body before it answers, as a proxy that
		// buffers requests does, holds it back, and for as long as the
		// stream is open. Past streamIdle without it, this Client
		// stops streaming.
		held := time.AfterFunc(streamIdle, func() {
			st.c.streamHeld.Store(true)
			st.abort()
		})
		r := <-st.done
		held.Stop()
		st.done = nil
		if r.err != nil {
			return nil, r.err
		}
		st.resp = r.resp
		if r.resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("oms: stream answered %s", r.resp.Status)
		}
		st.rd = wire.NewReader(r.resp.Body)
	}
	return readAssignFrames(st.rd, &st.us, &st.bs, make([]Assignment, 0, n), n)
}

// open starts the stream's request. Its body is the pipe the pushes
// write into. The request goes without the http.Client's Timeout,
// which would bound the stream's whole life; push applies it to each
// push instead.
func (st *ingestStream) open() error {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.c.base+"/v1/sessions/"+st.id+"/nodes", pr)
	if err != nil {
		cancel()
		return err
	}
	req.Header.Set("Content-Type", wire.MediaType)
	req.Header.Set("Accept", wire.MediaType)
	req.Header.Set(wire.OpenStreamHeader, "1")
	hc := *st.c.hc
	hc.Timeout = 0
	st.pw, st.cancel, st.done = pw, cancel, make(chan streamReply, 1)
	done := st.done
	go func() {
		resp, err := hc.Do(req)
		done <- streamReply{resp, err}
	}()
	st.idle = time.AfterFunc(streamIdle, st.idleEnd)
	return nil
}

// abort cancels the request and ends its body, so a transport blocked
// reading the pipe for the next push gives up too. It is safe to call
// from any goroutine.
func (st *ingestStream) abort() {
	st.cancel()
	st.pw.CloseWithError(errStreamAborted)
}

// errStreamAborted ends the body of a stream that abort gave up on.
var errStreamAborted = errors.New("oms: stream aborted")

// end closes the stream. Gracefully, it ends the body and reads the
// reply to its end, so the server's handler has returned and the
// connection can serve the next request; a server that does not end the
// reply within streamIdle is cut off. Otherwise it cancels the request
// at once. Callers hold mu.
func (st *ingestStream) end(graceful bool) {
	if st.closed {
		return
	}
	st.closed = true
	if st.pw == nil {
		return
	}
	st.idle.Stop()
	st.pw.Close()
	if graceful && st.resp != nil {
		t := time.AfterFunc(streamIdle, st.cancel)
		_, _ = io.Copy(io.Discard, st.resp.Body)
		t.Stop()
	}
	st.cancel()
	if st.done != nil {
		// The request never answered: wait for Do to give it up.
		if r := <-st.done; r.resp != nil {
			st.resp = r.resp
		}
	}
	if st.resp != nil {
		st.resp.Body.Close()
	}
}

// idleEnd ends a stream no push has used for streamIdle. A push that
// holds the stream re-arms the timer when it is done.
func (st *ingestStream) idleEnd() {
	if !st.mu.TryLock() {
		return
	}
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	if idle := time.Since(st.last); idle < streamIdle {
		st.idle.Reset(streamIdle - idle)
		return
	}
	st.c.dropStream(st)
	st.end(true)
}
