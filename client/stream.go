package client

import (
	"context"
	"errors"
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
// own. Each stream holds a connection and, on omsd's side, its handler
// goroutine, its pooled ingest state (a 64 KiB frame reader and arena)
// and no second buffer; the Client's side holds a reply reader sized to
// replies (streamReplyBuffer), so the bound caps what one Client pins
// at about 64 of those; a workload's open streams number the sessions
// it pushed within the last streamIdle.
const (
	streamIdle = time.Second
	maxStreams = 64
)

// streamReplyBuffer is the read-ahead of a stream's reply reader: a
// 64-node push is answered with one frame of a few hundred bytes. The
// reader grows for a larger frame.
const streamReplyBuffer = 1 << 10

// ingestStream is one session's open stream: a connection that a
// POST /v1/sessions/{id}/nodes upgraded to wire.StreamProtocol. Each
// binary push writes its frames into it from the caller's goroutine and
// reads its assignment frames back on the same goroutine. One push uses
// it at a time; a push that finds it busy sends a request of its own.
//
// omsd answers each push's frames as soon as they are in, and a refused
// push with a refusal frame that keeps the status and code a request of
// its own would have got. The connection outlives the push that opened
// it. It ends on Finish or Delete of the session from the same Client
// (before they send), after streamIdle without a push, when a push's
// context is done mid-push, when omsd refuses a push, and on any other
// failure, which the push then redoes once as a request of its own: the
// server answers a node it already assigned with the same block, so the
// redo returns what the push would have returned without the stream.
type ingestStream struct {
	c  *Client
	id string

	// mu is held by the push that uses the stream and by whoever ends
	// it; everything below is guarded by it.
	mu     sync.Mutex
	closed bool
	conn   io.ReadWriteCloser // the upgraded connection; nil until the first push opens it
	rd     *wire.Reader
	us, bs []int32
	last   time.Time
	idle   *time.Timer
}

// errNoUpgrade reports an upgrade request answered with anything but a
// 101 and a writable connection.
var errNoUpgrade = errors.New("oms: stream upgrade refused")

// pushStream sends a binary push over the session's open stream,
// opening one if need be, and reports whether it did; if so, it returns
// what the push returns. It does not for an NDJSON or cluster Client,
// before an HTTP/1.1 /nodes reply advertised wire.StreamProtocol, once
// an upgrade was answered with a success that is not a 101 (see open),
// for a context carrying a traceparent (the server's trace of it would
// be the stream's), for an empty push or one over streamHead bytes, when
// the stream is busy, or when it would open a stream and the session's
// previous push came longer than streamIdle ago or maxStreams are open.
// A push omsd refuses ends the stream and returns the refusal. On any
// other failure it ends the stream and reports false, so the push goes
// again as a request of its own.
func (c *Client) pushStream(ctx context.Context, id string, nodes []Node) ([]Assignment, bool, error) {
	if !c.binary || c.router != nil || len(nodes) == 0 {
		return nil, false, nil
	}
	recent := c.notePush(id)
	if !c.streamOK.Load() || c.noUpgrade.Load() || traceparentFrom(ctx) != "" {
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
		st.end()
		var refused *Error
		if errors.As(err, &refused) {
			// omsd answered the push and ended the stream.
			return out, true, err
		}
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
		st.end()
		st.mu.Unlock()
	}
}

// push writes one push's encoded frames into the stream, opening it
// first if this is the stream's first push, and reads back exactly n
// assignments. A done ctx, or the http.Client's Timeout, closes the
// connection.
func (st *ingestStream) push(ctx context.Context, body []byte, n int) (out []Assignment, err error) {
	if st.conn == nil {
		if err := st.open(ctx); err != nil {
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
	if _, err := st.conn.Write(body); err != nil {
		return nil, err
	}
	return readAssignFrames(st.rd, &st.us, &st.bs, make([]Assignment, 0, n), n)
}

// open upgrades a POST /v1/sessions/{id}/nodes without a body to
// wire.StreamProtocol, under ctx and the http.Client's Timeout. The
// request goes through a copy of the http.Client without its Timeout,
// which would wrap the 101's body in a reader that cannot be written.
// Anything but a 101 with a writable body fails; a success that is not
// a 101 (a server or intermediary that ignored the upgrade) also stops
// this Client from streaming.
func (st *ingestStream) open(ctx context.Context) error {
	hc := *st.c.hc
	if hc.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hc.Timeout)
		defer cancel()
		hc.Timeout = 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.c.base+"/v1/sessions/"+st.id+"/nodes", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wire.MediaType)
	req.Header.Set("Accept", wire.MediaType)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.StreamProtocol)
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	conn, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		if resp.StatusCode < 300 {
			st.c.noUpgrade.Store(true)
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return errNoUpgrade
	}
	st.conn = conn
	st.rd = wire.NewReaderSize(conn, streamReplyBuffer)
	st.idle = time.AfterFunc(streamIdle, st.idleEnd)
	return nil
}

// abort closes the connection, so a push blocked writing into it or
// reading from it gives up. It is safe to call from any goroutine.
func (st *ingestStream) abort() { st.conn.Close() }

// end closes the stream. omsd's loop reads the connection's end at a
// push boundary and ends cleanly. Callers hold mu.
func (st *ingestStream) end() {
	if st.closed {
		return
	}
	st.closed = true
	if st.conn == nil {
		return
	}
	st.idle.Stop()
	st.conn.Close()
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
	st.end()
}
