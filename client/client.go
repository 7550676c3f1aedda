// Package client is the typed Go client for the omsd HTTP API. It
// wraps the versioned surface (create / push / batch / finish / refine
// / result / status / delete) behind one struct, negotiates the wire
// format per request — NDJSON by default, the v2 binary frame protocol
// with WithBinary(true) — and turns every failure into a typed *Error
// whose Code matches the API's stable error classes, so callers branch
// with errors.Is(err, client.ErrGone) instead of matching status codes
// by hand.
//
// In binary mode a Push rides the session's open stream instead of
// sending a request of its own: a connection that one
// POST /v1/sessions/{id}/nodes, sent without a body and with
// "Connection: Upgrade" and "Upgrade: oms-stream", switched to frames
// both ways (101 Switching Protocols). Each push writes its node frames
// into the connection and reads its assignment frames back, on the
// caller's goroutine. A Client streams only to a server whose HTTP/1.1
// /nodes replies advertise the upgrade (an "Upgrade: oms-stream"
// header), so its first push to a server is a plain request and a
// server that does not advertise it is never asked, and opens a
// session's stream only when the session's previous push started
// within streamIdle, so sparse pushes stay plain requests. An upgrade
// answered with anything but a 101 and a writable connection makes that
// push a plain request, and a success that is not a 101 (something on
// the way ignored the upgrade) keeps the Client on plain requests from
// then on. HTTP/2 has no upgrade, so it gets plain requests too. NDJSON
// pushes, PushBatch, cluster mode, a context carrying a traceparent and
// a body over 32 KiB go as plain requests, as does a push that finds
// its session's stream busy or the Client holding maxStreams streams. A
// stream closes on Finish or Delete of its session from the same
// Client, before they send, when a push's context ends mid-push, after
// streamIdle without a push, when omsd refuses a push, when omsd ends
// it (at a push boundary, as at shutdown), and on any other failure,
// after which the push is redone once as a plain request: the server
// answers an already assigned node with its block, so Push returns what
// a plain request returns. A refused push is not redone; omsd's refusal
// frame carries the status and code, so it returns the same typed
// error.
//
// A plain push (PushBatch, or a Push that does not ride a stream) runs
// on pooled per-request state: the reply reader and its arena, the
// decode scratch, the NDJSON line buffer and the encode scratch are
// reused across requests. A body of at most 32 KiB
// (a 64-node push of a sparse graph) is encoded before the request goes
// out, and net/http gets one exact-size copy of it, sent with a
// Content-Length: it may read a body after Do returns and rewinds it to
// follow a redirect, so it never gets the scratch. A larger body is
// encoded while it is sent: the rest of its nodes go into the scratch
// inside the body's Read, on the transport's writer goroutine, so the
// server parses the first lines while the client encodes the last; a
// fence ends every read of it before Push returns. So a steady push
// allocates its request, at most that one copy and the returned
// assignments. In NDJSON the node lines are written and the assignment
// lines parsed by hand, with the bytes encoding/json would write; a
// reply line outside that canonical form is decoded by encoding/json.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Client talks to one omsd server — or, with WithCluster, to a sharded
// omsd cluster, routing each request to the session's owner node. The
// zero value is not usable; use New. A Client is safe for concurrent
// use.
type Client struct {
	base   string
	hc     *http.Client
	binary bool
	router *router // nil outside cluster mode

	// streamOK is whether the last binary /nodes reply advertised open
	// streams (wire.StreamProtocol); noUpgrade is set for good once an
	// upgrade was answered with a success that is not a 101 (see
	// ingestStream.open). streams holds the open ones by session id, at
	// most maxStreams; lastPush holds when each session's last binary
	// push started (see notePush), pruned once it outgrows prunePushes.
	streamOK    atomic.Bool
	noUpgrade   atomic.Bool
	smu         sync.Mutex
	streams     map[string]*ingestStream
	lastPush    map[string]time.Time
	prunePushes int
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport tuning, test servers).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithBinary switches ingest and result transfer to the v2 binary
// frame protocol (application/x-oms-frame): varint-delta node frames
// up, binary assignment frames back. Everything else stays JSON.
func WithBinary(on bool) Option {
	return func(c *Client) { c.binary = on }
}

// New returns a Client for the server at baseURL
// (e.g. "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Spec declares a new session — the JSON body of POST /v1/sessions.
type Spec struct {
	N               int32   `json:"n"`
	M               int64   `json:"m"`
	Adaptive        bool    `json:"adaptive,omitempty"`
	TotalNodeWeight int64   `json:"total_node_weight,omitempty"`
	TotalEdgeWeight int64   `json:"total_edge_weight,omitempty"`
	K               int32   `json:"k,omitempty"`
	Topology        string  `json:"topology,omitempty"`
	Distances       string  `json:"distances,omitempty"`
	Scorer          string  `json:"scorer,omitempty"`
	Epsilon         float64 `json:"epsilon,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
	Record          bool    `json:"record,omitempty"`
	// Threads is sent for older daemons; current ones accept and
	// ignore it (a session assigns every batch in order).
	Threads    int `json:"threads,omitempty"`
	TTLSeconds int `json:"ttl_seconds,omitempty"`
}

// Created is the create response.
type Created struct {
	ID       string `json:"id"`
	K        int32  `json:"k"`
	N        int32  `json:"n"`
	Adaptive bool   `json:"adaptive"`
	Lmax     int64  `json:"lmax"`
}

// Summary is a session's status (GET /v1/sessions/{id}) and the finish
// response; cut and imbalance are present only on recorded sessions.
// Adaptive is raw because the two endpoints shape it differently: a
// status reports `true` for open-ended sessions, a finish summary
// reports the estimator's reconcile object.
type Summary struct {
	ID        string          `json:"id"`
	K         int32           `json:"k"`
	N         int32           `json:"n"`
	Assigned  int32           `json:"assigned"`
	Lmax      int64           `json:"lmax"`
	Finished  bool            `json:"finished"`
	EdgeCut   *int64          `json:"edge_cut"`
	Imbalance *float64        `json:"imbalance"`
	Adaptive  json.RawMessage `json:"adaptive,omitempty"`
}

// Result is an assignment vector (GET /v1/sessions/{id}/result).
type Result struct {
	ID      string  `json:"id"`
	Version int32   `json:"version"`
	Pass    int32   `json:"pass"`
	K       int32   `json:"k"`
	Lmax    int64   `json:"lmax"`
	EdgeCut *int64  `json:"edge_cut"`
	Parts   []int32 `json:"parts"`
}

// Create opens a session.
func (c *Client) Create(ctx context.Context, spec Spec) (Created, error) {
	var out Created
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions", spec, &out)
	return out, err
}

// Status reads one session's status.
func (c *Client) Status(ctx context.Context, id string) (Summary, error) {
	var out Summary
	err := c.doJSON(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &out)
	return out, err
}

// List enumerates live sessions.
func (c *Client) List(ctx context.Context) ([]Summary, error) {
	var out []Summary
	err := c.doJSON(ctx, http.MethodGet, "/v1/sessions", nil, &out)
	return out, err
}

// Finish seals the session and returns its summary. It first closes
// the session's open stream, if this Client holds one.
func (c *Client) Finish(ctx context.Context, id string) (Summary, error) {
	c.closeStream(id)
	var out Summary
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+id+"/finish", struct{}{}, &out)
	return out, err
}

// Refine queues background restream refinement: passes extra passes, or
// the daemon's default when passes <= 0.
func (c *Client) Refine(ctx context.Context, id string, passes int) error {
	body := map[string]int{}
	if passes > 0 {
		body["passes"] = passes
	}
	return c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+id+"/refine", body, nil)
}

// Delete drops the session. It first closes the session's open
// stream, if this Client holds one.
func (c *Client) Delete(ctx context.Context, id string) error {
	c.closeStream(id)
	return c.doJSON(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// doJSON runs one JSON request/response cycle, mapping non-2xx to a
// typed *Error. In cluster mode the request is routed to the owning
// node and retried through failover (see route); the body is marshaled
// once so every attempt replays identical bytes.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return err
		}
	}
	return c.route(ctx, sessionIDFromPath(path), method != http.MethodGet, func(base string) error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		injectTrace(ctx, req)
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return apiError(resp)
		}
		if out == nil {
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// apiError decodes the uniform {"error","code"} body into an *Error.
// The body is always consumed, so the connection can be reused.
func apiError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	_, _ = io.Copy(io.Discard, resp.Body)
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(raw, &eb) == nil && (eb.Code != "" || eb.Error != "") {
		return &Error{Status: resp.StatusCode, Code: eb.Code, Message: eb.Error}
	}
	return &Error{Status: resp.StatusCode, Message: fmt.Sprintf("http %d: %.200s", resp.StatusCode, raw)}
}
