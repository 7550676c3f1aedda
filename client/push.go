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
func (c *Client) Push(ctx context.Context, id string, nodes []Node) ([]Assignment, error) {
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

// pushState is the pooled per-request state of a push, either format:
// the reply reader (read-ahead buffer and arena), one assign frame's
// decoded pairs, the NDJSON reply scanner's initial line buffer and the
// request encode scratch. Each buffer is allocated by the first request
// that needs it and reused by the next, so a steady push allocates only
// its request, one exact-size copy of the body and the []Assignment it
// returns. Nothing handed to the caller or to net/http aliases the state.
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

// encode renders nodes in the request format into the scratch and
// returns one exact-size copy of it. An NDJSON line is written by hand
// (wire.AppendNodeLine), byte for byte what json.Encoder writes for a
// Node. net/http gets the copy, never the scratch: the Transport may
// still read a body after Do returns, and a 307 wrong_node redirect
// rewinds it through GetBody.
func (s *pushState) encode(binary bool, nodes []Node) []byte {
	s.body = s.body[:0]
	for _, nd := range nodes {
		if binary {
			s.body = wire.AppendNodeFrame(s.body, nd.U, nd.W, nd.Adj, nd.EW)
		} else {
			s.body = wire.AppendNodeLine(s.body, nd.U, nd.W, nd.Adj, nd.EW)
		}
	}
	return append(make([]byte, 0, len(s.body)), s.body...)
}

// ingest encodes the nodes once and streams them to the session's
// node. In cluster mode the request is routed to the owner and retried
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
	body := s.encode(c.binary, nodes)
	var out []Assignment
	err := c.route(ctx, id, true, func(base string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%s/%s", base, id, route), bytes.NewReader(body))
		if err != nil {
			return err
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
	out := make([]Assignment, 0, hint)
	if s.rd == nil {
		s.rd = wire.NewReader(r)
	} else {
		s.rd.Reset(r)
	}
	for {
		payload, _, err := s.rd.NextFrame()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		switch payload[0] {
		case wire.TypeAssign:
			s.us, s.bs, err = wire.DecodeAssignPayload(payload, s.us[:0], s.bs[:0])
			if err != nil {
				return out, err
			}
			for i, u := range s.us {
				out = append(out, Assignment{U: u, B: s.bs[i]})
			}
		case wire.TypeError:
			msg, err := wire.DecodeErrorPayload(payload)
			if err != nil {
				return out, err
			}
			return out, &Error{Message: msg}
		default:
			return out, fmt.Errorf("oms: unexpected reply frame type %d", payload[0])
		}
		s.rd.Arena.Reset()
	}
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
