// Package trace is a dependency-free, allocation-conscious request
// tracer for omsd. It speaks the W3C traceparent header (version 00),
// records per-request span trees into a lock-free ring buffer with
// head sampling, and keeps a tail-based flight recorder that always
// retains traces ending in error or breaching a latency threshold —
// so "which request made p99 spike?" has an answer even after the
// main ring has wrapped.
//
// The sampled-out fast path is a nil *Active: every method no-ops on
// nil, so an unsampled request pays one pointer check and zero
// allocations per span site.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand/v2"
)

// TraceID is the 16-byte W3C trace-id. The zero value is invalid on
// the wire (the spec reserves all-zero ids).
type TraceID [16]byte

// SpanID is the 8-byte W3C parent-id / span-id.
type SpanID [8]byte

// FlagSampled is the only defined trace-flags bit: the caller vouches
// that upstream recorded (or wants recorded) this trace.
const FlagSampled = 0x01

// Header is the canonical W3C propagation header name.
const Header = "traceparent"

var (
	// ErrMalformed reports a traceparent or trace-id that does not
	// parse: wrong length, bad hex, all-zero ids, or version ff.
	ErrMalformed = errors.New("trace: malformed traceparent")

	zeroTraceID TraceID
	zeroSpanID  SpanID
)

func (t TraceID) IsZero() bool { return t == zeroTraceID }
func (s SpanID) IsZero() bool  { return s == zeroSpanID }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// MarshalText renders the id as 32 lowercase hex digits, so ids embed
// directly in JSON documents and log fields.
func (t TraceID) MarshalText() ([]byte, error) {
	b := make([]byte, 32)
	hex.Encode(b, t[:])
	return b, nil
}

// UnmarshalText parses 32 hex digits; the all-zero id is rejected.
func (t *TraceID) UnmarshalText(b []byte) error {
	id, err := ParseTraceID(string(b))
	if err != nil {
		return err
	}
	*t = id
	return nil
}

// MarshalText renders the span id as 16 lowercase hex digits.
func (s SpanID) MarshalText() ([]byte, error) {
	b := make([]byte, 16)
	hex.Encode(b, s[:])
	return b, nil
}

// UnmarshalText parses 16 hex digits. Unlike trace ids the zero span
// id is accepted: it marks a root span with no parent.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return ErrMalformed
	}
	var id SpanID
	if _, err := hex.Decode(id[:], b); err != nil {
		return ErrMalformed
	}
	*s = id
	return nil
}

// ParseTraceID parses a 32-hex-digit trace id (the path form used by
// GET /v1/traces/{id}).
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, ErrMalformed
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, ErrMalformed
	}
	if id.IsZero() {
		return TraceID{}, ErrMalformed
	}
	return id, nil
}

// NewTraceID draws a random non-zero trace id from the runtime's
// ChaCha8 generator (per-thread state, no lock, no allocation).
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], rand.Uint64())
	binary.BigEndian.PutUint64(t[8:], rand.Uint64())
	if t.IsZero() { // vanishing odds, but the spec forbids it
		t[15] = 1
	}
	return t
}

// NewSpanID draws a random non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], rand.Uint64())
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// Context is a decoded traceparent: the trace the request belongs to,
// the caller's span id, and the flags byte.
type Context struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether both ids are present (non-zero).
func (c Context) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// Sampled reports the sampled flag bit.
func (c Context) Sampled() bool { return c.Flags&FlagSampled != 0 }

// Traceparent renders the version-00 header value:
// 00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>.
func (c Context) Traceparent() string {
	b := make([]byte, 55)
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], c.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], c.SpanID[:])
	b[52] = '-'
	hex.Encode(b[53:55], []byte{c.Flags})
	return string(b)
}

// NewContext mints a fresh root context for client-side injection.
func NewContext(sampled bool) Context {
	c := Context{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if sampled {
		c.Flags = FlagSampled
	}
	return c
}

// ParseTraceparent decodes a W3C traceparent header. Version 00 must
// be exactly 55 chars; higher hex versions are accepted if their first
// four fields parse (the spec's forward-compatibility rule), version
// ff and all-zero ids are rejected.
func ParseTraceparent(s string) (Context, error) {
	var c Context
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return c, ErrMalformed
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(s[:2])); err != nil {
		return c, ErrMalformed
	}
	switch {
	case ver[0] == 0xff:
		return c, ErrMalformed
	case ver[0] == 0 && len(s) != 55:
		return c, ErrMalformed
	case ver[0] > 0 && len(s) > 55 && s[55] != '-':
		return c, ErrMalformed
	}
	if _, err := hex.Decode(c.TraceID[:], []byte(s[3:35])); err != nil {
		return Context{}, ErrMalformed
	}
	if _, err := hex.Decode(c.SpanID[:], []byte(s[36:52])); err != nil {
		return Context{}, ErrMalformed
	}
	var fl [1]byte
	if _, err := hex.Decode(fl[:], []byte(s[53:55])); err != nil {
		return Context{}, ErrMalformed
	}
	c.Flags = fl[0]
	if !c.Valid() {
		return Context{}, ErrMalformed
	}
	return c, nil
}
