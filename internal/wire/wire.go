// Package wire is omsd's v2 binary record codec: the one encoding a
// node record ever has. An ingest request body, the WAL record on disk,
// and the cluster's replication stream all carry the same bytes — a
// request is validated once at the HTTP boundary and its node payloads
// are copied into the log verbatim, never re-marshaled.
//
// # Frame layout
//
// Every record travels inside a self-checking frame:
//
//	+----------------+----------------+------------------------+
//	| payload length | CRC32-IEEE     | payload                |
//	| uint32 LE      | uint32 LE      | length bytes           |
//	+----------------+----------------+------------------------+
//
// The first payload byte discriminates the record type. The constants
// below are the whole type space — requests, replies, stream files and
// the WAL draw from the one table, so a frame is meaningful wherever it
// lands.
//
// # Node records (TypeNode)
//
//	type byte (5)
//	uvarint   u          node id
//	uvarint   w          node weight (0 decodes as 1)
//	byte      flags      bit0: edge weights present
//	uvarint   deg        adjacency length
//	svarint   ×deg       adjacency deltas: first neighbor minus u, then
//	                     each neighbor minus its predecessor (zigzag)
//	uvarint   ×deg       edge weights, only when flags bit0 is set
//
// Delta coding exploits the locality of real graph streams: neighbors
// of u cluster around u, so most deltas fit one byte. The deltas
// preserve the client's adjacency order — the engine's assignment is
// order-sensitive, and replay must see the exact stream.
//
// Encoding is canonical (minimal varints, deltas as specified), so two
// identical streams encode to identical bytes no matter which path
// produced them — the WAL byte-identity guarantee between NDJSON and
// binary ingest rides on this.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
)

// MediaType is the HTTP content type of a v2 frame stream.
const MediaType = "application/x-oms-frame"

// StreamProtocol is the HTTP/1.1 upgrade token of an open ingest
// stream. Every /nodes reply carries it in an Upgrade header (with an
// "upgrade" Connection option, RFC 9110 §7.8) to say omsd answers open
// streams. A client that saw it sends POST /v1/sessions/{id}/nodes with
// no body, frames both ways (Content-Type and Accept MediaType),
// "Connection: Upgrade" and "Upgrade: oms-stream"; omsd answers
// "101 Switching Protocols" and the connection carries frames both ways
// from then on. Each push writes its node frames; omsd answers each
// chunk with a TypeAssign frame as soon as it holds no further byte
// after a whole frame, and ends a refused push with a TypeRefusal frame
// and the connection. A push stays a plain request when the reply to
// the upgrade is anything but a 101, over HTTP/2 (which has no Upgrade)
// and on every request without the two headers, whatever its length.
const StreamProtocol = "oms-stream"

// HasToken reports whether the comma-separated header value v lists
// token, case-insensitively, as a stream's Upgrade and Connection
// headers list theirs.
func HasToken(v, token string) bool {
	for v != "" {
		var f string
		f, v, _ = strings.Cut(v, ",")
		if strings.EqualFold(strings.TrimSpace(f), token) {
			return true
		}
	}
	return false
}

// Record types. 1 and 3 are retired and never reused: they were the
// fixed-width node and batch records of a log format that was never
// deployed, and a frame carrying either is not a record — a log scan
// ends at it like at any torn tail.
const (
	// TypeSeal is the WAL's terminal record: the session finished and
	// nothing follows. The type byte is the whole payload.
	TypeSeal = 2
	// TypeStats is the WAL stats-revision record that adaptive logs
	// carried before replaying the logged nodes became the only way an
	// estimator is rebuilt. Nothing writes it any more; it stays reserved
	// so the recovery walk can read past it in older logs.
	TypeStats = 4
	// TypeNode is one node record: the ingest request unit, and the
	// per-node WAL record of logs written before ingest logged group
	// frames.
	TypeNode = 5
	// TypeBatch is one group-committed WAL record of an ingest job: the
	// assigned blocks followed by the job's raw node payloads, verbatim.
	TypeBatch = 6
	// TypeAssign is one assignment-reply chunk: (u, block) pairs for
	// the nodes of an acknowledged ingest chunk.
	TypeAssign = 7
	// TypeError is a terminal error reply inside a binary response
	// stream: the remaining payload is the message, UTF-8.
	TypeError = 8
	// TypeResult is a whole-partition result body (the binary
	// counterpart of the JSON result document).
	TypeResult = 9
	// TypeStreamHeader heads a wire stream file: the declared stream
	// stats (n, m, total node/edge weight) of the node frames after it.
	TypeStreamHeader = 10
	// TypeRefusal is a terminal error reply on an open ingest stream
	// (StreamProtocol): the status and error code a request of its
	// own would have been answered with, then the message.
	TypeRefusal = 11
)

// MaxFramePayload bounds one frame's payload; a larger declared length
// is corruption, not data. Shared with the WAL's recovery scan.
const MaxFramePayload = 1 << 28

// FrameHeaderSize is the fixed per-frame overhead: payload length and
// CRC32, both little-endian uint32.
const FrameHeaderSize = 8

// ErrMalformed reports bytes that are not a valid frame or record:
// truncation, a checksum mismatch, an overflowing varint, or a value
// outside its domain. The HTTP layer maps it to 400 malformed_frame.
var ErrMalformed = errors.New("wire: malformed frame")

// Node is one decoded node record. Adj and EW alias the decoder's
// arena (valid until the arena resets) unless documented otherwise.
type Node struct {
	U   int32
	W   int32
	Adj []int32
	EW  []int32
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendSvarint appends v zigzag-encoded.
func AppendSvarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendNodePayload appends the canonical node-record payload (type
// byte included) for one node: a zero w encodes as 1 and an empty ew as
// none, so every writer's frame for a node is the same bytes. Decoders
// still read a zero weight as 1, for frames written elsewhere.
func AppendNodePayload(buf []byte, u, w int32, adj, ew []int32) []byte {
	if w == 0 {
		w = 1
	}
	buf = append(buf, TypeNode)
	buf = binary.AppendUvarint(buf, uint64(uint32(u)))
	buf = binary.AppendUvarint(buf, uint64(uint32(w)))
	var flags byte
	if len(ew) > 0 {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(adj)))
	prev := int64(u)
	for _, v := range adj {
		buf = binary.AppendVarint(buf, int64(v)-prev)
		prev = int64(v)
	}
	for _, v := range ew {
		buf = binary.AppendUvarint(buf, uint64(uint32(v)))
	}
	return buf
}

// BeginFrame opens a frame at the end of buf: it appends the hole the
// header will occupy. The caller appends the payload behind it and
// closes the frame with EndFrame — one pass, no second buffer.
func BeginFrame(buf []byte) []byte {
	return append(buf, make([]byte, FrameHeaderSize)...)
}

// EndFrame closes the frame BeginFrame opened at buf[start]: everything
// behind the hole is the payload, and its length and CRC are back-
// filled in place. Every frame this codebase writes is sealed here.
func EndFrame(buf []byte, start int) {
	payload := buf[start+FrameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
}

// AppendFrame appends a complete frame (header + payload) around the
// given payload bytes.
func AppendFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(BeginFrame(buf), payload...)
	EndFrame(buf, start)
	return buf
}

// AppendNodeFrame appends one node record as a complete frame.
func AppendNodeFrame(buf []byte, u, w int32, adj, ew []int32) []byte {
	start := len(buf)
	buf = AppendNodePayload(BeginFrame(buf), u, w, adj, ew)
	EndFrame(buf, start)
	return buf
}

// uvarint32 reads a uvarint that must fit uint32, returning the value
// and the bytes consumed.
func uvarint32(p []byte) (uint32, int, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || v > math.MaxUint32 {
		return 0, 0, ErrMalformed
	}
	return uint32(v), n, nil
}

// DecodeNodeInto decodes one node-record payload (type byte included)
// into the arena, appending the adjacency and edge weights to
// arena.Ints. The returned Node's slices alias the arena. The payload
// must decode exactly — trailing bytes are malformed.
func DecodeNodeInto(arena *Arena, payload []byte) (Node, error) {
	base := len(arena.Ints)
	nd, n, err := decodeNode(arena, payload)
	if err != nil {
		return nd, err
	}
	if n != len(payload) {
		arena.Ints = arena.Ints[:base]
		return Node{}, ErrMalformed
	}
	return nd, nil
}

// decodeNode decodes one node record from the front of p, returning
// the bytes consumed. Batch payloads concatenate node records, so the
// record must be self-delimiting — this is the one decoder every node
// consumer shares: ingest, stream files, WAL replay and the replica.
//
// The adjacency and edge-weight lists are the hot part of a stream, so
// each is one tight loop: a varint whose first or second byte ends it
// (most deltas of a local graph, most edge weights) is read inline, and
// only longer ones go through binary.Uvarint. The arena grows once per
// node, the loops write into it by index, and arena.Ints is extended
// only after the whole record has decoded — a rejected record leaves
// its length as it was. The accepted language is exactly that of
// binary.Uvarint/Varint: the same values and consumed length for every
// input, non-minimal varints such as 0x80 0x00 included.
func decodeNode(arena *Arena, payload []byte) (Node, int, error) {
	var nd Node
	if len(payload) < 4 || payload[0] != TypeNode {
		return nd, 0, ErrMalformed
	}
	p := payload[1:]
	u, n, err := uvarint32(p)
	if err != nil || int32(u) < 0 {
		return nd, 0, ErrMalformed
	}
	p = p[n:]
	w, n, err := uvarint32(p)
	if err != nil || int32(w) < 0 {
		return nd, 0, ErrMalformed
	}
	p = p[n:]
	if len(p) < 1 {
		return nd, 0, ErrMalformed
	}
	flags := p[0]
	if flags&^1 != 0 {
		return nd, 0, ErrMalformed
	}
	p = p[1:]
	deg64, n := binary.Uvarint(p)
	// Each adjacency delta and each edge weight is at least one byte,
	// so lists longer than the remaining payload cannot be honest —
	// reject before sizing anything from them.
	if n <= 0 || deg64 > uint64(len(p)-n)>>(flags&1) {
		return nd, 0, ErrMalformed
	}
	p = p[n:]
	deg := int(deg64)
	ints := deg << (flags & 1)
	nd.U = int32(u)
	nd.W = int32(w)
	if nd.W == 0 {
		nd.W = 1
	}
	base := len(arena.Ints)
	arena.Ints = growInts(arena.Ints, ints)
	out := arena.Ints[base : base+ints : base+ints]
	adj := out[:deg:deg]
	prev := int64(int32(u))
	for i := range adj {
		if len(p) == 0 {
			return nd, 0, ErrMalformed
		}
		x := uint64(p[0])
		if x < 0x80 {
			p = p[1:]
		} else if len(p) > 1 && p[1] < 0x80 {
			x = x&0x7f | uint64(p[1])<<7
			p = p[2:]
		} else {
			x, n = binary.Uvarint(p)
			if n <= 0 {
				return nd, 0, ErrMalformed
			}
			p = p[n:]
		}
		prev += int64(x>>1) ^ -int64(x&1) // zigzag, as binary.Varint
		if uint64(prev) > math.MaxInt32 {
			return nd, 0, ErrMalformed
		}
		adj[i] = int32(prev)
	}
	nd.Adj = adj
	if flags&1 != 0 {
		ew := out[deg:]
		for i := range ew {
			if len(p) == 0 {
				return nd, 0, ErrMalformed
			}
			x := uint64(p[0])
			if x < 0x80 {
				p = p[1:]
			} else if len(p) > 1 && p[1] < 0x80 {
				x = x&0x7f | uint64(p[1])<<7
				p = p[2:]
			} else {
				x, n = binary.Uvarint(p)
				if n <= 0 {
					return nd, 0, ErrMalformed
				}
				p = p[n:]
			}
			if x > math.MaxInt32 {
				return nd, 0, ErrMalformed
			}
			ew[i] = int32(x)
		}
		nd.EW = ew
	}
	arena.Ints = arena.Ints[:base+ints]
	return nd, len(payload) - len(p), nil
}

// AppendBatchHeader appends the head of a group-commit batch record:
// type byte, node count, then each node's recorded block (zigzag — a
// duplicate push records -1). The caller appends the batch's raw node
// payloads, type bytes included, verbatim after the header; each node
// record is self-delimiting so no per-node length prefix is needed.
func AppendBatchHeader(buf []byte, blocks []int32) []byte {
	buf = append(buf, TypeBatch)
	buf = binary.AppendUvarint(buf, uint64(len(blocks)))
	for _, b := range blocks {
		buf = binary.AppendVarint(buf, int64(b))
	}
	return buf
}

// ForEachBatchNode decodes one batch payload, invoking fn for every
// node with its recorded block, in stream order. Node slices alias the
// arena and stay valid until it resets.
func ForEachBatchNode(arena *Arena, payload []byte, fn func(nd Node, block int32) error) error {
	if len(payload) < 2 || payload[0] != TypeBatch {
		return ErrMalformed
	}
	p := payload[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return ErrMalformed
	}
	p = p[n:]
	blocksBase := len(arena.Ints)
	arena.Ints = growInts(arena.Ints, int(count))
	for i := uint64(0); i < count; i++ {
		b, n := binary.Varint(p)
		if n <= 0 || b < math.MinInt32 || b > math.MaxInt32 {
			arena.Ints = arena.Ints[:blocksBase]
			return ErrMalformed
		}
		p = p[n:]
		arena.Ints = append(arena.Ints, int32(b))
	}
	blocks := arena.Ints[blocksBase : blocksBase+int(count) : blocksBase+int(count)]
	for i := uint64(0); i < count; i++ {
		nd, n, err := decodeNode(arena, p)
		if err != nil {
			return err
		}
		p = p[n:]
		if err := fn(nd, blocks[i]); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return ErrMalformed
	}
	return nil
}

// growInts ensures capacity for n more entries without disturbing the
// current length.
func growInts(s []int32, n int) []int32 {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]int32, len(s), max(2*cap(s), len(s)+n, 1024))
	copy(grown, s)
	return grown
}

// Arena is the decoder's reusable scratch: decoded adjacency slices
// point into Ints, raw frame bytes into Raw. Reset after the consumer
// is done with every slice handed out since the last reset.
type Arena struct {
	Ints []int32
	Raw  []byte
}

// Reset empties the arena, keeping capacity. Every slice previously
// handed out becomes invalid.
func (a *Arena) Reset() {
	a.Ints = a.Ints[:0]
	a.Raw = a.Raw[:0]
}

// VerifyFrame checks one complete frame (header + payload) and returns
// its payload. The frame must be exactly framed — no trailing bytes.
func VerifyFrame(frame []byte) ([]byte, error) {
	if len(frame) < FrameHeaderSize {
		return nil, ErrMalformed
	}
	n := binary.LittleEndian.Uint32(frame[0:])
	sum := binary.LittleEndian.Uint32(frame[4:])
	if n == 0 || n > MaxFramePayload || int(n) != len(frame)-FrameHeaderSize {
		return nil, ErrMalformed
	}
	payload := frame[FrameHeaderSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrMalformed)
	}
	return payload, nil
}

// AppendAssignPayload appends one assignment-reply payload: count
// followed by (u, block) pairs.
func AppendAssignPayload(buf []byte, us, blocks []int32) []byte {
	buf = append(buf, TypeAssign)
	buf = binary.AppendUvarint(buf, uint64(len(blocks)))
	for i, b := range blocks {
		buf = binary.AppendUvarint(buf, uint64(uint32(us[i])))
		buf = binary.AppendUvarint(buf, uint64(uint32(b)))
	}
	return buf
}

// DecodeAssignPayload decodes an assignment-reply payload, appending
// the pairs to us/blocks and returning the grown slices.
func DecodeAssignPayload(payload []byte, us, blocks []int32) ([]int32, []int32, error) {
	if len(payload) < 2 || payload[0] != TypeAssign {
		return us, blocks, ErrMalformed
	}
	p := payload[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return us, blocks, ErrMalformed
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		u, n, err := uvarint32(p)
		if err != nil {
			return us, blocks, ErrMalformed
		}
		p = p[n:]
		b, n, err := uvarint32(p)
		if err != nil {
			return us, blocks, ErrMalformed
		}
		p = p[n:]
		us = append(us, int32(u))
		blocks = append(blocks, int32(b))
	}
	if len(p) != 0 {
		return us, blocks, ErrMalformed
	}
	return us, blocks, nil
}

// AppendErrorPayload appends a terminal in-stream error record.
func AppendErrorPayload(buf []byte, msg string) []byte {
	buf = append(buf, TypeError)
	return append(buf, msg...)
}

// DecodeErrorPayload returns the message of an error record.
func DecodeErrorPayload(payload []byte) (string, error) {
	if len(payload) < 1 || payload[0] != TypeError {
		return "", ErrMalformed
	}
	return string(payload[1:]), nil
}

// AppendRefusalPayload appends an open stream's terminal refusal
// record: uvarint status, uvarint code length, code, then the message.
func AppendRefusalPayload(buf []byte, status int, code, msg string) []byte {
	buf = append(buf, TypeRefusal)
	buf = binary.AppendUvarint(buf, uint64(status))
	buf = binary.AppendUvarint(buf, uint64(len(code)))
	buf = append(buf, code...)
	return append(buf, msg...)
}

// DecodeRefusalPayload decodes a refusal record.
func DecodeRefusalPayload(payload []byte) (status int, code, msg string, err error) {
	if len(payload) < 1 || payload[0] != TypeRefusal {
		return 0, "", "", ErrMalformed
	}
	p := payload[1:]
	st, n := binary.Uvarint(p)
	if n <= 0 || st > 999 {
		return 0, "", "", ErrMalformed
	}
	p = p[n:]
	cl, n := binary.Uvarint(p)
	if n <= 0 || cl > uint64(len(p)-n) {
		return 0, "", "", ErrMalformed
	}
	p = p[n:]
	return int(st), string(p[:cl]), string(p[cl:]), nil
}

// Result is the decoded binary result body.
type Result struct {
	Version int32
	Pass    int32
	EdgeCut *int64
	K       int32
	Lmax    int64
	Parts   []int32
}

// AppendResultPayload appends a whole-partition result record. Parts
// entries are zigzag-coded (unassigned nodes are -1).
func AppendResultPayload(buf []byte, r Result) []byte {
	buf = append(buf, TypeResult)
	buf = binary.AppendUvarint(buf, uint64(uint32(r.Version)))
	buf = binary.AppendUvarint(buf, uint64(uint32(r.Pass)))
	var flags byte
	if r.EdgeCut != nil {
		flags |= 1
	}
	buf = append(buf, flags)
	if r.EdgeCut != nil {
		buf = binary.AppendVarint(buf, *r.EdgeCut)
	}
	buf = binary.AppendUvarint(buf, uint64(uint32(r.K)))
	buf = binary.AppendUvarint(buf, uint64(r.Lmax))
	buf = binary.AppendUvarint(buf, uint64(len(r.Parts)))
	for _, p := range r.Parts {
		buf = binary.AppendVarint(buf, int64(p))
	}
	return buf
}

// DecodeResultPayload decodes a result record. Parts is freshly
// allocated (result bodies are not on the zero-alloc path).
func DecodeResultPayload(payload []byte) (Result, error) {
	var r Result
	if len(payload) < 4 || payload[0] != TypeResult {
		return r, ErrMalformed
	}
	p := payload[1:]
	ver, n, err := uvarint32(p)
	if err != nil {
		return r, ErrMalformed
	}
	p = p[n:]
	pass, n, err := uvarint32(p)
	if err != nil {
		return r, ErrMalformed
	}
	p = p[n:]
	if len(p) < 1 {
		return r, ErrMalformed
	}
	flags := p[0]
	if flags&^1 != 0 {
		return r, ErrMalformed
	}
	p = p[1:]
	r.Version, r.Pass = int32(ver), int32(pass)
	if flags&1 != 0 {
		cut, n := binary.Varint(p)
		if n <= 0 {
			return r, ErrMalformed
		}
		p = p[n:]
		r.EdgeCut = &cut
	}
	k, n, err := uvarint32(p)
	if err != nil {
		return r, ErrMalformed
	}
	p = p[n:]
	lmax, n := binary.Uvarint(p)
	if n <= 0 || lmax > math.MaxInt64 {
		return r, ErrMalformed
	}
	p = p[n:]
	r.K, r.Lmax = int32(k), int64(lmax)
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return r, ErrMalformed
	}
	p = p[n:]
	r.Parts = make([]int32, count)
	for i := range r.Parts {
		v, n := binary.Varint(p)
		if n <= 0 || v < math.MinInt32 || v > math.MaxInt32 {
			return r, ErrMalformed
		}
		p = p[n:]
		r.Parts[i] = int32(v)
	}
	if len(p) != 0 {
		return r, ErrMalformed
	}
	return r, nil
}

// StreamHeader declares the stream stats of a wire stream file.
type StreamHeader struct {
	N               int32
	M               int64
	TotalNodeWeight int64
	TotalEdgeWeight int64
}

// AppendStreamHeaderPayload appends a stream-header record.
func AppendStreamHeaderPayload(buf []byte, h StreamHeader) []byte {
	buf = append(buf, TypeStreamHeader)
	buf = binary.AppendUvarint(buf, uint64(uint32(h.N)))
	buf = binary.AppendUvarint(buf, uint64(h.M))
	buf = binary.AppendUvarint(buf, uint64(h.TotalNodeWeight))
	buf = binary.AppendUvarint(buf, uint64(h.TotalEdgeWeight))
	return buf
}

// DecodeStreamHeaderPayload decodes a stream-header record.
func DecodeStreamHeaderPayload(payload []byte) (StreamHeader, error) {
	var h StreamHeader
	if len(payload) < 5 || payload[0] != TypeStreamHeader {
		return h, ErrMalformed
	}
	p := payload[1:]
	n32, n, err := uvarint32(p)
	if err != nil || int32(n32) < 0 {
		return h, ErrMalformed
	}
	p = p[n:]
	h.N = int32(n32)
	for _, dst := range []*int64{&h.M, &h.TotalNodeWeight, &h.TotalEdgeWeight} {
		v, n := binary.Uvarint(p)
		if n <= 0 || v > math.MaxInt64 {
			return h, ErrMalformed
		}
		p = p[n:]
		*dst = int64(v)
	}
	if len(p) != 0 {
		return h, ErrMalformed
	}
	return h, nil
}
