package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// refDecodeNode is the node decoder as it was before its list loops got
// inline varint fast paths: binary.Varint/uvarint32 per value and one
// append per list entry. FuzzWireNode holds decodeNode to it byte for
// byte — accept or reject, values and consumed length.
func refDecodeNode(arena *Arena, payload []byte) (Node, int, error) {
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
	if n <= 0 || deg64 > uint64(len(p)-n) {
		return nd, 0, ErrMalformed
	}
	p = p[n:]
	deg := int(deg64)
	nd.U = int32(u)
	nd.W = int32(w)
	if nd.W == 0 {
		nd.W = 1
	}
	base := len(arena.Ints)
	arena.Ints = growInts(arena.Ints, deg)
	prev := int64(int32(u))
	for i := 0; i < deg; i++ {
		d, n := binary.Varint(p)
		if n <= 0 {
			arena.Ints = arena.Ints[:base]
			return nd, 0, ErrMalformed
		}
		p = p[n:]
		prev += d
		if prev < 0 || prev > math.MaxInt32 {
			arena.Ints = arena.Ints[:base]
			return nd, 0, ErrMalformed
		}
		arena.Ints = append(arena.Ints, int32(prev))
	}
	nd.Adj = arena.Ints[base : base+deg : base+deg]
	if flags&1 != 0 {
		ewBase := len(arena.Ints)
		arena.Ints = growInts(arena.Ints, deg)
		for i := 0; i < deg; i++ {
			v, n, err := uvarint32(p)
			if err != nil || int32(v) < 0 {
				arena.Ints = arena.Ints[:base]
				return nd, 0, ErrMalformed
			}
			p = p[n:]
			arena.Ints = append(arena.Ints, int32(v))
		}
		nd.EW = arena.Ints[ewBase : ewBase+deg : ewBase+deg]
		nd.Adj = arena.Ints[base : base+deg : base+deg]
	}
	return nd, len(payload) - len(p), nil
}

// edgeVarintPayloads are node payloads at the varint decoder's edges:
// the one- and two-byte boundaries, a non-minimal encoding, a varint
// that overflows uint64, and values that leave their domain by one.
// Each is a FuzzWireNode seed; decodeNode must treat it exactly as
// refDecodeNode does.
var edgeVarintPayloads = map[string][]byte{
	// u=5, w=1, one neighbour, delta 0x80 0x00: zero in two bytes.
	"delta-non-minimal": {TypeNode, 5, 1, 0, 1, 0x80, 0x00},
	// Zigzag 0x7f is −64 (last one-byte value), 0x80 0x01 is +64.
	"delta-1-byte-max": {TypeNode, 100, 1, 0, 1, 0x7f},
	"delta-2-byte-min": {TypeNode, 100, 1, 0, 1, 0x80, 0x01},
	"ew-1-byte-max":    {TypeNode, 0, 1, 1, 1, 2, 0x7f},
	"ew-2-byte-min":    {TypeNode, 0, 1, 1, 1, 2, 0x80, 0x01},
	"ew-non-minimal":   {TypeNode, 0, 1, 1, 1, 2, 0x80, 0x00},
	"delta-overflow":   {TypeNode, 0, 1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	"ew-overflow":      {TypeNode, 0, 1, 1, 1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	"delta-to-minus-1": AppendSvarint(AppendSvarint([]byte{TypeNode, 5, 1, 0, 2}, 3), -9),
	"delta-to-2^31": AppendSvarint(AppendSvarint(
		append(AppendUvarint([]byte{TypeNode}, math.MaxInt32-1), 1, 0, 2), 1), 1),
	"ew-2^31": AppendUvarint([]byte{TypeNode, 0, 1, 1, 1, 2}, math.MaxInt32+1),
}

// FuzzWireNode holds the node codec's contract on arbitrary payload
// bytes: decoding never panics and agrees exactly with refDecodeNode
// (accept or reject, node, consumed length, arena length on a reject),
// a decodable payload re-encodes to a payload that decodes to the
// identical node (decode→encode→decode fixpoint), and the canonical
// re-encoding is itself a fixpoint under a second round trip.
func FuzzWireNode(f *testing.F) {
	f.Add(AppendNodePayload(nil, 0, 1, []int32{1, 2}, nil))
	f.Add(AppendNodePayload(nil, 7, 3, []int32{9, 2, 2, 100000}, []int32{1, 2, 3, 4}))
	f.Add(AppendNodePayload(nil, 1<<31-1, 1, nil, nil))
	f.Add([]byte{TypeNode})
	f.Add([]byte{TypeNode, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	for _, payload := range edgeVarintPayloads {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		// Both decoders start behind three live ints, as the second node
		// of a chunk does, so a rollback to zero would show.
		got, want := Arena{Ints: []int32{-7, -8, -9}}, Arena{Ints: []int32{-7, -8, -9}}
		gotNd, gotN, gotErr := decodeNode(&got, payload)
		wantNd, wantN, wantErr := refDecodeNode(&want, payload)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeNode err %v, reference err %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if len(got.Ints) != 3 {
				t.Fatalf("reject left %d ints in the arena, want 3", len(got.Ints))
			}
		} else if gotN != wantN || gotNd.U != wantNd.U || gotNd.W != wantNd.W ||
			!equalIntSlices(gotNd.Adj, wantNd.Adj) || !equalIntSlices(gotNd.EW, wantNd.EW) ||
			(gotNd.EW == nil) != (wantNd.EW == nil) || !equalIntSlices(got.Ints, want.Ints) {
			t.Fatalf("decodeNode %+v (%d bytes, arena %v), reference %+v (%d bytes, arena %v)",
				gotNd, gotN, got.Ints, wantNd, wantN, want.Ints)
		}

		var arena Arena
		nd, err := DecodeNodeInto(&arena, payload)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decode error %v is not ErrMalformed", err)
			}
			return
		}
		if nd.W < 1 {
			t.Fatalf("decoded weight %d < 1", nd.W)
		}
		// Re-encode canonically and decode again: the node must survive
		// unchanged, and the canonical bytes must be a true fixpoint.
		enc := AppendNodePayload(nil, nd.U, nd.W, nd.Adj, nd.EW)
		var arena2 Arena
		nd2, err := DecodeNodeInto(&arena2, enc)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if nd2.U != nd.U || nd2.W != nd.W || !equalIntSlices(nd2.Adj, nd.Adj) || !equalIntSlices(nd2.EW, nd.EW) {
			t.Fatalf("decode→encode→decode drift: %+v vs %+v", nd, nd2)
		}
		if enc2 := AppendNodePayload(nil, nd2.U, nd2.W, nd2.Adj, nd2.EW); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixpoint: %x vs %x", enc, enc2)
		}
	})
}

// FuzzWireFrames streams arbitrary bytes through the frame Reader:
// never panic, never return frames whose checksum did not verify, and
// always classify the end as either a clean EOF at a frame boundary or
// ErrMalformed (truncation, oversized length, corruption).
func FuzzWireFrames(f *testing.F) {
	var good []byte
	good = AppendFrame(good, AppendStreamHeaderPayload(nil, StreamHeader{N: 4, M: 3}))
	good = AppendNodeFrame(good, 0, 1, []int32{1, 2}, nil)
	good = AppendNodeFrame(good, 1, 2, []int32{0}, []int32{5})
	f.Add(good)
	f.Add(good[:len(good)-2]) // torn tail
	f.Add([]byte{})
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0x20
	f.Add(corrupt)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // oversized declared length
	f.Add(bytes.Repeat([]byte{0x01}, 9))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewReader(bytes.NewReader(data))
		frames := 0
		for {
			payload, frame, err := rd.NextFrame()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("frame %d: error %v is not ErrMalformed", frames, err)
				}
				return
			}
			if len(frame) != FrameHeaderSize+len(payload) {
				t.Fatalf("frame %d: header/payload split %d/%d", frames, len(frame), len(payload))
			}
			if _, err := VerifyFrame(frame); err != nil {
				t.Fatalf("frame %d: Reader accepted a frame VerifyFrame rejects: %v", frames, err)
			}
			frames++
			if frames%8 == 0 {
				rd.Arena.Reset()
			}
		}
	})
}

func equalIntSlices(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
