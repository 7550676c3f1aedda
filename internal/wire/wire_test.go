package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestNodeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		u, w int32
		adj  []int32
		ew   []int32
	}{
		{name: "isolated", u: 0, w: 1},
		{name: "path-mid", u: 7, w: 1, adj: []int32{6, 8}},
		{name: "backward-deltas", u: 100, w: 3, adj: []int32{250, 3, 99, 4}},
		{name: "edge-weights", u: 5, w: 2, adj: []int32{1, 9}, ew: []int32{4, 11}},
		{name: "max-id", u: math.MaxInt32, w: 1, adj: []int32{0, math.MaxInt32 - 1}},
		{name: "dup-neighbors", u: 2, w: 1, adj: []int32{3, 3, 3}},
	}
	var arena Arena
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := AppendNodePayload(nil, tc.u, tc.w, tc.adj, tc.ew)
			nd, err := DecodeNodeInto(&arena, payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if nd.U != tc.u || nd.W != tc.w {
				t.Fatalf("got u=%d w=%d, want u=%d w=%d", nd.U, nd.W, tc.u, tc.w)
			}
			if !equalInt32(nd.Adj, tc.adj) {
				t.Fatalf("adj = %v, want %v", nd.Adj, tc.adj)
			}
			if !equalInt32(nd.EW, tc.ew) {
				t.Fatalf("ew = %v, want %v", nd.EW, tc.ew)
			}
			// Canonical: re-encoding the decoded node reproduces the bytes.
			again := AppendNodePayload(nil, nd.U, nd.W, nd.Adj, nd.EW)
			if !bytes.Equal(payload, again) {
				t.Fatalf("re-encode differs:\n %x\n %x", payload, again)
			}
		})
	}
}

func TestNodeZeroWeightDecodesAsOne(t *testing.T) {
	var arena Arena
	// u = 4, w = 0, no edge weights, one neighbour at delta 1-4: written
	// by hand, since AppendNodePayload never encodes a zero weight.
	payload := AppendSvarint([]byte{TypeNode, 4, 0, 0, 1}, -3)
	nd, err := DecodeNodeInto(&arena, payload)
	if err != nil {
		t.Fatal(err)
	}
	if nd.W != 1 {
		t.Fatalf("w = %d, want 1", nd.W)
	}
}

// TestNodePayloadCanonical: the encoder writes a zero weight as 1 and an
// empty edge-weight list as none, so every writer's frame for one node
// is the same bytes.
func TestNodePayloadCanonical(t *testing.T) {
	want := AppendNodePayload(nil, 4, 1, []int32{1}, nil)
	if got := AppendNodePayload(nil, 4, 0, []int32{1}, []int32{}); !bytes.Equal(got, want) {
		t.Fatalf("payload % x, want % x", got, want)
	}
}

func TestDecodeNodeRejects(t *testing.T) {
	good := AppendNodePayload(nil, 10, 2, []int32{5, 15, 400}, nil)
	cases := map[string][]byte{
		"empty":          {},
		"wrong-type":     {TypeAssign, 0, 0, 0, 0},
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0),
		"bad-flags":      {TypeNode, 1, 1, 0x80, 0},
		"deg-overflow":   {TypeNode, 1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"neighbor-neg":   AppendSvarint([]byte{TypeNode, 0, 1, 0, 1}, -1),
		"neighbor-huge":  AppendSvarint([]byte{TypeNode, 0, 1, 0, 1}, math.MaxInt32+1),
		"u-over-int32":   append(AppendUvarint([]byte{TypeNode}, math.MaxInt32+1), 1, 0, 0),
		"varint-10-byte": {TypeNode, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"ew-truncated":   {TypeNode, 0, 1, 1, 2, 2, 2, 5},
		"ew-deg-over":    {TypeNode, 0, 1, 1, 3, 2, 2, 2, 5, 5},
		"delta-overflow": edgeVarintPayloads["delta-overflow"],
		"ew-overflow":    edgeVarintPayloads["ew-overflow"],
		"delta-to-neg-1": edgeVarintPayloads["delta-to-minus-1"],
		"delta-to-2^31":  edgeVarintPayloads["delta-to-2^31"],
		"ew-2^31":        edgeVarintPayloads["ew-2^31"],
	}
	var arena Arena
	for name, payload := range cases {
		if _, err := DecodeNodeInto(&arena, payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		if len(arena.Ints) != 0 {
			t.Errorf("%s: arena not rolled back (%d ints)", name, len(arena.Ints))
		}
	}
}

// TestDecodeNodeVarintBoundaries pins the values read at the inline
// fast paths' edges: the last one-byte varint, the first two-byte one,
// and a non-minimal zero, which the decoder accepts like binary.Uvarint.
func TestDecodeNodeVarintBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		adj, ew []int32
	}{
		{"delta-non-minimal", []int32{5}, nil},
		{"delta-1-byte-max", []int32{100 - 64}, nil},
		{"delta-2-byte-min", []int32{100 + 64}, nil},
		{"ew-1-byte-max", []int32{1}, []int32{127}},
		{"ew-2-byte-min", []int32{1}, []int32{128}},
		{"ew-non-minimal", []int32{1}, []int32{0}},
	}
	var arena Arena
	for _, tc := range cases {
		payload := edgeVarintPayloads[tc.name]
		nd, err := DecodeNodeInto(&arena, payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !equalInt32(nd.Adj, tc.adj) || !equalInt32(nd.EW, tc.ew) {
			t.Errorf("%s: adj %v ew %v, want adj %v ew %v", tc.name, nd.Adj, nd.EW, tc.adj, tc.ew)
		}
		arena.Reset()
	}
}

func TestFrameVerify(t *testing.T) {
	frame := AppendNodeFrame(nil, 3, 1, []int32{2, 4}, nil)
	payload, err := VerifyFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	want := AppendNodePayload(nil, 3, 1, []int32{2, 4}, nil)
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload mismatch")
	}
	// AppendNodeFrame and AppendFrame(AppendNodePayload(...)) agree.
	if alt := AppendFrame(nil, want); !bytes.Equal(frame, alt) {
		t.Fatalf("frame builders disagree:\n %x\n %x", frame, alt)
	}

	corrupt := append([]byte{}, frame...)
	corrupt[len(corrupt)-1] ^= 1
	if _, err := VerifyFrame(corrupt); !errors.Is(err, ErrMalformed) {
		t.Fatalf("corrupt frame: err = %v", err)
	}
	if _, err := VerifyFrame(frame[:len(frame)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short frame: err = %v", err)
	}
	if _, err := VerifyFrame(frame[:4]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("header-only: err = %v", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	type pushed struct {
		u, w  int32
		adj   []int32
		ew    []int32
		block int32
	}
	nodes := []pushed{
		{u: 0, w: 1, adj: []int32{1, 2}, block: 0},
		{u: 1, w: 2, adj: []int32{0}, ew: []int32{7}, block: 1},
		{u: 2, w: 1, adj: nil, block: -1}, // duplicate push: no recorded block
	}
	blocks := make([]int32, len(nodes))
	for i, nd := range nodes {
		blocks[i] = nd.block
	}
	payload := AppendBatchHeader(nil, blocks)
	for _, nd := range nodes {
		payload = AppendNodePayload(payload, nd.u, nd.w, nd.adj, nd.ew)
	}

	var arena Arena
	i := 0
	err := ForEachBatchNode(&arena, payload, func(nd Node, block int32) error {
		want := nodes[i]
		if nd.U != want.u || nd.W != want.w || block != want.block {
			t.Fatalf("node %d: got (u=%d w=%d b=%d), want (u=%d w=%d b=%d)",
				i, nd.U, nd.W, block, want.u, want.w, want.block)
		}
		if !equalInt32(nd.Adj, want.adj) || !equalInt32(nd.EW, want.ew) {
			t.Fatalf("node %d: adj/ew mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(nodes) {
		t.Fatalf("visited %d nodes, want %d", i, len(nodes))
	}

	// Truncated and trailing batch payloads are malformed.
	if err := ForEachBatchNode(&arena, payload[:len(payload)-1], func(Node, int32) error { return nil }); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated batch: err = %v", err)
	}
	if err := ForEachBatchNode(&arena, append(append([]byte{}, payload...), 9), func(Node, int32) error { return nil }); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing batch: err = %v", err)
	}
}

func TestAssignRoundTrip(t *testing.T) {
	us := []int32{4, 9, 1000000}
	blocks := []int32{0, 255, 3}
	payload := AppendAssignPayload(nil, us, blocks)
	gotU, gotB, err := DecodeAssignPayload(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt32(gotU, us) || !equalInt32(gotB, blocks) {
		t.Fatalf("got (%v, %v), want (%v, %v)", gotU, gotB, us, blocks)
	}
	if _, _, err := DecodeAssignPayload(payload[:len(payload)-1], nil, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated assign: err = %v", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	payload := AppendErrorPayload(nil, "node 99 out of range")
	msg, err := DecodeErrorPayload(payload)
	if err != nil || msg != "node 99 out of range" {
		t.Fatalf("got (%q, %v)", msg, err)
	}
	if _, err := DecodeErrorPayload(nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty error payload: err = %v", err)
	}
}

func TestRefusalRoundTrip(t *testing.T) {
	payload := AppendRefusalPayload(nil, 410, "session_gone", "session deleted")
	st, code, msg, err := DecodeRefusalPayload(payload)
	if err != nil || st != 410 || code != "session_gone" || msg != "session deleted" {
		t.Fatalf("got (%d, %q, %q, %v)", st, code, msg, err)
	}
	for _, bad := range [][]byte{nil, AppendErrorPayload(nil, "x"), payload[:3], {TypeRefusal, 0x80}} {
		if _, _, _, err := DecodeRefusalPayload(bad); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%x: err = %v", bad, err)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	cut := int64(42)
	cases := []Result{
		{Version: 0, Pass: 0, K: 4, Lmax: 17, Parts: []int32{0, 1, 2, 3, -1}},
		{Version: 3, Pass: 2, EdgeCut: &cut, K: 256, Lmax: 1 << 40, Parts: nil},
	}
	for i, r := range cases {
		payload := AppendResultPayload(nil, r)
		got, err := DecodeResultPayload(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Version != r.Version || got.Pass != r.Pass || got.K != r.K || got.Lmax != r.Lmax {
			t.Fatalf("case %d: scalar mismatch: %+v vs %+v", i, got, r)
		}
		if (got.EdgeCut == nil) != (r.EdgeCut == nil) || (got.EdgeCut != nil && *got.EdgeCut != *r.EdgeCut) {
			t.Fatalf("case %d: edge cut mismatch", i)
		}
		if !equalInt32(got.Parts, r.Parts) {
			t.Fatalf("case %d: parts = %v, want %v", i, got.Parts, r.Parts)
		}
	}
}

func TestStreamHeaderRoundTrip(t *testing.T) {
	h := StreamHeader{N: 1 << 20, M: 1 << 33, TotalNodeWeight: 99, TotalEdgeWeight: 7}
	got, err := DecodeStreamHeaderPayload(AppendStreamHeaderPayload(nil, h))
	if err != nil || got != h {
		t.Fatalf("got (%+v, %v), want %+v", got, err, h)
	}
}

func TestReaderStream(t *testing.T) {
	var stream []byte
	type rec struct {
		u   int32
		adj []int32
	}
	recs := []rec{{0, []int32{1}}, {1, []int32{0, 2}}, {2, []int32{1}}}
	for _, r := range recs {
		stream = AppendNodeFrame(stream, r.u, 1, r.adj, nil)
	}

	rd := NewReader(bytes.NewReader(stream))
	for i, want := range recs {
		nd, frame, err := rd.NextNode()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if nd.U != want.u || !equalInt32(nd.Adj, want.adj) {
			t.Fatalf("frame %d: got u=%d adj=%v", i, nd.U, nd.Adj)
		}
		wantFrame := AppendNodeFrame(nil, want.u, 1, want.adj, nil)
		if !bytes.Equal(frame, wantFrame) {
			t.Fatalf("frame %d: raw bytes differ", i)
		}
	}
	if _, _, err := rd.NextNode(); err != io.EOF {
		t.Fatalf("tail: err = %v, want io.EOF", err)
	}

	// Truncation mid-frame is malformed, not EOF.
	rd.Reset(bytes.NewReader(stream[:len(stream)-1]))
	var err error
	for err == nil {
		_, _, err = rd.NextNode()
	}
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("torn tail: err = %v, want ErrMalformed", err)
	}

	// One-byte reads exercise the fill loop.
	rd.Reset(iotest{bytes.NewReader(stream)})
	n := 0
	for {
		_, _, err := rd.NextNode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("dribbled reads: %d frames, want %d", n, len(recs))
	}
}

// iotest dribbles one byte per Read.
type iotest struct{ r io.Reader }

func (d iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return d.r.Read(p)
}

func equalInt32(a, b []int32) bool {
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
