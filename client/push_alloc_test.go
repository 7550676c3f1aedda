//go:build !race

// Under the race detector sync.Pool drops entries at random, so the
// pooled push state is rebuilt on most pushes: an allocation floor would
// measure the detector, not the client.

package client

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"oms/internal/wire"
)

// pathGraph is an n-node path graph stream.
func pathGraph(n int32) []Node {
	nodes := make([]Node, n)
	for u := range n {
		var adj []int32
		if u > 0 {
			adj = append(adj, u-1)
		}
		if u+1 < n {
			adj = append(adj, u+1)
		}
		nodes[u] = Node{U: u, Adj: adj}
	}
	return nodes
}

// TestReadWireAssignmentsAllocatesOnlyItsResult: once the state's
// reader and scratch are warm, decoding a 64-assignment reply allocates
// exactly the returned slice.
func TestReadWireAssignmentsAllocatesOnlyItsResult(t *testing.T) {
	us, bs := make([]int32, 64), make([]int32, 64)
	for i := range us {
		us[i], bs[i] = int32(1000+i), int32(i%7)
	}
	reply := wire.AppendFrame(nil, wire.AppendAssignPayload(nil, us, bs))
	var s pushState
	br := bytes.NewReader(reply)
	var got []Assignment
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		br.Reset(reply)
		got, err = s.readWireAssignments(br, len(us))
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("readWireAssignments: %.1f allocs per call, want exactly 1 (the result)", allocs)
	}
	if len(got) != len(us) {
		t.Fatalf("decoded %d assignments, want %d", len(got), len(us))
	}
	for i, a := range got {
		if a.U != us[i] || a.B != bs[i] {
			t.Fatalf("assignment %d = %+v, want {%d %d}", i, a, us[i], bs[i])
		}
	}
}

// steadyPushBytes is the heap a steady push round trip of chunk nodes
// allocates, client and in-process server together, averaged over at
// least 64 pushes (256 of 64 nodes) after 16 warm-up pushes.
func steadyPushBytes(t *testing.T, chunk int, opts ...Option) float64 {
	t.Helper()
	url := testServer(t)
	ctx := context.Background()
	c := New(url, opts...)
	warm, pushes := 16, max(64, 16384/chunk)
	n := int32(chunk * (warm + pushes))
	created, err := c.Create(ctx, Spec{N: n, M: int64(n - 1), K: 16})
	if err != nil {
		t.Fatal(err)
	}
	nodes := pathGraph(n)
	push := func(i int) {
		as, err := c.Push(ctx, created.ID, nodes[i*chunk:(i+1)*chunk])
		if err != nil {
			t.Fatal(err)
		}
		if len(as) != chunk {
			t.Fatalf("push %d: %d assignments, want %d", i, len(as), chunk)
		}
	}
	for i := range warm {
		push(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+pushes; i++ {
		push(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(pushes)
}

// TestBinaryPushHeapFloor: a steady 64-node binary push round trip —
// client and in-process server together — allocates at most 32 KiB. A
// reply reader built per push would alone cost 128 KiB: its 64 KiB
// read-ahead buffer and 64 KiB arena.
func TestBinaryPushHeapFloor(t *testing.T) {
	perPush := steadyPushBytes(t, 64, WithBinary(true))
	t.Logf("%.0f B allocated per 64-node binary push", perPush)
	if perPush > 32<<10 {
		t.Fatalf("%.0f B allocated per push, want <= %d", perPush, 32<<10)
	}
}

// TestNDJSONPushHeapFloor: the same round trip in NDJSON allocates at
// most 16 KiB — about 11 KiB against the binary push's 10 KiB. Both
// sides write and parse canonical lines by hand; with encoding/json
// writing the request lines, decoding them on the server and decoding
// the reply lines, a push allocated about 50 KiB.
func TestNDJSONPushHeapFloor(t *testing.T) {
	perPush := steadyPushBytes(t, 64)
	t.Logf("%.0f B allocated per 64-node NDJSON push", perPush)
	if perPush > 16<<10 {
		t.Fatalf("%.0f B allocated per push, want <= %d", perPush, 16<<10)
	}
}

// TestLargePushHeapFloor: large push round trips on a path graph, in
// each format. A 1024-node push (about 28 KiB NDJSON, 16 KiB binary)
// still goes out from memory, and stays within what it allocated before
// large bodies streamed: 85–89 KB NDJSON and 52–56 KB binary over 20
// runs (the high readings are windows in which pooled state was
// rebuilt). A 4096-node push (about 115 KiB NDJSON, 65 KiB binary)
// streams from the pooled scratch and allocates about 57 KB in either
// format, against 235–238 KB and 163–170 KB while it went out as one
// exact-size copy; a tail buffer allocated per push would exceed its
// floor.
func TestLargePushHeapFloor(t *testing.T) {
	for _, tc := range []struct {
		chunk  int
		binary bool
		floor  float64
	}{
		{1024, false, 92 << 10},
		{1024, true, 58 << 10},
		{4096, false, 80 << 10},
		{4096, true, 80 << 10},
	} {
		perPush := steadyPushBytes(t, tc.chunk, WithBinary(tc.binary))
		t.Logf("%.0f B allocated per %d-node push, binary=%v", perPush, tc.chunk, tc.binary)
		if perPush > tc.floor {
			t.Errorf("%d-node push, binary=%v: %.0f B allocated per push, want <= %.0f",
				tc.chunk, tc.binary, perPush, tc.floor)
		}
	}
}
