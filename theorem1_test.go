package oms_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"oms"
	"oms/internal/stream"
)

// heapProbe wraps a file source and, inside the visitor of the pass's
// last node, collects garbage and reads the live heap, while the engine
// and the decode-ahead ring are still alive.
type heapProbe struct {
	oms.Source
	n, seen int32
	live    int64
}

func (p *heapProbe) ForEach(fn stream.Visitor) error {
	return p.Source.ForEach(func(u, vwgt int32, adj, ewgt []int32) {
		fn(u, vwgt, adj, ewgt)
		if p.seen++; p.seen == p.n {
			p.live = liveHeap()
		}
	})
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestTheorem1HeapBound measures Theorem 1, O(n + k) memory for the
// streaming pass, on a random geometric graph of n = 2^18 nodes
// partitioned into k = 4096 blocks from a METIS file and from a wire
// file. The graph itself is never in memory during either pass.
//
// The bound on the heap gained at the pass's last node over a collected
// baseline is the sum of what the pass may hold, counted from the code:
//
//	parts         4n                                 1 048 576
//	tree          (2k-1)(8*4 + 1) + 4k                 286 687
//	block records 48 (2k-1)                            393 168
//	ring          4 (1024*56 + 16Ki*4)                 491 520
//	duplicate map n/8                                   32 768
//	slack         1 MiB                              1 048 576
//	total                                            3 301 295
//
// The tree has at most 2k-1 nodes (Lemma 1). It holds 7 int32 slices
// reserved at 2k entries, which 8 slices of 2k-1 cover, one int8 slice
// per node and LeafNode, one int32 per leaf. Every tree node has one
// 48-byte block record. The decode-ahead ring is 4 batches of up to
// 1024 56-byte wire.Node headers and a 16 Ki-int32 arena; no RGG node
// outgrows a batch. The wire source checks ids against an n-bit map.
// The slack covers the file reader's buffer (1 MiB for METIS, 64 KiB
// for wire), the walk's scratch and the engine's fixed fields.
//
// After the call returns, only the Result holds memory: 4n bytes of
// parts, plus the same 1 MiB of slack.
func TestTheorem1HeapBound(t *testing.T) {
	const (
		n = 1 << 18
		k = 4096
	)
	dir := t.TempDir()
	metis, wire := filepath.Join(dir, "rgg.metis"), filepath.Join(dir, "rgg.wire")
	func() {
		g := oms.GenRGG2D(n, 5)
		if err := oms.WriteMetisFile(metis, g); err != nil {
			t.Fatal(err)
		}
		if err := oms.WriteWireFile(wire, g); err != nil {
			t.Fatal(err)
		}
	}()
	const (
		parts  = 4 * n
		tree   = (2*k-1)*(8*4+1) + 4*k
		blocks = 48 * (2*k - 1)
		ring   = 4 * (1024*56 + 16<<10*4)
		dupMap = n / 8
		slack  = 1 << 20
		during = parts + tree + blocks + ring + dupMap + slack
		after  = parts + slack
	)
	for _, src := range []oms.Source{oms.NewDiskSource(metis), oms.NewWireSource(wire)} {
		p := &heapProbe{Source: src, n: n}
		base := liveHeap()
		res, err := oms.Partition(p, k, oms.Options{})
		if err != nil {
			t.Fatal(err)
		}
		held := liveHeap()
		if p.seen != n {
			t.Fatalf("%T: visited %d of %d nodes", src, p.seen, n)
		}
		t.Logf("%T: %d bytes during the pass (bound %d), %d after it (bound %d)",
			src, p.live-base, during, held-base, after)
		if p.live-base > during {
			t.Errorf("%T: the pass held %d bytes at its last node, over the Theorem 1 bound of %d", src, p.live-base, during)
		}
		if held-base > after {
			t.Errorf("%T: %d bytes held with the Result alive, over 4n + 1 MiB = %d", src, held-base, after)
		}
		runtime.KeepAlive(res)
	}
}
