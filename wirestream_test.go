package oms

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"oms/internal/wire"
)

// TestWireStreamRoundTrip: a graph written as a wire-stream file and
// partitioned through NewWireSource produces exactly the in-memory
// result — the file is a faithful transport of the stream.
func TestWireStreamRoundTrip(t *testing.T) {
	g := GenDelaunay(2000, 11)
	path := filepath.Join(t.TempDir(), "g.omsw")
	if err := WriteWireFile(path, g); err != nil {
		t.Fatal(err)
	}

	src := NewWireSource(path)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.N != g.NumNodes() || st.M != g.NumEdges() {
		t.Fatalf("stats %+v, want n=%d m=%d", st, g.NumNodes(), g.NumEdges())
	}

	want, err := PartitionGraph(g, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Partition(src, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := range want.Parts {
		if want.Parts[u] != got.Parts[u] {
			t.Fatalf("node %d: wire-stream part %d, in-memory part %d", u, got.Parts[u], want.Parts[u])
		}
	}
}

// TestIngestLoopsStayAllocationFree: the three per-node ingest loops —
// a plain Session.Push stream, omsd's binary route in miniature
// (wire.Reader.NextNode → Session.Push → Arena.Reset), and a
// WireSource pass over the same stream as a file — allocate at most
// 0.05 times per node over a whole stream, the session created
// beforehand. The slack is warm-up (decode buffers, engine scratch
// growing to the largest degree seen, the file source's reader and
// batch ring, which are allocated per pass) amortised over the stream;
// an allocation per node in any loop reads about 1.
func TestIngestLoopsStayAllocationFree(t *testing.T) {
	g := GenRMATSocial(20000, 160000, 7)
	n := g.NumNodes()
	var stream bytes.Buffer
	if err := WriteWireStream(&stream, g); err != nil {
		t.Fatal(err)
	}

	push := func(s *Session) error {
		for u := int32(0); u < n; u++ {
			if _, err := s.Push(u, g.NodeWeight(u), g.Neighbors(u), g.EdgeWeights(u)); err != nil {
				return err
			}
		}
		return nil
	}
	path := filepath.Join(t.TempDir(), "g.omsw")
	if err := os.WriteFile(path, stream.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	streamFile := func(s *Session) error {
		var perr error
		err := NewWireSource(path).ForEach(func(u, w int32, adj, ew []int32) {
			if _, err := s.Push(u, w, adj, ew); err != nil && perr == nil {
				perr = err
			}
		})
		if err != nil {
			return err
		}
		return perr
	}
	decodeAndPush := func(s *Session) error {
		rd := wire.NewReader(bytes.NewReader(stream.Bytes()))
		if _, err := readWireHeader(rd); err != nil {
			return err
		}
		for {
			nd, _, err := rd.NextNode()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if _, err := s.Push(nd.U, nd.W, nd.Adj, nd.EW); err != nil {
				return err
			}
			rd.Arena.Reset()
		}
	}

	for _, loop := range []struct {
		name   string
		ingest func(*Session) error
	}{{"push", push}, {"wire", decodeAndPush}, {"wire file", streamFile}} {
		s, err := NewSession(SessionConfig{
			Stats: StreamStats{
				N: n, M: g.NumEdges(),
				TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
			},
			K: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = loop.ingest(s)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", loop.name, err)
		}
		perNode := float64(after.Mallocs-before.Mallocs) / float64(n)
		t.Logf("%s: %.4f allocs/node", loop.name, perNode)
		if perNode > 0.05 {
			t.Errorf("%s loop: %.3f allocs/node, want <= 0.05", loop.name, perNode)
		}
	}
}

// writeWireBytes writes data as a wire-stream file under a fresh temp
// directory and returns its path.
func writeWireBytes(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.omsw")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// rawWireStream encodes a header declaring n nodes followed by one node
// frame per entry of nodes, whatever their ids.
func rawWireStream(n int32, nodes ...wire.Node) []byte {
	buf := wire.AppendFrame(nil, wire.AppendStreamHeaderPayload(nil, wire.StreamHeader{
		N: n, M: 1, TotalNodeWeight: int64(n), TotalEdgeWeight: 1,
	}))
	for _, nd := range nodes {
		buf = wire.AppendNodeFrame(buf, nd.U, nd.W, nd.Adj, nd.EW)
	}
	return buf
}

// frameStarts returns the offset of every frame of a well-formed stream:
// element 0 is the header, element i+1 node frame i.
func frameStarts(data []byte) []int {
	var starts []int
	for off := 0; off < len(data); off += wire.FrameHeaderSize + int(binary.LittleEndian.Uint32(data[off:])) {
		starts = append(starts, off)
	}
	return starts
}

// visitedPrefix runs one pass over path and checks that the visitor saw
// nodes 0.., in order and with g's adjacency; it returns how many.
func visitedPrefix(t *testing.T, g *Graph, path string) (int32, error) {
	t.Helper()
	next := int32(0)
	err := NewWireSource(path).ForEach(func(u, w int32, adj, ew []int32) {
		if u != next || w != g.NodeWeight(u) || !slices.Equal(adj, g.Neighbors(u)) || !slices.Equal(ew, g.EdgeWeights(u)) {
			t.Fatalf("visit %d: got node %d (w %d, %d neighbours), want node %d as written", next, u, w, len(adj), next)
		}
		next++
	})
	return next, err
}

// TestWireSourceMatchesMemory: an edge-weighted RMAT stream mapped onto
// 4:16:8 and partitioned at k = 64 from a wire file equals the in-memory
// sequential result bit for bit — with one P and with two, so the
// decoder either interleaves with the engine or runs beside it.
func TestWireSourceMatchesMemory(t *testing.T) {
	g := GenRMATSocial(1<<13, 1<<16, 9821)
	weighted := false
	for u := int32(0); u < g.NumNodes() && !weighted; u++ {
		weighted = len(g.EdgeWeights(u)) > 0
	}
	if !weighted {
		t.Fatal("the RMAT stream carries no edge weights")
	}
	path := filepath.Join(t.TempDir(), "g.omsw")
	if err := WriteWireFile(path, g); err != nil {
		t.Fatal(err)
	}
	top := MustTopology("4:16:8", "1:10:100")
	wantMap, err := MapGraph(g, top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantPart, err := PartitionGraph(g, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		got, err := Map(NewWireSource(path), top, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Parts, wantMap.Parts) {
			t.Errorf("GOMAXPROCS %d: Map from the file differs from memory", procs)
		}
		got, err = Partition(NewWireSource(path), 64, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Parts, wantPart.Parts) {
			t.Errorf("GOMAXPROCS %d: Partition from the file differs from memory", procs)
		}
	}
}

// TestWireSourceStopsAtFirstFault: a checksum flip inside node frame i,
// a tail torn inside it, a file that ends cleanly before it, and an
// empty file each end the pass with ErrMalformed after the visitor saw
// exactly nodes 0..i-1, in order — across batch boundaries too.
func TestWireSourceStopsAtFirstFault(t *testing.T) {
	g := GenRMATSocial(5000, 40000, 9822)
	var buf bytes.Buffer
	if err := WriteWireStream(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	starts := append(frameStarts(data), len(data))
	if len(starts) != int(g.NumNodes())+2 {
		t.Fatalf("%d frames, want %d", len(starts)-1, g.NumNodes()+1)
	}
	n := g.NumNodes()
	for _, i := range []int32{0, 1, 1023, 2600, n - 1} {
		lo, hi := starts[i+1], starts[i+2]
		flipped := slices.Clone(data)
		flipped[hi-1] ^= 0x40
		for name, file := range map[string][]byte{
			"checksum":       flipped,
			"torn header":    data[:lo+wire.FrameHeaderSize-3],
			"torn payload":   data[:hi-1],
			"frame boundary": data[:lo],
		} {
			seen, err := visitedPrefix(t, g, writeWireBytes(t, file))
			if seen != i || !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s at node %d: visited %d nodes, err %v; want %d and ErrMalformed", name, i, seen, err, i)
			}
		}
	}
	if seen, err := visitedPrefix(t, g, writeWireBytes(t, nil)); seen != 0 || !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("empty file: visited %d nodes, err %v", seen, err)
	}
	if seen, err := visitedPrefix(t, g, writeWireBytes(t, data)); seen != n || err != nil {
		t.Errorf("whole file: visited %d of %d nodes, err %v", seen, n, err)
	}
}

// TestWireSourceRejectsIDsOutsideTheStream: a wire file is input, so a
// node id or neighbour at or past the header's n, a repeated node and a
// missing one are errors naming the file and the id, not a panic in the
// engine, and the visitor sees exactly the nodes before the bad frame.
func TestWireSourceRejectsIDsOutsideTheStream(t *testing.T) {
	for _, tc := range []struct {
		name  string
		data  []byte
		seen  int
		names string
	}{
		{"neighbour", rawWireStream(2, wire.Node{U: 0, W: 1, Adj: []int32{5}}, wire.Node{U: 1, W: 1, Adj: []int32{0}}), 0, "neighbour 5"},
		{"node", rawWireStream(2, wire.Node{U: 0, W: 1, Adj: []int32{1}}, wire.Node{U: 7, W: 1, Adj: []int32{0}}), 1, "node 7"},
		{"repeated", rawWireStream(2, wire.Node{U: 0, W: 1}, wire.Node{U: 0, W: 1}), 1, "node 0"},
		{"missing", rawWireStream(3, wire.Node{U: 0, W: 1}, wire.Node{U: 2, W: 1}), 2, "2 of 3"},
	} {
		path := writeWireBytes(t, tc.data)
		_, err := Partition(NewWireSource(path), 2, Options{})
		if !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: Partition err %v, want ErrMalformed naming %s and %q", tc.name, err, path, tc.names)
		}
		seen := 0
		if err := NewWireSource(path).ForEach(func(int32, int32, []int32, []int32) { seen++ }); err == nil || seen != tc.seen {
			t.Errorf("%s: visited %d nodes, err %v; want %d and an error", tc.name, seen, err, tc.seen)
		}
	}
}

// TestWireSourceJoinsItsDecoder: no goroutine outlives ForEach — after
// a full pass, a pass that fails, and a visitor that panics before,
// between and at the end of the decoded batches, the goroutine count is
// back at its baseline, and the panic reaches the caller unchanged.
func TestWireSourceJoinsItsDecoder(t *testing.T) {
	g := GenRMATSocial(20000, 160000, 9823)
	path := filepath.Join(t.TempDir(), "g.omsw")
	if err := WriteWireFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := writeWireBytes(t, data[:len(data)/2])
	src := NewWireSource(path)
	base := runtime.NumGoroutine()
	// The decoder's last act is to close the channel ForEach waits on, so
	// it can still be counted for an instant after ForEach returns; a
	// goroutine that outlives the pass stays counted.
	settled := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
			}
		}
	}

	if err := src.ForEach(func(int32, int32, []int32, []int32) {}); err != nil {
		t.Fatal(err)
	}
	settled("full pass")
	if err := NewWireSource(torn).ForEach(func(int32, int32, []int32, []int32) {}); err == nil {
		t.Fatal("torn file streamed without error")
	}
	settled("failed pass")
	for _, at := range []int32{0, 5000, g.NumNodes() - 1} {
		func() {
			defer func() {
				if r := recover(); r != "stop" {
					t.Fatalf("panic at node %d: recovered %v", at, r)
				}
			}()
			src.ForEach(func(u int32, _ int32, _, _ []int32) {
				if u == at {
					panic("stop")
				}
			})
			t.Fatalf("ForEach returned after its visitor panicked at node %d", at)
		}()
		settled(fmt.Sprintf("panic at node %d", at))
	}
}

// benchResult keeps the measured call's result alive.
var benchResult *Result

// BenchmarkWireSourceMap is map_rmat_disk's pass in-package: oms.Map onto
// 4:16:8 over a wire file of an edge-weighted RMAT graph with 2^17 nodes
// and 2^21 drawn edges. Run it with -cpu 1,2: with one P the decoder and
// the engine take turns, with two they overlap.
func BenchmarkWireSourceMap(b *testing.B) {
	g := GenRMATSocial(1<<17, 1<<21, 9824)
	path := filepath.Join(b.TempDir(), "g.omsw")
	if err := WriteWireFile(path, g); err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	g = nil
	top := MustTopology("4:16:8", "1:10:100")
	src := NewWireSource(path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Map(src, top, Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
}

// FuzzWireSource: arbitrary bytes written as a wire-stream file and
// partitioned into 4 blocks never panic; the result is an error or
// every node in a block in [0, 4). Headers declaring more than 2^16
// nodes are skipped, since the engine sizes its assignment by n.
func FuzzWireSource(f *testing.F) {
	f.Add(rawWireStream(3,
		wire.Node{U: 0, W: 1, Adj: []int32{1, 2}},
		wire.Node{U: 1, W: 2, Adj: []int32{0}, EW: []int32{3}},
		wire.Node{U: 2, W: 1, Adj: []int32{0}}))
	f.Add(rawWireStream(2, wire.Node{U: 0, W: 1, Adj: []int32{5}}, wire.Node{U: 1, W: 1, Adj: []int32{0}}))
	f.Add(rawWireStream(2, wire.Node{U: 0, W: 1, Adj: []int32{1}}, wire.Node{U: 7, W: 1, Adj: []int32{0}}))
	valid := rawWireStream(2, wire.Node{U: 0, W: 1, Adj: []int32{1}}, wire.Node{U: 1, W: 1, Adj: []int32{0}})
	f.Add(valid[:len(valid)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeWireBytes(t, data)
		src := NewWireSource(path)
		if st, err := src.Stats(); err == nil && st.N > 1<<16 {
			return
		}
		res, err := Partition(src, 4, Options{})
		if err != nil {
			return
		}
		for u, p := range res.Parts {
			if p < 0 || p >= 4 {
				t.Fatalf("node %d in block %d", u, p)
			}
		}
	})
}
