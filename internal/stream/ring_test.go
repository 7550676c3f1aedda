package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/graphio"
)

// weightedRMAT returns an edge-weighted RMAT graph and its METIS text
// split into lines: element 0 is the header, element i+1 node i's
// adjacency line.
func weightedRMAT(t *testing.T, n int32, m int64, seed uint64) (*graph.Graph, []string) {
	t.Helper()
	g := gen.RMAT(n, m, gen.SocialRMAT, seed)
	var buf bytes.Buffer
	if err := graphio.WriteMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if !strings.HasSuffix(lines[0], " 001") || len(lines) != int(n)+1 {
		t.Fatalf("header %q and %d lines, want edge weights only and %d lines", lines[0], len(lines), n+1)
	}
	return g, lines
}

// writeMetisBytes writes data under a fresh temp directory and returns
// its path.
func writeMetisBytes(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.metis")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// visitedDiskPrefix runs one pass over path and checks that the visitor
// saw nodes 0.., in order and with g's adjacency; it returns how many.
func visitedDiskPrefix(t *testing.T, g *graph.Graph, path string) (int32, error) {
	t.Helper()
	next := int32(0)
	err := NewDisk(path).ForEach(func(u, w int32, adj, ew []int32) {
		if u != next || w != g.NodeWeight(u) || !slices.Equal(adj, g.Neighbors(u)) || !slices.Equal(ew, g.EdgeWeights(u)) {
			t.Fatalf("visit %d: got node %d (w %d, %d neighbours), want node %d as written", next, u, w, len(adj), next)
		}
		next++
	})
	return next, err
}

// scanErr is the error a plain MetisScanner walk of data ends with.
func scanErr(t *testing.T, data []byte) error {
	t.Helper()
	sc, err := graphio.NewMetisScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for sc.Next() {
	}
	return sc.Err()
}

// TestDiskSourceStopsAtFirstFault: a bad neighbour, a bad edge weight
// and an end of file at node i each end the pass with the scanner's
// error after the visitor saw exactly nodes 0..i-1, in order — across
// batch boundaries too.
func TestDiskSourceStopsAtFirstFault(t *testing.T) {
	g, lines := weightedRMAT(t, 5000, 40000, 9827)
	n := g.NumNodes()
	join := func(ls []string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
	for _, i := range []int32{0, 1, 1023, 1024, 2600, n - 1} {
		with := func(line string) []byte {
			ls := slices.Clone(lines)
			ls[i+1] = line
			return join(ls)
		}
		for name, file := range map[string][]byte{
			"bad neighbour": with("0 1"),
			"bad weight":    with("1 0"),
			"end of file":   join(lines[:i+1]),
		} {
			want := scanErr(t, file)
			seen, err := visitedDiskPrefix(t, g, writeMetisBytes(t, file))
			if seen != i || want == nil || err == nil || err.Error() != want.Error() {
				t.Errorf("%s at node %d: visited %d nodes, err %v; want %d and %v", name, i, seen, err, i, want)
			}
		}
	}
	if seen, err := visitedDiskPrefix(t, g, writeMetisBytes(t, join(lines))); seen != n || err != nil {
		t.Errorf("whole file: visited %d of %d nodes, err %v", seen, n, err)
	}
}

// TestDiskSourceJoinsItsDecoder: no goroutine outlives ForEach — after
// a full pass, a pass that fails, and a visitor that panics before,
// between and at the end of the decoded batches, the goroutine count is
// back at its baseline, and the panic reaches the caller unchanged.
func TestDiskSourceJoinsItsDecoder(t *testing.T) {
	g, lines := weightedRMAT(t, 20000, 160000, 9828)
	data := []byte(strings.Join(lines, "\n") + "\n")
	src := NewDisk(writeMetisBytes(t, data))
	torn := NewDisk(writeMetisBytes(t, data[:len(data)/2]))
	base := runtime.NumGoroutine()
	// The producer's last act is to close the channel ForEach waits on,
	// so it can still be counted for an instant after ForEach returns; a
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
	if err := torn.ForEach(func(int32, int32, []int32, []int32) {}); err == nil {
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

// FuzzDiskSource: arbitrary bytes written as a METIS file never panic a
// Disk pass; ids arrive as 0, 1, 2, …, and the pass either fails or
// visits exactly the header's n nodes. The size caps are
// FuzzReadMetis's.
func FuzzDiskSource(f *testing.F) {
	const (
		fuzzMaxN = 1 << 16
		fuzzMaxM = 1 << 18
	)
	f.Add([]byte("4 3\n2\n1 3\n2 4\n3\n"))
	f.Add([]byte("3 2 011\n1 2 7\n2 1 7 3 1\n1 3 1\n"))
	f.Add([]byte("2 1 001\n2 5\n1 5\n"))
	f.Add([]byte("% comment\n 3 1 \n2\n1\n\n"))
	f.Add([]byte("4 3 010\n9 2\n1 1 3\n1 2\n1\n"))
	f.Add([]byte("999999999 999999999\n1\n"))
	f.Add([]byte(""))
	f.Add([]byte("x y\n"))
	path := filepath.Join(f.TempDir(), "g.metis")

	f.Fuzz(func(t *testing.T, data []byte) {
		n := int32(-1)
		if sc, err := graphio.NewMetisScanner(bytes.NewReader(data)); err == nil {
			h := sc.Header()
			if h.N > fuzzMaxN || h.M > fuzzMaxM {
				return
			}
			n = h.N
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		next := int32(0)
		err := NewDisk(path).ForEach(func(u, _ int32, adj, ew []int32) {
			if u != next {
				t.Fatalf("visit %d: node %d", next, u)
			}
			if ew != nil && len(ew) != len(adj) {
				t.Fatalf("node %d: %d weights for %d neighbours", u, len(ew), len(adj))
			}
			next++
		})
		if err == nil && next != n {
			t.Fatalf("pass succeeded after %d nodes, header declares %d", next, n)
		}
	})
}
