package graphio

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSizeCap bounds the *declared* sizes a fuzz input may claim: the
// readers allocate proportionally to a legitimate header (that is the
// caller's contract for real multi-gigabyte graphs), so the harness
// rejects headers far beyond what the fuzz engine could ever back with
// a real body. Parser logic past the header is exercised in full.
const (
	fuzzMaxN = 1 << 16
	fuzzMaxM = 1 << 18
)

// FuzzReadMetis feeds arbitrary bytes to the METIS reader: it must
// never panic, and any graph it accepts must be structurally sound
// (symmetric CSR within the declared node count).
func FuzzReadMetis(f *testing.F) {
	f.Add([]byte("4 3\n2\n1 3\n2 4\n3\n"))
	f.Add([]byte("3 2 011\n1 2 7\n2 1 7 3 1\n1 3 1\n"))
	f.Add([]byte("2 1 001\n2 5\n1 5\n"))
	f.Add([]byte("% comment\n 3 1 \n2\n1\n\n"))
	f.Add([]byte("4 3 010\n9 2\n1 1 3\n1 2\n1\n"))
	f.Add([]byte("999999999 999999999\n1\n"))
	f.Add([]byte("2 1 1\n2 2147483647 2 2147483647\n1 2147483647 1 2147483647\n"))
	f.Add([]byte(""))
	f.Add([]byte("x y\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := NewMetisScanner(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := sc.Header()
		if h.N > fuzzMaxN || h.M > fuzzMaxM {
			return
		}
		// The streaming scanner must walk the same bytes without
		// panicking, whatever Next and Err decide.
		for sc.Next() {
			adj, w := sc.Adjacency()
			if w != nil && len(w) != len(adj) {
				t.Fatalf("node %d: %d weights for %d neighbors", sc.Node(), len(w), len(adj))
			}
		}
		_ = sc.Err()

		g, err := ReadMetis(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.NumNodes() != h.N {
			t.Fatalf("accepted graph has %d nodes, header declares %d", g.NumNodes(), h.N)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
	})
}

// FuzzReadEdgeList feeds arbitrary bytes to the SNAP edge-list reader:
// never panic, and accepted graphs must be sound with ids compacted
// densely.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n2 0\n"))
	f.Add([]byte("# comment\n10 20 3\n20 30 2\n10 10\n"))
	f.Add([]byte("% also comment\n5 6\n6 5\n5 6\n"))
	f.Add([]byte("18446744073709551615 1\n"))
	f.Add([]byte("1 2 0\n"))
	f.Add([]byte("0 1 1073741824\n1 0 1073741824\n"))
	f.Add([]byte("-3 4\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the line count like the size cap above: each accepted
		// line allocates a constant amount, so the input's own size is
		// the natural budget.
		if bytes.Count(data, []byte("\n")) > 1<<16 || len(data) > 1<<20 {
			return
		}
		g, ids, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			if g != nil || ids != nil {
				t.Fatal("error return with non-nil graph")
			}
			return
		}
		if int32(len(ids)) != g.NumNodes() {
			t.Fatalf("id map has %d entries for %d nodes", len(ids), g.NumNodes())
		}
		seen := make(map[int32]bool, len(ids))
		for raw, id := range ids {
			if raw < 0 || id < 0 || id >= g.NumNodes() || seen[id] {
				t.Fatalf("bad or duplicate compact id %d for raw %d", id, raw)
			}
			seen[id] = true
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
	})
}

// FuzzParseHeader pins the header grammar on its own: arbitrary single
// lines must parse or fail without panicking, and accepted headers obey
// the documented field ranges.
func FuzzParseHeader(f *testing.F) {
	f.Add("4 3")
	f.Add("4 3 011 1")
	f.Add("0 0")
	f.Add("  12   9   1  ")
	f.Add("9999999999999999999999 1")
	f.Add("4 3 2")
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsRune(line, '\n') {
			line = line[:strings.IndexByte(line, '\n')]
		}
		h, err := ParseHeader(line)
		if err != nil {
			return
		}
		if h.N < 0 || h.M < 0 || h.NCon != 1 {
			t.Fatalf("accepted header with bad fields: %+v", h)
		}
	})
}
