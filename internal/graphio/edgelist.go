package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"oms/internal/graph"
)

// ReadEdgeList parses the SNAP-style edge-list format: one "u v" (or
// "u v w" with an integer weight) pair per line, '#' and '%' comment
// lines, blank lines ignored. Node ids may be arbitrary non-negative
// integers with gaps — they are compacted to 0..n-1 in first-appearance
// order, which preserves the temporal/crawl order SNAP files typically
// carry and therefore the stream locality one-pass partitioners see.
// Self loops are dropped and duplicate edges merged, per the paper's
// instance preparation ("removing parallel edges, self loops, and
// directions").
//
// The mapping from original ids to compact ids is returned alongside the
// graph.
func ReadEdgeList(r io.Reader) (*graph.Graph, map[int64]int32, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	idOf := make(map[int64]int32)
	order := make([]int64, 0, 1024)
	intern := func(raw int64) int32 {
		if id, ok := idOf[raw]; ok {
			return id
		}
		id := int32(len(order))
		idOf[raw] = id
		order = append(order, raw)
		return id
	}

	type edge struct {
		u, v int32
		w    int32
	}
	var edges []edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graphio: edge list line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := parseInt64(fields[0])
		if err != nil || u < 0 {
			return nil, nil, fmt.Errorf("graphio: edge list line %d: bad node id %q", lineNo, fields[0])
		}
		v, err := parseInt64(fields[1])
		if err != nil || v < 0 {
			return nil, nil, fmt.Errorf("graphio: edge list line %d: bad node id %q", lineNo, fields[1])
		}
		w := int32(1)
		if len(fields) >= 3 {
			wv, err := parseInt64(fields[2])
			if err != nil || wv < 1 || wv > 1<<30 {
				return nil, nil, fmt.Errorf("graphio: edge list line %d: bad weight %q", lineNo, fields[2])
			}
			w = int32(wv)
		}
		if u == v {
			// Still intern the id so isolated self-loop nodes exist.
			intern(u)
			continue
		}
		edges = append(edges, edge{intern(u), intern(v), w})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graphio: reading edge list: %w", err)
	}

	b := graph.NewBuilder(int32(len(order)))
	b.Reserve(len(edges))
	for _, e := range edges {
		b.AddWeightedEdge(e.u, e.v, e.w)
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, overflowError(err, func(id int32) int64 { return order[id] })
	}
	return g, idOf, nil
}

func parseInt64(s string) (int64, error) {
	var v int64
	if len(s) == 0 {
		return 0, fmt.Errorf("empty")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("non-digit %q", c)
		}
		d := int64(c - '0')
		if v > (1<<62)/10 {
			return 0, fmt.Errorf("overflow")
		}
		v = v*10 + d
	}
	return v, nil
}
