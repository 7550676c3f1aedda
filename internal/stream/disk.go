package stream

import (
	"os"
	"sync"

	"oms/internal/graphio"
)

// Disk streams a METIS file without ever materializing the graph: memory
// usage is the decode-ahead ring's few batches of at most 1024 nodes
// (plus any node larger than a batch). This is the configuration of the
// paper's memory experiment (§4.1), where streaming algorithms use tens
// of MB on graphs whose in-memory representation takes gigabytes.
//
// A pass is parse-bound. On a 2-core x86-64 host, for a random
// geometric graph with 2^19 nodes (5 runs each), a pass with an empty
// visitor took 0.31–0.45 s against 0.22–0.31 s for Partition at
// k = 4096 from memory, and Partition from the file took 0.40–0.50 s
// with one thread and 0.41–0.55 s with two. So the parse runs ahead on
// its own core and the pass assigns in file order on one worker,
// whatever Parallel's threads asks for: a second consumer would only
// wait on the same parser, and its racy reads would make the result
// vary from run to run. For a parallel pass, load the graph and stream
// it from memory.
type Disk struct {
	Path string

	statsOnce sync.Once
	stats     Stats
	statsErr  error
}

// NewDisk creates a source for a METIS file.
func NewDisk(path string) *Disk { return &Disk{Path: path} }

// Stats implements Source. For unit-node-weight files the header
// suffices; files with node weights need one extra pre-pass to sum them.
func (d *Disk) Stats() (Stats, error) {
	d.statsOnce.Do(func() {
		f, err := os.Open(d.Path)
		if err != nil {
			d.statsErr = err
			return
		}
		defer f.Close()
		sc, err := graphio.NewMetisScanner(f)
		if err != nil {
			d.statsErr = err
			return
		}
		h := sc.Header()
		s := Stats{N: h.N, M: h.M, TotalNodeWeight: int64(h.N), TotalEdgeWeight: h.M}
		if h.HasNodeWeights || h.HasEdgeWeights {
			var vw, ew int64
			for sc.Next() {
				vw += int64(sc.NodeWeight())
				_, w := sc.Adjacency()
				for _, x := range w {
					ew += int64(x)
				}
			}
			if sc.Err() != nil {
				d.statsErr = sc.Err()
				return
			}
			if h.HasNodeWeights {
				s.TotalNodeWeight = vw
			}
			if h.HasEdgeWeights {
				s.TotalEdgeWeight = ew / 2
			}
		}
		d.stats = s
	})
	return d.stats, d.statsErr
}

// ForEach implements Source: one pass over the adjacency lines, in file
// order, decoded ahead of fn through DecodeAhead. On a malformed line or
// a file that ends before n nodes, fn has seen exactly the nodes before
// it and ForEach returns the scanner's error.
func (d *Disk) ForEach(fn Visitor) error {
	f, err := os.Open(d.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := graphio.NewMetisScanner(f)
	if err != nil {
		return err
	}
	return DecodeAhead(fn, func(r *Ring) error {
		for sc.Next() {
			adj, ewgt := sc.Adjacency()
			b := r.Next(len(adj) + len(ewgt))
			if b == nil {
				return nil
			}
			b.add(sc.Node(), sc.NodeWeight(), adj, ewgt)
		}
		return sc.Err()
	})
}
