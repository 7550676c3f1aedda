package stream

import (
	"os"
	"sync"

	"oms/internal/graphio"
	"oms/internal/util"
)

// Disk streams a METIS file without ever materializing the graph: memory
// usage is O(max degree) for the sequential pass and O(batch) for the
// parallel pass. This is the configuration of the paper's memory
// experiment (§4.1), where streaming algorithms use tens of MB on graphs
// whose in-memory representation takes gigabytes.
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

// ForEach implements Source with a single sequential scan.
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
	for sc.Next() {
		adj, w := sc.Adjacency()
		fn(sc.Node(), sc.NodeWeight(), adj, w)
	}
	return sc.Err()
}

// batch is a copied chunk of consecutive nodes handed to a worker: flat
// adjacency storage plus per-node offsets, so one allocation serves many
// nodes.
type batch struct {
	firstNode int32
	offs      []int32 // len nodes+1
	vwgt      []int32
	adj       []int32
	ewgt      []int32 // nil when the file has no edge weights
}

// ForEachParallel implements Source. Disk parsing is inherently
// sequential, so a producer goroutine scans the file and hands out copied
// batches of consecutive nodes to worker goroutines (the paper's
// assumption that "nodes ... [are] concurrently loaded by distinct
// threads" holds for memory streams; for disk this pipeline is the
// standard equivalent).
func (d *Disk) ForEachParallel(threads int, fn ParallelVisitor) error {
	threads = util.Threads(threads)
	if threads <= 1 {
		return d.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
			fn(0, u, vwgt, adj, ewgt)
		})
	}
	f, err := os.Open(d.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := graphio.NewMetisScanner(f)
	if err != nil {
		return err
	}
	const batchNodes = 1024
	ch := make(chan *batch, 2*threads)
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		go func(worker int) {
			defer wg.Done()
			for b := range ch {
				for i := 0; i+1 < len(b.offs); i++ {
					lo, hi := b.offs[i], b.offs[i+1]
					var ew []int32
					if b.ewgt != nil {
						ew = b.ewgt[lo:hi]
					}
					fn(worker, b.firstNode+int32(i), b.vwgt[i], b.adj[lo:hi], ew)
				}
			}
		}(w)
	}
	hasEW := sc.Header().HasEdgeWeights
	cur := &batch{firstNode: 0, offs: []int32{0}}
	flush := func(next int32) {
		if len(cur.offs) > 1 {
			ch <- cur
		}
		cur = &batch{firstNode: next, offs: make([]int32, 1, batchNodes+1)}
	}
	for sc.Next() {
		adj, w := sc.Adjacency()
		cur.adj = append(cur.adj, adj...)
		if hasEW {
			cur.ewgt = append(cur.ewgt, w...)
		}
		cur.vwgt = append(cur.vwgt, sc.NodeWeight())
		cur.offs = append(cur.offs, int32(len(cur.adj)))
		if len(cur.offs) > batchNodes {
			flush(sc.Node() + 1)
		}
	}
	flush(0)
	close(ch)
	wg.Wait()
	return sc.Err()
}
