// Package onepass implements the non-buffered one-pass streaming
// partitioners the paper evaluates against: Hashing and the
// state-of-the-art scoring heuristics LDG (Stanton & Kliot) and Fennel
// (Tsourakakis et al.), §2.2. They are re-implemented faithfully —
// including the O(m + nk) full scan over all k blocks per node that
// drives the running-time separation in the paper's Figure 2c. Run
// drives one pass in stream order: placements are permanent, and nothing
// here retracts them. The paper's §3.4 parallelizes that pass over
// shared-memory workers; that is not reproduced (see internal/core). The
// paper cites the flat ReFennel/ReLDG restreaming of Nishimura and
// Ugander only as related work; the one restream in this repository is
// the multi-section tree's (internal/core's RestreamPasses, the paper's
// §3.2 remapping).
//
// The scoring functions are exported separately (FennelScore, LDGScore)
// because the online recursive multi-section in internal/core scores
// multi-section tree blocks with them. Its default arm, Fennel with gamma
// 1.5, evaluates FennelScore's expression inline rather than calling it,
// and among children that share one alpha it scores only the least-loaded
// zero-gain child (the penalty never falls as the load rises); core's
// oracle test scores every child through FennelScore and holds the two
// equal to the last bit.
package onepass

import (
	"fmt"
	"math"

	"oms/internal/stream"
)

// Config carries the shared streaming-partitioner parameters.
type Config struct {
	K       int32   // number of blocks
	Epsilon float64 // allowed imbalance; the paper fixes 0.03
	Gamma   float64 // Fennel exponent; 0 means the paper's 1.5
	Seed    uint64  // randomizes Hashing and tie-breaking
}

// Lmax returns the balance threshold ceil((1+eps) * totalWeight / k).
func Lmax(totalWeight int64, k int32, eps float64) int64 {
	return int64(math.Ceil((1 + eps) * float64(totalWeight) / float64(k)))
}

// Alpha returns Fennel's alpha = sqrt(k) * m / n^1.5 for the given
// subproblem size (weights generalize m to total edge weight).
func Alpha(k int32, m int64, n int32) float64 {
	if n == 0 {
		return 0
	}
	nf := float64(n)
	return math.Sqrt(float64(k)) * float64(m) / (nf * math.Sqrt(nf))
}

// FennelScore evaluates the Fennel objective for placing a node with
// weight vwgt and neighbor-gain gain into a block with the given load and
// capacity: gain - alpha * gamma * load^(gamma-1). feasible is false when
// the move violates the capacity.
func FennelScore(gain float64, load, vwgt, capacity int64, alpha, gamma float64) (score float64, feasible bool) {
	if load+vwgt > capacity {
		return 0, false
	}
	var penalty float64
	if gamma == 1.5 {
		penalty = alpha * 1.5 * math.Sqrt(float64(load))
	} else {
		penalty = alpha * gamma * math.Pow(float64(load), gamma-1)
	}
	return gain - penalty, true
}

// LDGScore evaluates the LDG objective: gain * (1 - load/capacity),
// infeasible when the capacity would be violated.
func LDGScore(gain float64, load, vwgt, capacity int64) (score float64, feasible bool) {
	if load+vwgt > capacity {
		return 0, false
	}
	return gain * (1 - float64(load)/float64(capacity)), true
}

// shared holds the state common to all flat one-pass partitioners: the
// running block loads and the permanent assignment of every streamed
// node.
type shared struct {
	k     int32
	lmax  int64
	loads []int64
	parts []int32
}

func newShared(cfg Config, st stream.Stats) (*shared, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("onepass: k=%d < 1", cfg.K)
	}
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("onepass: negative epsilon %v", cfg.Epsilon)
	}
	s := &shared{
		k:     cfg.K,
		lmax:  Lmax(st.TotalNodeWeight, cfg.K, cfg.Epsilon),
		loads: make([]int64, cfg.K),
		parts: make([]int32, st.N),
	}
	for i := range s.parts {
		s.parts[i] = -1
	}
	return s, nil
}

func (s *shared) place(u, b int32, w int64) {
	s.loads[b] += w
	s.parts[u] = b
}

// Assignments exposes the final partition vector.
func (s *shared) Assignments() []int32 { return s.parts }

// gainScratch accumulates the weighted neighbor count per block for the
// current node using epoch marking (no O(k) clearing).
type gainScratch struct {
	gain    []float64
	mark    []uint32
	touched []int32
	epoch   uint32
}

func newGainScratch(k int32) *gainScratch {
	return &gainScratch{
		gain: make([]float64, k),
		mark: make([]uint32, k),
	}
}

// reset starts a new node; previous gains become stale in O(1).
func (g *gainScratch) reset() {
	g.epoch++
	g.touched = g.touched[:0]
	if g.epoch == 0 { // wrapped: clear marks once every 2^32 nodes
		for i := range g.mark {
			g.mark[i] = 0
		}
		g.epoch = 1
	}
}

// add accumulates gain w for block b.
func (g *gainScratch) add(b int32, w float64) {
	if g.mark[b] != g.epoch {
		g.mark[b] = g.epoch
		g.gain[b] = 0
		g.touched = append(g.touched, b)
	}
	g.gain[b] += w
}

// get returns the accumulated gain of block b (0 if untouched).
func (g *gainScratch) get(b int32) float64 {
	if g.mark[b] != g.epoch {
		return 0
	}
	return g.gain[b]
}
