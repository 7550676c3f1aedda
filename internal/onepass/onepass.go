// Package onepass is reference code: the non-buffered one-pass streaming
// partitioners the paper evaluates against, Hashing and the scoring
// heuristics LDG (Stanton & Kliot) and Fennel (Tsourakakis et al.), §2.2,
// written as the paper's full scan over all k blocks per node (O(m + nk)).
// No library path runs them. The library's flat Fennel, LDG and Hashing
// are internal/core's online recursive multi-section on a one-level tree
// of k leaves, which places every node where this package does. That walk
// still visits all k blocks per node, as Theorem 2 counts them, but it
// ranks Fennel's zero-gain blocks by load instead of scoring each, so it
// runs faster than the full scan. Two things keep this package:
//   - Fennel is the full scan the benchmark ladder times as the paper's
//     flat baseline;
//   - Fennel, LDG, Hashing, Algorithm and Run are the references
//     TestFlatIsOneLevelTree holds core's one-level tree to.
//
// The two part only on Hashing with a node that fits no block: the scan
// here overloads the hashed block, the walk the least loaded one. The
// scores, Lmax and alpha come from internal/core, so the dependency
// points from the reference to the engine.
package onepass

import (
	"fmt"
	"math"

	"oms/internal/core"
	"oms/internal/stream"
)

// Config carries the shared streaming-partitioner parameters.
type Config struct {
	K       int32   // number of blocks
	Epsilon float64 // allowed imbalance; the paper fixes 0.03
	Seed    uint64  // randomizes Hashing and tie-breaking
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
	if !(cfg.Epsilon >= 0) || math.IsInf(cfg.Epsilon, 1) {
		return nil, fmt.Errorf("onepass: epsilon %v not a finite value >= 0", cfg.Epsilon)
	}
	s := &shared{
		k:     cfg.K,
		lmax:  core.Lmax(st.TotalNodeWeight, cfg.K, cfg.Epsilon),
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
