package onepass

import (
	"oms/internal/stream"
)

// LDG is linear deterministic greedy (Stanton & Kliot): assign node v to
// the feasible block maximizing |V_i ∩ N(v)| * (1 - |V_i|/Lmax), breaking
// ties toward the lighter block. The per-node scan over all k blocks
// makes the total cost O(m + nk), as in the original.
type LDG struct {
	*shared
	scratch *gainScratch
}

// NewLDG builds the LDG partitioner.
func NewLDG(cfg Config, st stream.Stats) (*LDG, error) {
	s, err := newShared(cfg, st)
	if err != nil {
		return nil, err
	}
	return &LDG{shared: s, scratch: newGainScratch(cfg.K)}, nil
}

// Assign implements Algorithm.
func (l *LDG) Assign(_ int, u int32, vwgt int32, adj []int32, ewgt []int32) int32 {
	sc := l.scratch
	sc.reset()
	for i, v := range adj {
		p := l.parts[v]
		if p < 0 {
			continue // not streamed yet
		}
		w := 1.0
		if ewgt != nil {
			w = float64(ewgt[i])
		}
		sc.add(p, w)
	}
	w := int64(vwgt)
	best := int32(-1)
	bestScore := 0.0
	var bestLoad int64
	for b := int32(0); b < l.k; b++ {
		load := l.loads[b]
		score, ok := LDGScore(sc.get(b), load, w, l.lmax)
		if !ok {
			continue
		}
		if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
			best, bestScore, bestLoad = b, score, load
		}
	}
	if best < 0 {
		best = minLoadBlock(l.shared)
	}
	l.place(u, best, w)
	return best
}

// minLoadBlock is the forced-placement fallback when no block is feasible
// (cannot happen with unit weights; kept for weighted nodes).
func minLoadBlock(s *shared) int32 {
	best := int32(0)
	bl := s.loads[0]
	for b := int32(1); b < s.k; b++ {
		if l := s.loads[b]; l < bl {
			best, bl = b, l
		}
	}
	return best
}
