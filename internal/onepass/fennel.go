package onepass

import (
	"oms/internal/stream"
)

// Fennel (Tsourakakis et al.) assigns node v to the feasible block
// maximizing |V_i ∩ N(v)| - alpha * gamma * |V_i|^(gamma-1) with the
// authors' tuned gamma = 1.5 and alpha = sqrt(k) m / n^1.5. Like LDG, one
// node costs O(|N(v)| + k): the additive penalty makes even zero-gain
// blocks comparable, so all k are scanned, exactly as in the paper's
// reference implementation.
type Fennel struct {
	*shared
	alpha   float64
	gamma   float64
	scratch *gainScratch
}

// NewFennel builds the Fennel partitioner; alpha derives from the stream
// stats (total edge weight generalizes m for weighted graphs). threads is
// accepted and ignored; Blocked 1A(h) removes it.
func NewFennel(cfg Config, st stream.Stats, threads int) (*Fennel, error) {
	s, err := newShared(cfg, st)
	if err != nil {
		return nil, err
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	return &Fennel{
		shared:  s,
		alpha:   Alpha(cfg.K, st.TotalEdgeWeight, st.N),
		gamma:   gamma,
		scratch: newGainScratch(cfg.K),
	}, nil
}

// AlphaValue exposes the computed alpha (used by tests).
func (f *Fennel) AlphaValue() float64 { return f.alpha }

// Assign implements Algorithm.
func (f *Fennel) Assign(_ int, u int32, vwgt int32, adj []int32, ewgt []int32) int32 {
	sc := f.scratch
	sc.reset()
	for i, v := range adj {
		p := f.parts[v]
		if p < 0 {
			continue
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
	for b := int32(0); b < f.k; b++ {
		load := f.loads[b]
		score, ok := FennelScore(sc.get(b), load, w, f.lmax, f.alpha, f.gamma)
		if !ok {
			continue
		}
		if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
			best, bestScore, bestLoad = b, score, load
		}
	}
	if best < 0 {
		best = minLoadBlock(f.shared)
	}
	f.place(u, best, w)
	return best
}
