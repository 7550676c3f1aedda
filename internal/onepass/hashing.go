package onepass

import (
	"oms/internal/stream"
	"oms/internal/util"
)

// Hashing is the O(n) baseline of Stanton & Kliot: each node goes to
// hash(node) mod k, ignoring the graph structure entirely. To keep every
// computed partition balanced (§4: "All partitions computed by all
// algorithms were balanced"), a full block falls through to linear
// probing — rare, since the hash is uniform and eps > 0 leaves slack.
type Hashing struct {
	*shared
	seed uint64
}

// NewHashing builds the Hashing partitioner for a stream with the given
// global stats.
func NewHashing(cfg Config, st stream.Stats) (*Hashing, error) {
	s, err := newShared(cfg, st)
	if err != nil {
		return nil, err
	}
	return &Hashing{shared: s, seed: cfg.Seed}, nil
}

// Assign implements Algorithm.
func (h *Hashing) Assign(_ int, u int32, vwgt int32, _ []int32, _ []int32) int32 {
	b := int32(util.HashMod(uint64(u), h.seed, int(h.k)))
	w := int64(vwgt)
	for probe := int32(0); probe < h.k; probe++ {
		c := b + probe
		if c >= h.k {
			c -= h.k
		}
		if h.loads[c]+w <= h.lmax {
			h.place(u, c, w)
			return c
		}
	}
	// All blocks at capacity (only possible with non-unit node weights):
	// fall back to the hashed target, accepting the overflow.
	h.place(u, b, w)
	return b
}
