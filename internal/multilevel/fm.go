package multilevel

import (
	"oms/internal/graph"
)

// fm2Way runs Fiduccia–Mattheyses passes on a bisection: nodes are moved
// one at a time in best-gain-first order (each node at most once per
// pass), the best prefix of the move sequence is kept, and passes repeat
// until one fails to improve the cut. Negative-gain moves are permitted
// mid-pass, which lets the search tunnel out of local minima that
// label-propagation cannot leave; balance is enforced against caps at
// every move. Gains are maintained in a bucket structure indexed by gain
// value, so a pass costs O(m + n) plus the bucket count. A bisection whose
// gain range needs more than maxGainBuckets buckets (edge weights in the
// millions) is left as it is: its caller has already refined and
// rebalanced it with label propagation.
func fm2Way(g *graph.Graph, parts []int32, caps []int64, passes int) {
	n := g.NumNodes()
	if n == 0 {
		return
	}
	loads := make([]int64, 2)
	for u := int32(0); u < n; u++ {
		loads[parts[u]] += int64(g.NodeWeight(u))
	}
	// Max absolute gain is bounded by the largest weighted degree.
	var maxDeg int64 = 1
	for u := int32(0); u < n; u++ {
		var d int64
		ew := g.EdgeWeights(u)
		if ew == nil {
			d = int64(len(g.Neighbors(u)))
		} else {
			for _, w := range ew {
				d += int64(w)
			}
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if 2*maxDeg+1 > maxGainBuckets {
		return
	}
	b := newGainBuckets(n, maxDeg)
	gains := make([]int64, n)
	locked := make([]bool, n)
	moveSeq := make([]int32, 0, n)

	for pass := 0; pass < passes; pass++ {
		// (Re)compute gains: gain(u) = external - internal edge weight.
		b.reset()
		for u := int32(0); u < n; u++ {
			locked[u] = false
			adj := g.Neighbors(u)
			ew := g.EdgeWeights(u)
			var gain int64
			for i, v := range adj {
				w := int64(1)
				if ew != nil {
					w = int64(ew[i])
				}
				if parts[v] != parts[u] {
					gain += w
				} else {
					gain -= w
				}
			}
			gains[u] = gain
			b.insert(u, gain)
		}
		moveSeq = moveSeq[:0]
		var cum, bestCum int64
		bestLen := 0
		for {
			u := b.popBestFeasible(func(u int32) bool {
				w := int64(g.NodeWeight(u))
				to := 1 - parts[u]
				return loads[to]+w <= caps[to]
			})
			if u < 0 {
				break
			}
			from := parts[u]
			to := 1 - from
			w := int64(g.NodeWeight(u))
			loads[from] -= w
			loads[to] += w
			parts[u] = to
			locked[u] = true
			cum += gains[u]
			moveSeq = append(moveSeq, u)
			if cum > bestCum {
				bestCum = cum
				bestLen = len(moveSeq)
			}
			adj := g.Neighbors(u)
			ew := g.EdgeWeights(u)
			for i, v := range adj {
				if locked[v] {
					continue
				}
				ew2 := int64(1)
				if ew != nil {
					ew2 = int64(ew[i])
				}
				// u joined v's side iff parts[v] == to.
				var delta int64
				if parts[v] == to {
					delta = -2 * ew2
				} else {
					delta = 2 * ew2
				}
				b.update(v, gains[v], gains[v]+delta)
				gains[v] += delta
			}
		}
		// Roll back the tail beyond the best prefix.
		for i := len(moveSeq) - 1; i >= bestLen; i-- {
			u := moveSeq[i]
			from := parts[u]
			to := 1 - from
			w := int64(g.NodeWeight(u))
			loads[from] -= w
			loads[to] += w
			parts[u] = to
		}
		if bestCum <= 0 {
			break
		}
	}
}

// maxGainBuckets caps the bucket array of fm2Way at 16 MiB of list heads:
// one bucket per gain in [-maxDeg, maxDeg].
const maxGainBuckets = 1 << 22

// gainBuckets is the FM bucket structure: a doubly linked list of nodes
// per gain value, with a moving max pointer. Gains are offset so they can
// be used directly as indices.
type gainBuckets struct {
	offset  int64 // index = gain + offset
	head    []int32
	next    []int32
	prev    []int32
	bucket  []int32 // current bucket index per node, -1 if absent
	maxIdx  int
	entries int
}

func newGainBuckets(n int32, maxDeg int64) *gainBuckets {
	size := 2*maxDeg + 1
	gb := &gainBuckets{
		offset: maxDeg,
		head:   make([]int32, size),
		next:   make([]int32, n),
		prev:   make([]int32, n),
		bucket: make([]int32, n),
	}
	for i := range gb.head {
		gb.head[i] = -1
	}
	for i := int32(0); i < n; i++ {
		gb.bucket[i] = -1
	}
	return gb
}

func (gb *gainBuckets) reset() {
	for i := range gb.head {
		gb.head[i] = -1
	}
	for i := range gb.bucket {
		gb.bucket[i] = -1
	}
	gb.maxIdx = -1
	gb.entries = 0
}

func (gb *gainBuckets) insert(u int32, gain int64) {
	idx := int(gain + gb.offset)
	gb.bucket[u] = int32(idx)
	gb.prev[u] = -1
	gb.next[u] = gb.head[idx]
	if gb.head[idx] >= 0 {
		gb.prev[gb.head[idx]] = u
	}
	gb.head[idx] = u
	if idx > gb.maxIdx {
		gb.maxIdx = idx
	}
	gb.entries++
}

func (gb *gainBuckets) remove(u int32) {
	idx := gb.bucket[u]
	if idx < 0 {
		return
	}
	if gb.prev[u] >= 0 {
		gb.next[gb.prev[u]] = gb.next[u]
	} else {
		gb.head[idx] = gb.next[u]
	}
	if gb.next[u] >= 0 {
		gb.prev[gb.next[u]] = gb.prev[u]
	}
	gb.bucket[u] = -1
	gb.entries--
}

func (gb *gainBuckets) update(u int32, oldGain, newGain int64) {
	if gb.bucket[u] < 0 {
		return // locked or never inserted
	}
	if oldGain == newGain {
		return
	}
	gb.remove(u)
	gb.insert(u, newGain)
}

// popBestFeasible removes and returns the highest-gain node for which
// feasible() holds, or -1 if none. Infeasible nodes stay in their bucket
// (they may become feasible after later moves shift the loads), so the
// scan walks buckets from the top without removing what it skips.
func (gb *gainBuckets) popBestFeasible(feasible func(int32) bool) int32 {
	if gb.entries == 0 {
		return -1
	}
	for idx := gb.maxIdx; idx >= 0; idx-- {
		for u := gb.head[idx]; u >= 0; u = gb.next[u] {
			if feasible(u) {
				gb.remove(u)
				// Lower maxIdx past empty top buckets for the next call.
				for gb.maxIdx >= 0 && gb.head[gb.maxIdx] < 0 {
					gb.maxIdx--
				}
				return u
			}
		}
	}
	return -1
}
