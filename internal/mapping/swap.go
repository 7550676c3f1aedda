package mapping

import (
	"oms/internal/hierarchy"
)

// swapDelta returns the change in J when blocks a and b exchange their
// PEs. The a–b edge itself is unaffected (the distance between the two
// PEs is symmetric), so it is skipped.
func swapDelta(bg *BlockGraph, top *hierarchy.Topology, pe []int32, a, b int32) float64 {
	pa, pb := pe[a], pe[b]
	var oldC, newC float64
	for _, e := range bg.Adj[a] {
		if e.To == b {
			continue
		}
		pc := pe[e.To]
		oldC += float64(float64(e.W) * top.PEDistance(pa, pc))
		newC += float64(float64(e.W) * top.PEDistance(pb, pc))
	}
	for _, e := range bg.Adj[b] {
		if e.To == a {
			continue
		}
		pc := pe[e.To]
		oldC += float64(float64(e.W) * top.PEDistance(pb, pc))
		newC += float64(float64(e.W) * top.PEDistance(pa, pc))
	}
	return newC - oldC
}

// fullScanK bounds the block count for which the refinement scans all
// k(k-1)/2 pairs; beyond it only communication partners are tried, the
// speedup of Brandfass et al.
const fullScanK = 128

// GreedySwapRefine improves a block-to-PE assignment by pairwise swaps
// (the local search of Brandfass et al.), repeating for at most rounds
// rounds or until no swap improves. For small k every pair is considered;
// for large k each block only attempts swaps with its communication
// partners — the pairs that can reduce the objective directly — trading
// a slightly weaker local optimum for an O(sum deg) round. pe is modified
// in place; the number of applied swaps is returned.
func GreedySwapRefine(bg *BlockGraph, top *hierarchy.Topology, pe []int32, rounds int) int {
	swaps := 0
	fullScan := bg.K <= fullScanK
	for r := 0; r < rounds; r++ {
		improved := false
		for a := int32(0); a < bg.K; a++ {
			if fullScan {
				for b := a + 1; b < bg.K; b++ {
					if delta := swapDelta(bg, top, pe, a, b); delta < 0 {
						pe[a], pe[b] = pe[b], pe[a]
						swaps++
						improved = true
					}
				}
				continue
			}
			for _, e := range bg.Adj[a] {
				b := e.To
				if b <= a {
					continue
				}
				if delta := swapDelta(bg, top, pe, a, b); delta < 0 {
					pe[a], pe[b] = pe[b], pe[a]
					swaps++
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return swaps
}
