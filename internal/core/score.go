package core

import "math"

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
	if gamma == 1.5 {
		return fennel15(gain, load, alpha), true
	}
	return gain - float64(alpha*gamma*math.Pow(float64(load), gamma-1)), true
}

// LDGScore evaluates the LDG objective: gain * (1 - load/capacity),
// infeasible when the capacity would be violated.
func LDGScore(gain float64, load, vwgt, capacity int64) (score float64, feasible bool) {
	if load+vwgt > capacity {
		return 0, false
	}
	return ldg(gain, load, capacity), true
}

// fennel15 and ldg are the one expression per objective that the walk
// and the scores above evaluate; float64 keeps arm64 from fusing.
func fennel15(gain float64, load int64, alpha float64) float64 {
	return gain - float64(alpha*1.5*math.Sqrt(float64(load)))
}

func ldg(gain float64, load, capacity int64) float64 {
	return gain * (1 - float64(load)/float64(capacity))
}
