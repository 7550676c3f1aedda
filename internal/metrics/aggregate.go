package metrics

import (
	"math"
	"sort"
)

// GeoMean returns the geometric mean of xs, the paper's cross-instance
// aggregator ("to give every instance the same influence"). Zero entries
// are clamped to a tiny positive value so an occasional zero-cut instance
// does not annihilate the mean.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x < 1e-12 {
			x = 1e-12
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Mean returns the arithmetic mean (the paper's per-instance aggregator
// across repetitions).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Improvement expresses sigmaA relative to sigmaB the paper's way:
// (sigmaB/sigmaA - 1) * 100%. Positive means A is better when the metric
// is lower-is-better (cut, J, time).
func Improvement(sigmaB, sigmaA float64) float64 {
	if sigmaA < 1e-12 {
		sigmaA = 1e-12
	}
	return (sigmaB/sigmaA - 1) * 100
}

// Profile is a performance profile (paper §4, Figures 2d-f): for each
// algorithm, Fraction[i] is the share of instances on which the algorithm
// is within Tau[i] of the per-instance best.
type Profile struct {
	Tau      []float64
	Fraction map[string][]float64
}

// PerformanceProfile computes a profile from lower-is-better objective
// values: values[alg][i] is the result of algorithm alg on instance i.
// All algorithms must cover the same instances.
func PerformanceProfile(values map[string][]float64, taus []float64) Profile {
	p := Profile{Tau: taus, Fraction: make(map[string][]float64, len(values))}
	var nInst int
	for _, vs := range values {
		nInst = len(vs)
		break
	}
	if nInst == 0 {
		for name := range values {
			p.Fraction[name] = make([]float64, len(taus))
		}
		return p
	}
	best := make([]float64, nInst)
	for i := 0; i < nInst; i++ {
		best[i] = math.Inf(1)
		for _, vs := range values {
			if vs[i] < best[i] {
				best[i] = vs[i]
			}
		}
	}
	for name, vs := range values {
		ratios := make([]float64, nInst)
		for i, v := range vs {
			b := best[i]
			switch {
			case b <= 0 && v <= 0:
				ratios[i] = 1 // both zero: tie at the optimum
			case b <= 0:
				ratios[i] = math.Inf(1)
			default:
				ratios[i] = v / b
			}
		}
		sort.Float64s(ratios)
		fr := make([]float64, len(taus))
		for ti, tau := range taus {
			cnt := sort.SearchFloat64s(ratios, math.Nextafter(tau, math.Inf(1)))
			fr[ti] = float64(cnt) / float64(nInst)
		}
		p.Fraction[name] = fr
	}
	return p
}

// DefaultTaus returns the paper's log-spaced tau grid from 1 to maxTau.
func DefaultTaus(maxTau float64) []float64 {
	var taus []float64
	for t := 1.0; t <= maxTau; t *= 2 {
		taus = append(taus, t)
	}
	return taus
}
