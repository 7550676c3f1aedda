package ab

import (
	"math"
	"testing"
)

// TestSummarizePairsRounds checks the pairing statistics on synthetic
// timings: the host drifts by 40 % across the rounds, which moves both
// sides' medians, while the per-round ratio sees only the change.
func TestSummarizePairsRounds(t *testing.T) {
	drift := []float64{100, 140, 110, 130, 120, 105, 135}
	scaled := func(f float64, skip ...int) []float64 {
		out := make([]float64, len(drift))
		for i, d := range drift {
			out[i] = d * f
		}
		for _, i := range skip {
			out[i] = drift[i] * 1.05
		}
		return out
	}
	cases := []struct {
		name         string
		parent       []float64
		change       []float64
		ratio        float64
		wins         int
		parentMedian float64
		changeMedian float64
	}{
		{"identical", drift, drift, 1, 0, 120, 120},
		{"10% faster every round", drift, scaled(0.9), 0.9, 7, 120, 108},
		{"10% faster but two rounds 5% slower", drift, scaled(0.9, 1, 4), 0.9, 5, 120, 117},
		{"even rounds average the middle pair", []float64{100, 200, 300, 400}, []float64{110, 180, 270, 440}, 1, 2, 250, 225},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Summarize(c.parent, c.change)
			near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
			if s.Rounds != len(c.parent) || s.Wins != c.wins || !near(s.RatioMedian, c.ratio) ||
				!near(s.ParentMedian, c.parentMedian) || !near(s.ChangeMedian, c.changeMedian) {
				t.Fatalf("got %+v; want %d rounds, ratio %v, %d wins, medians %v and %v",
					s, len(c.parent), c.ratio, c.wins, c.parentMedian, c.changeMedian)
			}
		})
	}
}
