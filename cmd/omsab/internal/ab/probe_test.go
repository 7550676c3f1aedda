package ab

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"oms/internal/core"
	"oms/internal/stream"
)

// hostWindows simulates rounds of one variant's windows on a host that
// runs each window slow[i]× slower: ns/node rises and the probe's rate
// falls by that factor. Each timing carries its own relative noise, up
// to nsNoise for a pass and probeNoise for each probe reading, which is
// also how far the probe moves within a window.
func hostWindows(rng *rand.Rand, base float64, slow []float64, nsNoise, probeNoise float64) []Window {
	jitter := func(f float64) float64 { return 1 + f*(2*rng.Float64()-1) }
	const rate = 1300 // MiB/s on the fast host
	w := make([]Window, len(slow))
	for i, s := range slow {
		w[i] = Window{NsPerNode: base * s * jitter(nsNoise), Before: rate / s * jitter(probeNoise), After: rate / s * jitter(probeNoise)}
	}
	return w
}

// TestJudgeUndoesDrift: two identical variants on a host that ran every
// window of one of them 40 % slower. The medians of their timings differ
// by more than 25 %; the paired ratio of the probe-scaled costs reads no
// change within 2 %.
func TestJudgeUndoesDrift(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const rounds = 15
	fast, slow := make([]float64, rounds), make([]float64, rounds)
	for i := range rounds {
		fast[i], slow[i] = 1+0.02*rng.Float64(), 1.4-0.02*rng.Float64()
	}
	v := Judge(hostWindows(rng, 500, fast, 0.01, 0.005), hostWindows(rng, 500, slow, 0.01, 0.005))
	t.Logf("medians %.1f and %.1f ns/node (%+.1f %%); paired ratio %.4f, %d/%d wins: %s",
		v.ParentMedian, v.ChangeMedian, 100*(v.ChangeMedian/v.ParentMedian-1), v.RatioMedian, v.Wins, v.Rounds, v)
	if v.ChangeMedian/v.ParentMedian < 1.25 {
		t.Fatalf("the medians differ by %.1f %%, want the drift to move them by more than 25 %%", 100*(v.ChangeMedian/v.ParentMedian-1))
	}
	if math.Abs(v.RatioMedian-1) > 0.02 {
		t.Fatalf("paired ratio %.4f, want identical variants within 2 %%", v.RatioMedian)
	}
}

// TestJudgeFindsTenPercent: under drift of up to 40 % from window to
// window, a change 10 % faster is found in at least 9 of 10 seeded
// trials of 15 rounds. Two identical variants are called faster or
// slower in at most 2 of them: the sign test alone errs in about 1 of 30
// trials, and 10 trials see one such error about a third of the time.
func TestJudgeFindsTenPercent(t *testing.T) {
	found, wrong := 0, 0
	for seed := range uint64(10) {
		rng := rand.New(rand.NewPCG(seed, 25))
		drift := func() []float64 {
			s := make([]float64, 15)
			for i := range s {
				s[i] = 1 + 0.4*rng.Float64()
			}
			return s
		}
		parent := hostWindows(rng, 500, drift(), 0.03, 0.01)
		v := Judge(parent, hostWindows(rng, 450, drift(), 0.03, 0.01))
		if strings.HasPrefix(v.String(), "faster") {
			found++
		}
		null := Judge(parent, hostWindows(rng, 500, drift(), 0.03, 0.01))
		if !strings.HasPrefix(null.String(), "unresolved") {
			wrong++
		}
		t.Logf("seed %d: 10 %% faster: %s; identical: %s", seed, v, null)
	}
	if found < 9 || wrong > 2 {
		t.Fatalf("a 10 %% effect found in %d of 10 trials (want >= 9); identical variants called changed in %d", found, wrong)
	}
}

// TestProbeCostsUnderOnePercent: the probe, run before and after a
// window, costs at most 1 % of the shorter window at scale 1, one pass
// over the RMAT case.
func TestProbeCostsUnderOnePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the RMAT case at scale 1")
	}
	c := cases()[1]
	g := c.Graph(1)
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.New(c.Tree, st, core.Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	t0 := cpuTime()
	if _, err := o.Run(src); err != nil {
		t.Fatal(err)
	}
	window := cpuTime() - t0
	costs := make([]time.Duration, 5)
	for i := range costs {
		t0 := cpuTime()
		probe()
		probe()
		costs[i] = cpuTime() - t0
	}
	cost := time.Duration(median(func() []float64 {
		f := make([]float64, len(costs))
		for i, d := range costs {
			f[i] = float64(d)
		}
		return f
	}()))
	t.Logf("probe before and after: %v; %s window: %v (%.2f %%)", cost, c.Name, window, 100*cost.Seconds()/window.Seconds())
	if cost.Seconds() > 0.01*window.Seconds() {
		t.Fatalf("the probe costs %v, more than 1 %% of a %v window", cost, window)
	}
}
