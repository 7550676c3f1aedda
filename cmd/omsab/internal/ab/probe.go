package ab

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"
)

// The probe is a fixed CPU kernel timed just before and just after every
// window: SHA-256 of a fixed buffer, probeBatches batches of probeLoops
// sums, after one untimed sum that brings the buffer and the code into
// the cache. It allocates nothing and reads no memory outside the
// buffer, so its rate moves only with the host (frequency, other
// tenants), and it puts two windows taken at different times on one
// scale. Its rate is the fastest batch's, on the wall clock: a batch of
// about 50 µs is too short for getrusage's microseconds, and an
// interrupt or a preemption in one batch does not move the fastest.
// Before and after a window it costs about 0.3 ms; a window at scale 1
// takes at least 50 ms (RMAT 2^17 on a 2-core host).
const (
	probeBytes   = 4 << 10
	probeLoops   = 16
	probeBatches = 3
)

var (
	probeBuf  [probeBytes]byte
	probeSink [sha256.Size]byte
)

// probe runs the kernel once and returns its rate in MiB/s of CPU time.
func probe() float64 {
	probeSink = sha256.Sum256(probeBuf[:])
	best := time.Duration(math.MaxInt64)
	for range probeBatches {
		t0 := time.Now()
		for range probeLoops {
			probeSink = sha256.Sum256(probeBuf[:])
		}
		best = min(best, time.Since(t0))
	}
	return float64(probeLoops*probeBytes) / (1 << 20) / max(best.Seconds(), 1e-9)
}

// A Window is one timed pass: its CPU ns/node and the probe's rate just
// before and just after it.
type Window struct {
	NsPerNode     float64
	Before, After float64 // MiB/s
}

// scaled is the window's cost on the probe's scale: ns/node times the
// host's speed over the window, the mean of the two probe rates. A host
// that runs everything 40 % slower raises ns/node and lowers the rate
// alike, and leaves the product.
func (w Window) scaled() float64 { return w.NsPerNode * (w.Before + w.After) / 2 }

// drift is how far the probe moved across the window, relative to its
// lower reading: how much the host changed while the window ran, which
// no scaling undoes.
func (w Window) drift() float64 {
	return math.Abs(w.After-w.Before) / max(math.Min(w.Before, w.After), 1e-9)
}

// Verdict pairs the two variants' windows round by round. Its Summary
// holds the raw ns/node medians, and the median and wins of the ratios
// change/parent of the probe-scaled costs.
type Verdict struct {
	Summary
	// Drift is the median over rounds of the probe's largest movement
	// within one of the round's windows.
	Drift float64
}

// Judge pairs parent[i] with change[i], the windows of round i.
func Judge(parent, change []Window) Verdict {
	ps, cs := make([]float64, len(parent)), make([]float64, len(change))
	raw := [2][]float64{make([]float64, len(parent)), make([]float64, len(change))}
	drift := make([]float64, len(parent))
	for i := range parent {
		ps[i], cs[i] = parent[i].scaled(), change[i].scaled()
		raw[0][i], raw[1][i] = parent[i].NsPerNode, change[i].NsPerNode
		drift[i] = max(parent[i].drift(), change[i].drift())
	}
	v := Verdict{Summary: Summarize(ps, cs), Drift: median(drift)}
	v.ParentMedian, v.ChangeMedian = median(raw[0]), median(raw[1])
	return v
}

// String reads the verdict: the change is faster or slower by the paired
// ratio's distance from 1. It is unresolved when the probe moved at
// least that much within a round's window, or when the rounds do not
// agree on the direction: fewer wins (or losses) than a sign test needs
// at 5 %.
func (v Verdict) String() string {
	effect := v.RatioMedian - 1
	agree := v.Wins
	if effect > 0 {
		agree = v.Rounds - v.Wins
	}
	switch {
	case math.Abs(effect) <= v.Drift:
		return fmt.Sprintf("unresolved: the probe moved %.1f %% within a window, the effect is %+.1f %%", 100*v.Drift, 100*effect)
	case signTail(agree, v.Rounds) > 0.05:
		return fmt.Sprintf("unresolved: %d of %d rounds agree with the effect of %+.1f %%", agree, v.Rounds, 100*effect)
	case effect < 0:
		return fmt.Sprintf("faster by %.1f %%", -100*effect)
	default:
		return fmt.Sprintf("slower by %.1f %%", 100*effect)
	}
}

// signTail is the chance that k or more of n fair coin flips come up
// heads.
func signTail(k, n int) float64 {
	p, c := 0.0, 1.0 // c is n choose i
	for i := 0; i <= n; i++ {
		if i >= k {
			p += c
		}
		c = c * float64(n-i) / float64(i+1)
	}
	return p / math.Pow(2, float64(n))
}
