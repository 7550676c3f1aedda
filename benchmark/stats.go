package benchmark

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// median returns the middle of xs (mean of the two middles when even);
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what judges this benchmark's spread.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1, nearest rank) of xs. With
// fewer than minBeyond samples beyond it, it returns instead the highest
// quantile that has that many (the lowest sample if none does) and ok is
// false.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := min(int(p*float64(len(s))+0.999999)-1, len(s)-1)
	supported := max(len(s)-1-minBeyond, 0)
	return s[min(rank, supported)], rank <= supported
}

// Host fingerprints the machine a result was measured on, so that like
// is compared with like.
type Host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	CalibMops  float64 `json:"calib_mops"` // fixed integer loop, 200 ms, million iterations/s
}

var calibSink uint64

// Fingerprint measures the host once; it takes 200 ms.
func Fingerprint() Host {
	const slice = 1 << 16
	var x uint64 = 88172645463325252
	start := time.Now()
	iters := 0
	for time.Since(start) < 200*time.Millisecond {
		for i := 0; i < slice; i++ { // xorshift: serial dependency, no memory traffic
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters += slice
	}
	calibSink = x
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CalibMops:  float64(iters) / time.Since(start).Seconds() / 1e6,
	}
}

// resetPeakRSS asks the kernel to restart the high-water mark of the
// resident set, so peakRSSMB covers the timed region only. Where the
// kernel refuses, the mark simply includes set-up, on every commit alike.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(string(f[1]), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
