package promtext

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed log-spaced (power-of-two) upper bounds
// over nanoseconds, from 2^histoMinExp ns (~1µs) through
// 2^histoMaxExp ns (~17s), plus the +Inf overflow bucket. Every
// histogram in the registry shares the layout, so omsstat and dashboards
// can merge and compare series without per-metric bucket metadata.
const (
	histoMinExp     = 10 // 2^10 ns = 1.024µs, the first upper bound
	histoMaxExp     = 34 // 2^34 ns ≈ 17.18s, the last finite upper bound
	histoBuckets    = histoMaxExp - histoMinExp + 1
	histoAllBuckets = histoBuckets + 1 // + the +Inf bucket
)

// histoShardsFor sizes the stripe count: the next power of two at or
// above GOMAXPROCS, capped so an over-provisioned box does not pay
// kilobytes per histogram. Power of two keeps shard selection a mask.
func histoShardsFor() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// histoShard is one stripe of a histogram: per-bucket counts plus the
// running sum of observed nanoseconds. Padded to its own cache lines by
// construction (the arrays dominate), written only with atomics.
type histoShard struct {
	counts   [histoAllBuckets]atomic.Uint64
	sumNanos atomic.Int64
}

// Histogram is a lock-free latency histogram with fixed log-spaced
// buckets. Observations stripe across per-P shards (selected by the
// runtime's per-thread cheap RNG, so concurrent observers rarely share
// a cache line) and are merged only at scrape time. Observe is
// allocation-free and wait-free: one atomic add into a bucket counter
// and one into the shard's sum.
type Histogram struct {
	name   string
	help   string
	shards []histoShard
	mask   uint32
	// exemplars holds one trace link per bucket (last writer wins),
	// published with atomic pointers so attaching stays lock-free and
	// the classic text exposition pays nothing for them.
	exemplars [histoAllBuckets]atomic.Pointer[exemplar]
}

// exemplar links a bucket to a recent trace whose observation landed
// in it — the OpenMetrics bridge from "p99 is bad" to "this request".
type exemplar struct {
	traceID string
	value   float64 // observed seconds
	ts      time.Time
}

func newHistogram(name, help string) *Histogram {
	n := histoShardsFor()
	return &Histogram{name: name, help: help, shards: make([]histoShard, n), mask: uint32(n - 1)}
}

// bucketIndex maps an observed duration (nanoseconds) to its bucket:
// the first upper bound it does not exceed, computed from the position
// of the highest set bit — no float math, no search loop.
func bucketIndex(ns int64) int {
	if ns <= 1<<histoMinExp {
		return 0
	}
	idx := bits.Len64(uint64(ns-1)) - histoMinExp
	if idx >= histoAllBuckets {
		return histoAllBuckets - 1 // +Inf
	}
	return idx
}

// Observe records one duration. Negative durations (clock steps under
// an injected test clock) clamp to zero rather than corrupting a
// bucket index.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	sh := &h.shards[rand.Uint32()&h.mask]
	sh.counts[bucketIndex(ns)].Add(1)
	sh.sumNanos.Add(ns)
}

// ObserveExemplar records one duration and, when traceID is non-empty,
// links the observation's bucket to that trace. The empty-id path is
// exactly Observe — the sampled-out fast path stays allocation-free.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	h.Observe(d)
	if traceID != "" {
		h.AttachExemplar(d, traceID)
	}
}

// AttachExemplar links traceID to the bucket d falls in without
// recording an observation — for stages whose histogram is observed
// elsewhere (the WAL store hooks) where no trace context exists.
func (h *Histogram) AttachExemplar(d time.Duration, traceID string) {
	if traceID == "" {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.exemplars[bucketIndex(ns)].Store(&exemplar{traceID: traceID, value: float64(ns) / 1e9, ts: time.Now()})
}

// BucketExemplar returns bucket b's current exemplar, if any (b indexes
// BucketBounds order; the last bucket is +Inf).
func (h *Histogram) BucketExemplar(b int) (traceID string, value float64, ts time.Time, ok bool) {
	if b < 0 || b >= histoAllBuckets {
		return "", 0, time.Time{}, false
	}
	e := h.exemplars[b].Load()
	if e == nil {
		return "", 0, time.Time{}, false
	}
	return e.traceID, e.value, e.ts, true
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// HistogramSnapshot is a merged point-in-time view of a histogram:
// per-bucket (non-cumulative) counts aligned with BucketBounds(), the
// total count, and the sum of observations in seconds.
type HistogramSnapshot struct {
	Buckets [histoAllBuckets]uint64
	Count   uint64
	SumSec  float64
}

// Snapshot merges the shards. Shards are written concurrently, so the
// merge is a racy-but-monotone view: every completed Observe before the
// call is included, in-flight ones may or may not be.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var nanos int64
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			c := sh.counts[b].Load()
			s.Buckets[b] += c
			s.Count += c
		}
		nanos += sh.sumNanos.Load()
	}
	s.SumSec = float64(nanos) / 1e9
	return s
}

// BucketBounds returns the shared finite upper bounds in seconds,
// ascending; the implicit last bucket is +Inf.
func BucketBounds() []float64 {
	out := make([]float64, histoBuckets)
	for i := range out {
		out[i] = float64(int64(1)<<(histoMinExp+i)) / 1e9
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds from the
// merged buckets with the standard Prometheus linear interpolation
// inside the target bucket. Observations beyond the last finite bound
// report that bound (there is no upper edge to interpolate toward).
// Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for b := 0; b < histoAllBuckets; b++ {
		cum += s.Buckets[b]
		if float64(cum) < rank {
			continue
		}
		if b == histoAllBuckets-1 {
			return float64(int64(1)<<histoMaxExp) / 1e9
		}
		upper := float64(int64(1)<<(histoMinExp+b)) / 1e9
		lower := 0.0
		if b > 0 {
			lower = float64(int64(1)<<(histoMinExp+b-1)) / 1e9
		}
		inBucket := float64(s.Buckets[b])
		if inBucket == 0 {
			return upper
		}
		before := float64(cum) - inBucket
		return lower + (upper-lower)*(rank-before)/inBucket
	}
	return float64(int64(1)<<histoMaxExp) / 1e9
}

// Summary is one histogram's summary.json row, in seconds: the count,
// the sum, and three quantiles. omsstat writes it for the daemon's
// histograms and omsload for its client-side ones.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary condenses the snapshot into its summary.json row.
func (s HistogramSnapshot) Summary() Summary {
	return Summary{Count: s.Count, Sum: s.SumSec, P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99)}
}

// writeText emits the histogram in Prometheus text exposition format:
// cumulative _bucket series with le labels, then _sum and _count.
func (h *Histogram) writeText(w io.Writer) error {
	return h.writeExposition(w, false)
}

// writeOpenMetrics emits the same family with OpenMetrics exemplars:
// buckets holding a trace link gain a "# {trace_id=...} value ts"
// suffix. Classic scrapes never see this path.
func (h *Histogram) writeOpenMetrics(w io.Writer) error {
	return h.writeExposition(w, true)
}

func (h *Histogram) writeExposition(w io.Writer, exemplars bool) error {
	if h.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", h.name, escapeHelp(h.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.name); err != nil {
		return err
	}
	s := h.Snapshot()
	suffix := func(b int) string {
		if !exemplars {
			return ""
		}
		tid, v, ts, ok := h.BucketExemplar(b)
		if !ok {
			return ""
		}
		return fmt.Sprintf(" # {trace_id=%q} %s %s", tid,
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.FormatFloat(float64(ts.UnixNano())/1e9, 'f', 3, 64))
	}
	var cum uint64
	for b := 0; b < histoBuckets; b++ {
		cum += s.Buckets[b]
		le := strconv.FormatFloat(float64(int64(1)<<(histoMinExp+b))/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", h.name, le, cum, suffix(b)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n", h.name, s.Count, suffix(histoAllBuckets-1)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.name, strconv.FormatFloat(s.SumSec, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.name, s.Count)
	return err
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) snapshotInto(into map[string]int64) {
	into[h.name+"_count"] = int64(h.Snapshot().Count)
}
