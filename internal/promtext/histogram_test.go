package promtext

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexProperty: every nanosecond value lands in exactly one
// bucket, and that bucket is the first whose upper bound it does not
// exceed — checked against a direct search over the bound table.
func TestBucketIndexProperty(t *testing.T) {
	bounds := BucketBounds()
	naive := func(ns int64) int {
		for i, b := range bounds {
			if float64(ns)/1e9 <= b {
				return i
			}
		}
		return len(bounds) // +Inf
	}
	var cases []int64
	for e := 0; e < 63; e++ {
		v := int64(1) << e
		cases = append(cases, v-1, v, v+1)
	}
	cases = append(cases, 0, 1, 999, 1000, 1023, 1024, 1025, math.MaxInt64)
	for _, ns := range cases {
		if ns < 0 {
			continue
		}
		got, want := bucketIndex(ns), naive(ns)
		if got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d (bound %v)", ns, got, want, bounds[min(want, len(bounds)-1)])
		}
	}
}

// TestHistogramShardMergeEqualsSerial: observations striped across
// shards by concurrent goroutines merge to exactly the serial fill —
// no observation lost, none double-counted, the sum exact.
func TestHistogramShardMergeEqualsSerial(t *testing.T) {
	concurrent := NewRegistry().Histogram("x_seconds", "")
	serial := NewRegistry().Histogram("y_seconds", "")

	durs := make([]time.Duration, 5000)
	for i := range durs {
		durs[i] = time.Duration(i*i*37) * time.Nanosecond
		serial.Observe(durs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(durs); i += 8 {
				concurrent.Observe(durs[i])
			}
		}(g)
	}
	wg.Wait()

	cs, ss := concurrent.Snapshot(), serial.Snapshot()
	if cs != ss {
		t.Fatalf("concurrent merge %+v != serial fill %+v", cs, ss)
	}
	if cs.Count != uint64(len(durs)) {
		t.Fatalf("count %d, want %d", cs.Count, len(durs))
	}
	var total uint64
	for _, c := range cs.Buckets {
		total += c
	}
	if total != cs.Count {
		t.Fatalf("bucket counts sum to %d, count says %d — an observation left or entered twice", total, cs.Count)
	}
}

// TestHistogramObserveAllocFree: the hot-path contract — Observe must
// not allocate (it runs per WAL append and per HTTP request).
func TestHistogramObserveAllocFree(t *testing.T) {
	h := NewRegistry().Histogram("x_seconds", "")
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Microsecond) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", allocs)
	}
}

// TestHistogramQuantile: quantiles of a known uniform fill interpolate
// into the right buckets, and the +Inf bucket degrades to the last
// finite bound instead of infinity.
func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("x_seconds", "")
	// 1000 observations spread uniformly over (0, 1ms]: p50 ≈ 0.5ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	if p50 < 0.3e-3 || p50 > 0.7e-3 {
		t.Fatalf("p50 of uniform (0,1ms] = %v, want ≈ 0.5ms", p50)
	}
	if q := s.Quantile(1.0); q < 0.5e-3 || q > 2.1e-3 {
		t.Fatalf("p100 = %v, want within the 1ms bucket's bounds", q)
	}

	over := NewRegistry().Histogram("y_seconds", "")
	over.Observe(time.Hour) // beyond the last finite bound
	last := BucketBounds()[len(BucketBounds())-1]
	if q := over.Snapshot().Quantile(0.99); q != last {
		t.Fatalf("+Inf quantile %v, want last finite bound %v", q, last)
	}

	var empty HistogramSnapshot
	if q := empty.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile %v, want 0", q)
	}
}

// TestRegistryWriteTextRoundTrip: the exposition our registry writes
// parses back through the promtext parser with every family, type,
// HELP text (including the characters that need escaping), and
// histogram bucket intact.
func TestRegistryWriteTextRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_ops_total", "ops with a\nnewline and a back\\slash").Add(7)
	reg.Gauge("rt_depth", "plain gauge").Add(-3)
	reg.GaugeFunc("rt_live", "scrape-time gauge", func() int64 { return 42 })
	h := reg.Histogram("rt_lat_seconds", "latency")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * 50 * time.Microsecond)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("registry output does not parse: %v\n%s", err, buf.String())
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	if f := byName["rt_ops_total"]; f.Type != "counter" || f.Samples[0].Value != 7 {
		t.Fatalf("counter family %+v", f)
	} else if f.Help != "ops with a\nnewline and a back\\slash" {
		t.Fatalf("HELP round-trip %q", f.Help)
	}
	if f := byName["rt_depth"]; f.Type != "gauge" || f.Samples[0].Value != -3 {
		t.Fatalf("gauge family %+v", f)
	}
	if f := byName["rt_live"]; f.Type != "gauge" || f.Samples[0].Value != 42 {
		t.Fatalf("gaugefunc family %+v", f)
	}

	// The parsed family is the live snapshot, bucket for bucket.
	ph, err := byName["rt_lat_seconds"].AsHistogram()
	if err != nil {
		t.Fatal(err)
	}
	if snap := h.Snapshot(); ph != snap {
		t.Fatalf("parsed histogram %+v, want the live snapshot %+v", ph, snap)
	}
	if ph.Count != 100 {
		t.Fatalf("parsed count %d, want 100", ph.Count)
	}
}

// TestRegistryEmptyWriteText: an empty registry writes nothing, twice,
// without error — /metrics is stable from the instant it mounts.
func TestRegistryEmptyWriteText(t *testing.T) {
	reg := NewRegistry()
	var a, b bytes.Buffer
	if err := reg.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.Len() != 0 {
		t.Fatalf("empty registry wrote %q then %q, want identical empty output", a.String(), b.String())
	}
	if fams, err := Parse(&a); err != nil || len(fams) != 0 {
		t.Fatalf("empty output parsed to %d families, err %v", len(fams), err)
	}
}

// TestRegistryConcurrentAccess: registration, observation, Snapshot,
// and WriteText race each other without corruption (run under -race),
// and every mid-registration scrape still parses as valid exposition.
func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var writers, scraper sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				reg.Counter(fmt.Sprintf("c_%d_%d_total", g, i%17), "c").Inc()
				reg.Gauge(fmt.Sprintf("g_%d_%d", g, i%13), "g").Add(1)
				reg.Histogram(fmt.Sprintf("h_%d_%d_seconds", g, i%11), "h").Observe(time.Microsecond)
				reg.GaugeFunc(fmt.Sprintf("f_%d_%d", g, i%7), "f", func() int64 { return 1 })
			}
		}(g)
	}
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = reg.Snapshot()
			var buf bytes.Buffer
			if err := reg.WriteText(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := Parse(&buf); err != nil {
				t.Errorf("mid-registration exposition does not parse: %v", err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	scraper.Wait()
}

// TestRegistryIdempotentAndMismatch: re-registering a name returns the
// same instance; re-registering it as a different type panics loudly.
func TestRegistryIdempotentAndMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.Histogram("h_seconds", "first help wins")
	b := reg.Histogram("h_seconds", "ignored")
	if a != b {
		t.Fatal("same-name histogram registration returned distinct instances")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering h_seconds as a counter did not panic")
		}
	}()
	reg.Counter("h_seconds", "boom")
}

// BenchmarkHistogramObserve pins the hot-path cost (sub-50ns on
// anything modern; the allocation-free test guards the other axis).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("x_seconds", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(123 * time.Microsecond)
		}
	})
}

// TestRegistryOpenMetricsRoundTrip: WriteOpenMetrics carries bucket
// exemplars that promtext parses back with the attached trace id, ends
// with # EOF, and agrees with the classic exposition on every count —
// while WriteText stays byte-identical to a registry without exemplars
// (classic scrapes must never see the suffixes).
func TestRegistryOpenMetricsRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("om_ops_total", "ops").Add(3)
	h := reg.Histogram("om_lat_seconds", "latency")
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	h.Observe(2 * time.Millisecond)
	h.ObserveExemplar(5*time.Millisecond, tid)

	var classic bytes.Buffer
	if err := reg.WriteText(&classic); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(classic.Bytes(), []byte("trace_id")) || bytes.Contains(classic.Bytes(), []byte("# EOF")) {
		t.Fatalf("classic exposition leaked OpenMetrics syntax:\n%s", classic.String())
	}

	var om bytes.Buffer
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(om.Bytes(), []byte("# EOF\n")) {
		t.Fatalf("OpenMetrics exposition does not end with # EOF:\n%s", om.String())
	}
	fams, err := Parse(bytes.NewReader(om.Bytes()))
	if err != nil {
		t.Fatalf("OpenMetrics output does not parse: %v\n%s", err, om.String())
	}
	var hist *Family
	for i := range fams {
		if fams[i].Name == "om_lat_seconds" {
			hist = &fams[i]
		}
	}
	if hist == nil {
		t.Fatalf("histogram family missing:\n%s", om.String())
	}
	ph, err := hist.AsHistogram()
	if err != nil {
		t.Fatal(err)
	}
	if snap := h.Snapshot(); ph != snap || ph.Count != 2 {
		t.Fatalf("parsed histogram %+v, want the live snapshot %+v with count 2", ph, snap)
	}
	var found *Exemplar
	for _, s := range hist.Samples {
		if s.Exemplar != nil {
			if found != nil {
				t.Fatalf("more than one exemplar:\n%s", om.String())
			}
			found = s.Exemplar
		}
	}
	if found == nil {
		t.Fatalf("no exemplar parsed back:\n%s", om.String())
	}
	if found.TraceID() != tid {
		t.Fatalf("exemplar trace id %q, want %q", found.TraceID(), tid)
	}
	if math.Abs(found.Value-0.005) > 1e-9 || !found.HasTs {
		t.Fatalf("exemplar value/ts = %v (hasTs %v)", found.Value, found.HasTs)
	}
	// The exemplar sits on the bucket its observation landed in.
	tidDur := 5 * time.Millisecond
	gotID, gotV, _, ok := h.BucketExemplar(bucketIndex(tidDur.Nanoseconds()))
	if !ok || gotID != tid || math.Abs(gotV-0.005) > 1e-9 {
		t.Fatalf("BucketExemplar = %q/%v/%v, want %q/0.005/true", gotID, gotV, ok, tid)
	}
}
