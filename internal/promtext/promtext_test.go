package promtext

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// layoutBuckets renders a histogram's _bucket lines in the shared
// layout: counts[i] observations fall in bucket i of BucketBounds()
// (index len(BucketBounds()) is +Inf), and suffix[i], if set, ends
// bucket i's line.
func layoutBuckets(name string, counts map[int]uint64, suffix map[int]string) string {
	var b strings.Builder
	bounds := BucketBounds()
	var cum uint64
	for i := 0; i <= len(bounds); i++ {
		cum += counts[i]
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		fmt.Fprintf(&b, "%s_bucket{le=%q} %d%s\n", name, le, cum, suffix[i])
	}
	return b.String()
}

// latCounts puts 24, 9 and 67 observations in buckets 5, 6 and 7
// (le 32.768µs, 65.536µs, 131.072µs) and 44 beyond the last bound.
var latCounts = map[int]uint64{5: 24, 6: 9, 7: 67, len(BucketBounds()): 44}

var doc = `# HELP http_requests_total Requests with a\nnewline and a back\\slash.
# TYPE http_requests_total counter
http_requests_total{method="post",code="200"} 1027
http_requests_total{method="get",path="/a\"b\\c"} 3

# TYPE up gauge
up 1

# HELP lat_seconds request latency
# TYPE lat_seconds histogram
` + layoutBuckets("lat_seconds", latCounts, nil) + `lat_seconds_sum 53.42
lat_seconds_count 144

untyped_sample 7 1712345678
`

func TestParse(t *testing.T) {
	fams, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	req := byName["http_requests_total"]
	if req.Type != "counter" || len(req.Samples) != 2 {
		t.Fatalf("counter family %+v", req)
	}
	if want := "Requests with a\nnewline and a back\\slash."; req.Help != want {
		t.Fatalf("HELP unescape got %q, want %q", req.Help, want)
	}
	if req.Samples[0].Labels["method"] != "post" || req.Samples[0].Value != 1027 {
		t.Fatalf("sample %+v", req.Samples[0])
	}
	if got := req.Samples[1].Labels["path"]; got != `/a"b\c` {
		t.Fatalf("label value unescape got %q", got)
	}

	if up := byName["up"]; up.Type != "gauge" || up.Samples[0].Value != 1 {
		t.Fatalf("gauge family %+v", up)
	}
	// The timestamped, untyped sample forms its own family.
	if u := byName["untyped_sample"]; u.Type != "" || u.Samples[0].Value != 7 {
		t.Fatalf("untyped family %+v", u)
	}

	h, err := byName["lat_seconds"].AsHistogram()
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 144 || h.SumSec != 53.42 {
		t.Fatalf("histogram totals %+v", h)
	}
	for b, c := range h.Buckets {
		if c != latCounts[b] {
			t.Fatalf("bucket %d holds %d, want %d", b, c, latCounts[b])
		}
	}
	// p50: rank 72 falls in bucket 7, (65.536µs, 131.072µs], 33 before
	// it, 67 in it.
	want := 65.536e-6 + 65.536e-6*(72.0-33.0)/67.0
	if got := h.Quantile(0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	// p99: rank beyond the last finite cumulative degrades to the last
	// finite bound.
	last := BucketBounds()[len(BucketBounds())-1]
	if got := h.Quantile(0.99); got != last {
		t.Fatalf("p99 = %v, want last finite bound %v", got, last)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"metric_no_value\n",
		"metric 1 2 3\n",
		"metric{le=\"0.1} 1\n", // unterminated label value
		"metric{le=0.1} 1\n",   // unquoted label value
		"metric notanumber\n",  // bad value
		"{le=\"0.1\"} 1\n",     // no metric name
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) accepted a malformed line", bad)
		}
	}
	// Valid oddities that must NOT error.
	for _, ok := range []string{
		"",
		"\n\n",
		"# just a comment\n",
		"m_inf +Inf\n",
		"m_neg -42.5\n",
	} {
		if _, err := Parse(strings.NewReader(ok)); err != nil {
			t.Errorf("Parse(%q) = %v, want nil", ok, err)
		}
	}
}

func TestAsHistogramErrors(t *testing.T) {
	for _, c := range []struct{ what, doc, want string }{
		{"a gauge family", "# TYPE g gauge\ng 1\n", "not histogram"},
		{"no +Inf bucket", "# TYPE h histogram\n" +
			strings.TrimSuffix(layoutBuckets("h", map[int]uint64{3: 3}, nil), "h_bucket{le=\"+Inf\"} 3\n"),
			"no +Inf bucket"},
		{"decreasing cumulative counts", "# TYPE h histogram\n" +
			strings.Replace(layoutBuckets("h", map[int]uint64{3: 5}, nil), "le=\"1.6384e-05\"} 5", "le=\"1.6384e-05\"} 3", 1),
			"decrease at bucket 4"},
		{"a foreign layout", "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 5\nh_bucket{le=\"+Inf\"} 5\n",
			"le=1 is not in the shared bucket layout"},
		{"a missing shared bucket", "# TYPE h histogram\n" +
			strings.Replace(layoutBuckets("h", map[int]uint64{3: 3}, nil), "h_bucket{le=\"2.048e-06\"} 0\n", "", 1),
			"lacks the shared bucket le=2.048e-06"},
	} {
		fams, err := Parse(strings.NewReader(c.doc))
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if _, err := fams[0].AsHistogram(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("AsHistogram on %s: err %v, want one naming %q", c.what, err, c.want)
		}
	}
}

// openMetricsDoc carries exemplars on bucket 16 (le 67.108864ms) and
// on +Inf.
var openMetricsDoc = `# HELP lat_seconds request latency
# TYPE lat_seconds histogram
` + layoutBuckets("lat_seconds",
	map[int]uint64{16: 24, 17: 9, len(BucketBounds()): 111},
	map[int]string{
		16:                  ` # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.043 1712345678.500`,
		len(BucketBounds()): ` # {trace_id="00f067aa0ba902b700f067aa0ba902b7"} 9.1`,
	}) + `lat_seconds_sum 53.42
lat_seconds_count 144
# EOF
`

// TestParseOpenMetricsExemplars: the OpenMetrics dialect — exemplar
// suffixes on bucket lines and the trailing # EOF — parses with the
// exemplars attached to their samples, and the plain fields agree with
// the classic parse.
func TestParseOpenMetricsExemplars(t *testing.T) {
	fams, err := Parse(strings.NewReader(openMetricsDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("got %d families, want 1", len(fams))
	}
	f := fams[0]
	h, err := f.AsHistogram()
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 144 || h.SumSec != 53.42 {
		t.Fatalf("histogram count/sum = %d/%v", h.Count, h.SumSec)
	}
	var got []*Exemplar
	for _, s := range f.Samples {
		if s.Exemplar != nil {
			got = append(got, s.Exemplar)
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %d exemplars, want 2", len(got))
	}
	first := got[0]
	if first.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("first exemplar trace id %q", first.TraceID())
	}
	if first.Value != 0.043 || !first.HasTs || first.Ts != 1712345678.500 {
		t.Fatalf("first exemplar value/ts = %v/%v (hasTs %v)", first.Value, first.Ts, first.HasTs)
	}
	second := got[1]
	if second.TraceID() != "00f067aa0ba902b700f067aa0ba902b7" || second.HasTs {
		t.Fatalf("second exemplar = %+v", second)
	}
}

// TestParseExemplarErrors: malformed exemplar suffixes fail loudly.
func TestParseExemplarErrors(t *testing.T) {
	for _, doc := range []string{
		"x_bucket{le=\"1\"} 3 # 0.5\n",                   // no label block
		"x_bucket{le=\"1\"} 3 # {trace_id=\"a\"}\n",      // no value
		"x_bucket{le=\"1\"} 3 # {trace_id=\"a\"} nan2\n", // bad value
		"x_bucket{le=\"1\"} 3 # {trace_id=\"a\"} 1 2 3\n",
	} {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("doc %q parsed, want error", doc)
		}
	}
}

// TestParseHashInsideLabelValue: a '#' inside a quoted label value is
// data, not an exemplar separator.
func TestParseHashInsideLabelValue(t *testing.T) {
	fams, err := Parse(strings.NewReader("weird{path=\"/a # b\"} 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := fams[0].Samples[0]
	if s.Labels["path"] != "/a # b" || s.Value != 1 || s.Exemplar != nil {
		t.Fatalf("sample = %+v", s)
	}
}
