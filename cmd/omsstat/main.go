// Command omsstat samples an omsd /metrics endpoint and turns the
// scrapes into an SLO verdict: a wide-format samples.csv (one row per
// scrape, one column per series), a summary.json with per-histogram
// p50/p95/p99 and per-gauge percentiles, and a nonzero exit when a
// -thresholds bound is violated or a -require'd histogram is missing
// or empty.
//
// Examples:
//
//	omsstat -url http://localhost:7600/metrics -samples 10 -interval 500ms -out stat/
//	omsstat -url http://localhost:7600/metrics -thresholds 'push_p99_ms<5,backlog_p95<100'
//	omsstat -url http://localhost:7600/metrics -require omsd_http_push_seconds,omsd_wal_fsync_seconds
//	omsstat -url http://localhost:7600/metrics -wait-ready 15s -samples 30 -interval 2s
//
// The threshold grammar (<metric>_p<NN>[_ms], shared with omsload via
// internal/slo) accepts both 'key<limit' and legacy 'key=limit'.
// SIGINT/SIGTERM ends the scrape loop early but still writes
// samples.csv and a summary.json marked "partial": true over whatever
// was collected.
//
// Exit codes: 0 all thresholds and requirements hold, 1 at least one
// violated, 2 usage or network error.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oms/internal/load"
	"oms/internal/promtext"
	"oms/internal/slo"
)

func main() {
	var (
		url        = flag.String("url", "http://localhost:7600/metrics", "metrics endpoint to sample")
		interval   = flag.Duration("interval", 500*time.Millisecond, "delay between scrapes")
		samples    = flag.Int("samples", 5, "number of scrapes")
		out        = flag.String("out", ".", "directory for samples.csv and summary.json")
		thresholds = flag.String("thresholds", "", "comma-separated bounds, e.g. 'push_p99_ms<5,backlog_p95<100'")
		require    = flag.String("require", "", "comma-separated histogram names that must exist with count > 0")
		waitReady  = flag.Duration("wait-ready", 0, "poll the daemon's /v1/readyz with backoff up to this long before sampling (0 = skip)")
	)
	flag.Parse()

	cfg := config{
		url:       *url,
		interval:  *interval,
		samples:   *samples,
		outDir:    *out,
		waitReady: *waitReady,
		stdout:    os.Stdout,
		stderr:    os.Stderr,
	}
	var err error
	if cfg.thresholds, err = slo.ParseThresholds(*thresholds); err != nil {
		fmt.Fprintln(os.Stderr, "omsstat:", err)
		os.Exit(2)
	}
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.require = append(cfg.require, name)
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, cfg))
}

type config struct {
	url        string
	interval   time.Duration
	samples    int
	outDir     string
	thresholds []slo.Threshold
	require    []string
	waitReady  time.Duration
	client     *http.Client // nil = http.DefaultClient
	stdout     io.Writer
	stderr     io.Writer
}

// scrape is one polled exposition document with its wall-clock instant.
type scrape struct {
	at   time.Time
	fams map[string]promtext.Family
}

// summary is the summary.json document.
type summary struct {
	URL        string                      `json:"url"`
	Samples    int                         `json:"samples"`
	IntervalMS float64                     `json:"interval_ms"`
	Partial    bool                        `json:"partial,omitempty"`
	Histograms map[string]promtext.Summary `json:"histograms"`
	Gauges     map[string]gaugeSummary     `json:"gauges"`
	Counters   map[string]ctrSummary       `json:"counters"`
	Exemplars  int                         `json:"exemplars"`
	Thresholds []thresholdResult           `json:"thresholds,omitempty"`
	Require    []requireResult             `json:"require,omitempty"`
	OK         bool                        `json:"ok"`
}

// thresholdResult is one threshold verdict, annotated — when the bound
// is breached and the metric's buckets carry exemplars — with the trace
// ids of the slowest exemplared observations, so the operator can jump
// straight from a violated p99 to GET /v1/traces/{id}.
type thresholdResult struct {
	slo.Result
	SlowTraces []slowTrace `json:"slow_traces,omitempty"`
}

// slowTrace is one exemplar reference: the trace id and the observed
// latency (seconds) that landed it in the bucket.
type slowTrace struct {
	TraceID string  `json:"trace_id"`
	Seconds float64 `json:"seconds"`
}

// gaugeSummary aggregates one gauge series over the scrape sequence.
type gaugeSummary struct {
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	P95  float64 `json:"p95"`
	Last float64 `json:"last"`
}

// ctrSummary tracks a counter's growth across the scrape window.
type ctrSummary struct {
	First      float64 `json:"first"`
	Last       float64 `json:"last"`
	RatePerSec float64 `json:"rate_per_sec"`
}

type requireResult struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	OK    bool   `json:"ok"`
}

func run(ctx context.Context, cfg config) int {
	if cfg.samples < 1 || cfg.url == "" {
		fmt.Fprintln(cfg.stderr, "omsstat: need -url and -samples >= 1")
		return 2
	}
	client := cfg.client
	if client == nil {
		client = http.DefaultClient
	}
	if cfg.waitReady > 0 {
		base, err := load.ReadyBase(cfg.url)
		if err != nil {
			fmt.Fprintln(cfg.stderr, "omsstat:", err)
			return 2
		}
		if err := load.WaitReady(ctx, client, base, cfg.waitReady); err != nil {
			fmt.Fprintln(cfg.stderr, "omsstat:", err)
			return 2
		}
	}

	// A signal mid-loop stops sampling but not reporting: the scrapes
	// already collected still become samples.csv and a partial summary.
	partial := false
	scrapes := make([]scrape, 0, cfg.samples)
	for i := 0; i < cfg.samples; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(cfg.interval):
			}
		}
		if ctx.Err() != nil {
			partial = true
			break
		}
		sc, err := fetch(client, cfg.url)
		if err != nil {
			fmt.Fprintln(cfg.stderr, "omsstat:", err)
			return 2
		}
		scrapes = append(scrapes, sc)
	}
	if len(scrapes) == 0 {
		fmt.Fprintln(cfg.stderr, "omsstat: interrupted before the first scrape")
		return 2
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(cfg.stderr, "omsstat:", err)
		return 2
	}
	if err := writeCSV(filepath.Join(cfg.outDir, "samples.csv"), scrapes); err != nil {
		fmt.Fprintln(cfg.stderr, "omsstat:", err)
		return 2
	}

	sum, err := summarize(cfg, scrapes)
	if err != nil {
		fmt.Fprintln(cfg.stderr, "omsstat:", err)
		return 2
	}
	sum.Partial = partial
	if err := slo.WriteJSON(filepath.Join(cfg.outDir, "summary.json"), sum); err != nil {
		fmt.Fprintln(cfg.stderr, "omsstat:", err)
		return 2
	}

	report(cfg.stdout, sum)
	if !sum.OK {
		return 1
	}
	return 0
}

func fetch(client *http.Client, url string) (scrape, error) {
	at := time.Now()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return scrape{}, err
	}
	// Ask for OpenMetrics so histogram buckets carry trace-id exemplars;
	// a daemon that only speaks classic Prometheus text ignores this and
	// everything below still parses.
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := client.Do(req)
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		return scrape{}, fmt.Errorf("GET %s: %w", url, err)
	}
	sc := scrape{at: at, fams: make(map[string]promtext.Family, len(fams))}
	for _, f := range fams {
		sc.fams[f.Name] = f
	}
	return sc, nil
}

// writeCSV writes the wide-format sample table: ts_unix_ms plus one
// column per non-bucket series, the union over every scrape, sorted,
// empty cell where a series had not appeared yet.
func writeCSV(path string, scrapes []scrape) error {
	cols := map[string]bool{}
	for _, sc := range scrapes {
		for _, f := range sc.fams {
			for _, s := range f.Samples {
				if !strings.HasSuffix(s.Name, "_bucket") {
					cols[s.Name] = true
				}
			}
		}
	}
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	sort.Strings(names)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	w.Write(append([]string{"ts_unix_ms"}, names...))
	for _, sc := range scrapes {
		row := make([]string, 0, 1+len(names))
		row = append(row, strconv.FormatInt(sc.at.UnixMilli(), 10))
		vals := map[string]float64{}
		for _, fam := range sc.fams {
			for _, s := range fam.Samples {
				vals[s.Name] = s.Value
			}
		}
		for _, n := range names {
			if v, ok := vals[n]; ok {
				row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		w.Write(row)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func summarize(cfg config, scrapes []scrape) (*summary, error) {
	last := scrapes[len(scrapes)-1]
	sum := &summary{
		URL:        cfg.url,
		Samples:    len(scrapes),
		IntervalMS: float64(cfg.interval) / float64(time.Millisecond),
		Histograms: map[string]promtext.Summary{},
		Gauges:     map[string]gaugeSummary{},
		Counters:   map[string]ctrSummary{},
		OK:         true,
	}
	// Histograms summarize the final scrape (cumulative state); gauges
	// and counters aggregate the whole sequence.
	hists := map[string]promtext.HistogramSnapshot{}
	for name, fam := range last.fams {
		switch fam.Type {
		case "histogram":
			h, err := fam.AsHistogram()
			if err != nil {
				return nil, err
			}
			hists[name] = h
			sum.Histograms[name] = h.Summary()
		case "gauge":
			for _, s := range fam.Samples {
				vals := seriesValues(scrapes, s.Name)
				sum.Gauges[s.Name] = gaugeSummary{
					Min:  sliceMin(vals),
					Max:  sliceMax(vals),
					Mean: sliceMean(vals),
					P95:  slo.Percentile(vals, 0.95),
					Last: vals[len(vals)-1],
				}
			}
		case "counter":
			for _, s := range fam.Samples {
				vals := seriesValues(scrapes, s.Name)
				c := ctrSummary{First: vals[0], Last: vals[len(vals)-1]}
				if window := last.at.Sub(scrapes[0].at).Seconds(); window > 0 {
					c.RatePerSec = (c.Last - c.First) / window
				}
				sum.Counters[s.Name] = c
			}
		}
	}

	for _, name := range cfg.require {
		r := requireResult{Name: name}
		if h, ok := hists[name]; ok {
			r.Count = h.Count
			r.OK = h.Count > 0
		}
		if !r.OK {
			sum.OK = false
		}
		sum.Require = append(sum.Require, r)
	}
	for _, fam := range last.fams {
		for _, s := range fam.Samples {
			if s.Exemplar != nil {
				sum.Exemplars++
			}
		}
	}
	for _, th := range cfg.thresholds {
		metric, value, err := resolve(th.Key, hists, scrapes)
		if err != nil {
			return nil, err
		}
		r := thresholdResult{Result: th.Check(metric, value)}
		if !r.OK {
			sum.OK = false
			r.SlowTraces = slowTraces(last.fams[metric], 3)
		}
		sum.Thresholds = append(sum.Thresholds, r)
	}
	return sum, nil
}

// slowTraces collects the metric's bucket exemplars, slowest first,
// deduplicated by trace id, capped at max. Empty when the scrape was
// classic Prometheus text or no exemplared observation landed yet.
func slowTraces(fam promtext.Family, max int) []slowTrace {
	var out []slowTrace
	seen := map[string]bool{}
	for _, s := range fam.Samples {
		if s.Exemplar == nil {
			continue
		}
		if tid := s.Exemplar.TraceID(); tid != "" && !seen[tid] {
			seen[tid] = true
			out = append(out, slowTrace{TraceID: tid, Seconds: s.Exemplar.Value})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// aliases maps the short stage names accepted in threshold keys to the
// metric series they stand for.
var aliases = map[string]string{
	"push":       "omsd_http_push_seconds",
	"batch":      "omsd_http_batch_seconds",
	"finish":     "omsd_http_finish_seconds",
	"refine":     "omsd_http_refine_seconds",
	"queue_wait": "omsd_queue_wait_seconds",
	"assign":     "omsd_assign_seconds",
	"append":     "omsd_wal_append_seconds",
	"fsync":      "omsd_wal_fsync_seconds",
	"backlog":    "omsd_queue_backlog",
	"runqueue":   "omsd_pool_runqueue",
}

// resolve turns a threshold key like push_p99_ms, fsync_p99_ms, or
// backlog_p95 into (metric name, statistic value) via the shared slo
// grammar. Histograms take the quantile from their buckets; anything
// else takes it over the per-scrape sampled values.
func resolve(key string, hists map[string]promtext.HistogramSnapshot, scrapes []scrape) (string, float64, error) {
	k, err := slo.ParseKey(key, aliases)
	if err != nil {
		return "", 0, err
	}
	var value float64
	if h, ok := hists[k.Metric]; ok {
		value = h.Quantile(k.Quantile)
	} else {
		vals := seriesValues(scrapes, k.Metric)
		if len(vals) == 0 {
			return "", 0, fmt.Errorf("threshold key %q: metric %s not present in any scrape", key, k.Metric)
		}
		value = slo.Percentile(vals, k.Quantile)
	}
	return k.Metric, k.Scale(value), nil
}

// seriesValues collects one series' value from every scrape it appears
// in, in scrape order.
func seriesValues(scrapes []scrape, name string) []float64 {
	var out []float64
	for _, sc := range scrapes {
		for _, fam := range sc.fams {
			for _, s := range fam.Samples {
				if s.Name == name {
					out = append(out, s.Value)
				}
			}
		}
	}
	return out
}

func sliceMin(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func sliceMax(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func sliceMean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// report prints the human-facing verdict: one line per threshold and
// requirement, then the overall result.
func report(w io.Writer, sum *summary) {
	for _, r := range sum.Require {
		status := "ok"
		if !r.OK {
			status = "MISSING"
		}
		fmt.Fprintf(w, "require %-36s count=%-8d %s\n", r.Name, r.Count, status)
	}
	for _, r := range sum.Thresholds {
		status := "ok"
		if !r.OK {
			status = "VIOLATED"
		}
		fmt.Fprintf(w, "threshold %-24s %s = %.4g (limit %.4g) %s\n", r.Key, r.Metric, r.Value, r.Limit, status)
		for _, st := range r.SlowTraces {
			fmt.Fprintf(w, "  slow trace %s (%.4gs)\n", st.TraceID, st.Seconds)
		}
	}
	switch {
	case sum.OK && sum.Partial:
		fmt.Fprintf(w, "omsstat: ok [partial] (%d scrapes, %d histograms)\n", sum.Samples, len(sum.Histograms))
	case sum.OK:
		fmt.Fprintf(w, "omsstat: ok (%d scrapes, %d histograms)\n", sum.Samples, len(sum.Histograms))
	default:
		fmt.Fprintf(w, "omsstat: FAILED\n")
	}
}
