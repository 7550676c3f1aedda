package load

import (
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oms/internal/promtext"
	"oms/internal/slo"
)

// Class is one traffic class the harness drives and reports on.
// Schedulable classes appear in profile MIX weights; create, finish,
// and delete are lifecycle classes the driver issues when session state
// demands them, recorded under their own histograms all the same.
type Class string

const (
	ClassCreate    Class = "create"
	ClassPush      Class = "push"
	ClassBatch     Class = "batch"
	ClassWire      Class = "wire"      // binary-frame /nodes ingest
	ClassWireBatch Class = "wirebatch" // binary-frame /batch ingest
	ClassAdaptive  Class = "adaptive"
	ClassFinish    Class = "finish"
	ClassRefine    Class = "refine"
	ClassStatus    Class = "status"
	ClassResult    Class = "result"
	ClassDelete    Class = "delete"
)

// Classes lists every class in report order.
var Classes = []Class{
	ClassCreate, ClassPush, ClassBatch, ClassWire, ClassWireBatch,
	ClassAdaptive, ClassFinish, ClassRefine, ClassStatus, ClassResult,
	ClassDelete,
}

var schedulable = map[Class]bool{
	ClassPush:      true,
	ClassBatch:     true,
	ClassWire:      true,
	ClassWireBatch: true,
	ClassAdaptive:  true,
	ClassRefine:    true,
	ClassStatus:    true,
	ClassResult:    true,
}

// MetricName is the class's client-side latency series:
// omsload_<class>_seconds, mirroring the server's omsd_http_* naming so
// the two views cross-check by suffix.
func (c Class) MetricName() string { return "omsload_" + string(c) + "_seconds" }

// Aliases maps threshold-key shorthands to the client series, the
// omsload counterpart of omsstat's server-side alias table.
func Aliases() map[string]string {
	m := make(map[string]string, len(Classes))
	for _, c := range Classes {
		m[string(c)] = c.MetricName()
	}
	return m
}

// classRec is one class's tallies: the latency histogram plus hard
// errors (transport failures, timeouts, HTTP 5xx — the server failing)
// and rejections (HTTP 4xx — the driver racing session churn; expected
// to be rare and reported separately so they cannot mask server
// failures nor inflate them).
type classRec struct {
	hist     *promtext.Histogram
	count    atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64
}

// Recorder accumulates per-class results. Observe is what the op
// goroutines hit concurrently: one lock-free histogram observe plus
// atomic counters.
type Recorder struct {
	reg     *promtext.Registry
	classes map[Class]*classRec

	Inflight atomic.Int64
	Aborted  atomic.Int64 // ops cut off by shutdown before their request started
}

// NewRecorder registers one histogram per class.
func NewRecorder() *Recorder {
	r := &Recorder{reg: promtext.NewRegistry(), classes: make(map[Class]*classRec, len(Classes))}
	for _, c := range Classes {
		r.classes[c] = &classRec{
			hist: r.reg.Histogram(c.MetricName(), "client latency of "+string(c)+" ops, from intended start"),
		}
	}
	return r
}

// Outcome classifies one completed op.
type Outcome int

const (
	OutcomeOK Outcome = iota
	OutcomeError
	OutcomeRejected
)

// Observe records one completed op: latency measured from the op's
// intended start (never from the actual send — lateness is the signal).
func (r *Recorder) Observe(c Class, latency time.Duration, out Outcome) {
	rec := r.classes[c]
	rec.hist.Observe(latency)
	rec.count.Add(1)
	switch out {
	case OutcomeError:
		rec.errors.Add(1)
	case OutcomeRejected:
		rec.rejected.Add(1)
	}
}

// ClassSummary is one class's summary.json row.
type ClassSummary struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Rejected int64   `json:"rejected,omitempty"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

// Summary is omsload's summary.json document: the omsstat envelope
// (histograms keyed by series name, thresholds, ok, partial) plus the
// load-side totals and the per-class view in milliseconds.
type Summary struct {
	URL         string                      `json:"url"`
	Profile     string                      `json:"profile"`
	DurationSec float64                     `json:"duration_sec"`
	Partial     bool                        `json:"partial,omitempty"`
	Intended    int64                       `json:"intended_requests"`
	Completed   int64                       `json:"completed_requests"`
	Errors      int64                       `json:"error_requests"`
	Rejected    int64                       `json:"rejected_requests,omitempty"`
	Aborted     int64                       `json:"aborted_requests,omitempty"`
	AchievedRPS float64                     `json:"achieved_rps"`
	Sessions    SessionTotals               `json:"sessions"`
	Histograms  map[string]promtext.Summary `json:"histograms"`
	Classes     map[string]ClassSummary     `json:"classes"`
	Thresholds  []slo.Result                `json:"thresholds,omitempty"`
	OK          bool                        `json:"ok"`
}

// SessionTotals is the session-churn ledger of one run.
type SessionTotals struct {
	Created  int64 `json:"created"`
	Finished int64 `json:"finished"`
	Deleted  int64 `json:"deleted"`
	Live     int64 `json:"live_at_end"`
}

// Summarize folds the recorder into the summary document and evaluates
// thresholds over the client histograms. An unresolvable threshold key
// is an error (exit 2 at the CLI, like omsstat).
func (r *Recorder) Summarize(ths []slo.Threshold) (map[string]promtext.Summary, map[string]ClassSummary, []slo.Result, bool, error) {
	hists := make(map[string]promtext.Summary, len(Classes))
	classes := make(map[string]ClassSummary, len(Classes))
	snaps := make(map[string]promtext.HistogramSnapshot, len(Classes))
	for _, c := range Classes {
		rec := r.classes[c]
		n := rec.count.Load()
		if n == 0 {
			continue
		}
		s := rec.hist.Snapshot()
		snaps[c.MetricName()] = s
		row := s.Summary()
		hists[c.MetricName()] = row
		cs := ClassSummary{
			Requests: n,
			Errors:   rec.errors.Load(),
			Rejected: rec.rejected.Load(),
			P50Ms:    row.P50 * 1000,
			P95Ms:    row.P95 * 1000,
			P99Ms:    row.P99 * 1000,
		}
		if s.Count > 0 {
			cs.MeanMs = s.SumSec / float64(s.Count) * 1000
		}
		classes[string(c)] = cs
	}

	aliases := Aliases()
	var results []slo.Result
	ok := true
	for _, th := range ths {
		key, err := slo.ParseKey(th.Key, aliases)
		if err != nil {
			return nil, nil, nil, false, err
		}
		s, present := snaps[key.Metric]
		if !present {
			return nil, nil, nil, false, fmt.Errorf("threshold %q: no %s observations in this run", th.Key, key.Metric)
		}
		res := th.Check(key.Metric, key.Scale(s.Quantile(key.Quantile)))
		if !res.OK {
			ok = false
		}
		results = append(results, res)
	}
	return hists, classes, results, ok, nil
}

// Totals reports completed / hard-error / rejected counts across all
// classes.
func (r *Recorder) Totals() (completed, errors, rejected int64) {
	for _, c := range Classes {
		rec := r.classes[c]
		completed += rec.count.Load()
		errors += rec.errors.Load()
		rejected += rec.rejected.Load()
	}
	return
}

// csvSampler appends one wide row per tick to samples.csv: cumulative
// per-class counts and errors, plus instantaneous inflight and live
// session gauges. Rows are flushed as written, so an interrupted run
// keeps everything sampled before the signal.
type csvSampler struct {
	f    *os.File
	w    *csv.Writer
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// StartCSV opens path, writes the header, and samples every interval
// until Stop. live reports the driver's current session population.
func (r *Recorder) StartCSV(path string, every time.Duration, live func() int64) (*csvSampler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &csvSampler{f: f, w: csv.NewWriter(f), stop: make(chan struct{}), done: make(chan struct{})}
	header := []string{"ts_unix_ms"}
	for _, c := range Classes {
		header = append(header, "omsload_"+string(c)+"_count", "omsload_"+string(c)+"_errors")
	}
	header = append(header, "omsload_inflight", "omsload_live_sessions")
	if err := s.w.Write(header); err != nil {
		f.Close()
		return nil, err
	}
	s.w.Flush()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample(r, live)
			}
		}
	}()
	return s, nil
}

func (s *csvSampler) sample(r *Recorder, live func() int64) {
	row := make([]string, 0, 2*len(Classes)+3)
	row = append(row, strconv.FormatInt(time.Now().UnixMilli(), 10))
	for _, c := range Classes {
		rec := r.classes[c]
		row = append(row,
			strconv.FormatInt(rec.count.Load(), 10),
			strconv.FormatInt(rec.errors.Load(), 10))
	}
	row = append(row,
		strconv.FormatInt(r.Inflight.Load(), 10),
		strconv.FormatInt(live(), 10))
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.w.Write(row)
	s.w.Flush()
}

// Stop takes a final sample, flushes, and closes the file.
func (s *csvSampler) Stop(r *Recorder, live func() int64) error {
	close(s.stop)
	<-s.done
	s.sample(r, live)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Flush()
	if err := s.w.Error(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
