package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage inside a trace. Dur for aggregate spans
// (assign, wal.append) is summed busy time, so a span always fits
// inside its parent's wall-clock interval even when the underlying
// micro-operations interleave with other stages.
type Span struct {
	Name   string        `json:"name"`
	ID     SpanID        `json:"span_id"`
	Parent SpanID        `json:"parent_id"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Err    string        `json:"err,omitempty"`
}

// Trace is one recorded span tree. Spans[0] is the root span; its
// Parent is the remote caller's span id when the request arrived with
// a traceparent, zero otherwise. Spans holds at most MaxSpans spans;
// Dropped counts the ones recorded past that.
type Trace struct {
	ID      TraceID       `json:"trace_id"`
	Root    string        `json:"root"`
	Status  int           `json:"status,omitempty"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Err     string        `json:"err,omitempty"`
	Flight  bool          `json:"flight,omitempty"`
	Spans   []Span        `json:"spans"`
	Dropped int           `json:"dropped_spans,omitempty"`
}

// MaxSpans caps the spans one trace keeps, root included. A request
// records a few spans per chunk it ingests, so an open ingest stream
// that lives for thousands of pushes would otherwise hold them all in
// the ring for as long as it is retained.
const MaxSpans = 256

// Summary is one GET /v1/traces index row.
type Summary struct {
	ID     TraceID       `json:"trace_id"`
	Root   string        `json:"root"`
	Status int           `json:"status,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Err    string        `json:"err,omitempty"`
	Flight bool          `json:"flight,omitempty"`
	Spans  int           `json:"spans"`
}

// Options configures a Recorder. Zero values pick sane defaults.
type Options struct {
	// RingSize is the main-ring capacity in traces: the ring keeps
	// the newest RingSize. Default 2048.
	RingSize int
	// FlightSize is the flight-recorder capacity. The flight ring is
	// written only by error/slow traces, so it wraps far slower than
	// the main ring. Default 256.
	FlightSize int
	// SampleEvery head-samples one in N requests that arrive without
	// a traceparent. Requests that carry one follow its sampled flag
	// deterministically. <=0 disables spontaneous sampling. Default 16.
	SampleEvery int
	// SlowThreshold marks traces at or over this duration for flight
	// retention regardless of status. 0 disables the latency trigger.
	SlowThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.RingSize <= 0 {
		o.RingSize = 2048
	}
	if o.FlightSize <= 0 {
		o.FlightSize = 256
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 16
	}
	return o
}

// ring is a fixed slot array written round-robin through one atomic
// position counter, so it holds exactly the newest len(slots) traces.
// Writers never block; a reader sees each slot's latest published trace.
type ring struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[Trace]
}

func newRing(size int) *ring {
	return &ring{slots: make([]atomic.Pointer[Trace], size)}
}

func (r *ring) put(t *Trace) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

func (r *ring) snapshot(out []*Trace) []*Trace {
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Recorder owns the two rings and the head-sampling decision. A nil
// *Recorder is valid and records nothing.
type Recorder struct {
	opts   Options
	main   *ring
	flight *ring
	seq    atomic.Uint64
}

// NewRecorder builds a recorder with the given options.
func NewRecorder(o Options) *Recorder {
	o = o.withDefaults()
	return &Recorder{opts: o, main: newRing(o.RingSize), flight: newRing(o.FlightSize)}
}

// SlowThreshold reports the configured flight latency trigger.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.opts.SlowThreshold
}

// Start makes the head-sampling decision for one request and, when
// sampled, opens a trace rooted at a span called name. A request that
// arrived with a traceparent (hasParent) follows its sampled flag
// deterministically — upstream decided; everything else is sampled
// 1-in-SampleEvery. Returns nil when the request is not sampled: the
// nil Active is the zero-allocation fast path.
func (r *Recorder) Start(parent Context, hasParent bool, name string, start time.Time) *Active {
	if r == nil {
		return nil
	}
	if hasParent {
		if !parent.Sampled() {
			return nil
		}
	} else if r.opts.SampleEvery <= 0 || r.seq.Add(1)%uint64(r.opts.SampleEvery) != 0 {
		return nil
	}
	a := &Active{rec: r}
	a.tr.ID = parent.TraceID
	if a.tr.ID.IsZero() {
		a.tr.ID = NewTraceID()
	}
	a.tr.Root = name
	a.tr.Start = start
	root := Span{Name: name, ID: NewSpanID(), Parent: parent.SpanID, Start: start}
	a.tr.Spans = append(make([]Span, 0, 8), root)
	return a
}

// Active is an in-flight trace being built. All methods are safe on a
// nil receiver (the sampled-out path) and safe for concurrent use —
// the HTTP goroutine and the session worker both record spans.
type Active struct {
	rec      *Recorder
	mu       sync.Mutex
	finished bool
	tr       Trace
}

// Context returns the propagation context for work done on behalf of
// this trace: same trace id, the root span as parent, sampled set.
func (a *Active) Context() Context {
	if a == nil {
		return Context{}
	}
	a.mu.Lock()
	c := Context{TraceID: a.tr.ID, SpanID: a.tr.Spans[0].ID, Flags: FlagSampled}
	a.mu.Unlock()
	return c
}

// Root returns the root span's id — the parent for stage spans.
func (a *Active) Root() SpanID {
	if a == nil {
		return SpanID{}
	}
	return a.tr.Spans[0].ID // written once in Start, before publication
}

// TraceIDString returns the hex trace id, or "" on the sampled-out
// path — the form event-log and job-status stamping wants.
func (a *Active) TraceIDString() string {
	if a == nil {
		return ""
	}
	return a.tr.ID.String()
}

// Span records one completed stage span and returns its id (zero when
// unsampled). Spans arriving after Finish are dropped: the trace is
// already published and must stay immutable for ring readers. Spans
// past MaxSpans are counted in Dropped instead of kept.
func (a *Active) Span(name string, parent SpanID, start time.Time, d time.Duration) SpanID {
	return a.span(name, parent, start, d, "")
}

// SpanErr records a failed stage span with an error string.
func (a *Active) SpanErr(name string, parent SpanID, start time.Time, d time.Duration, errMsg string) SpanID {
	return a.span(name, parent, start, d, errMsg)
}

func (a *Active) span(name string, parent SpanID, start time.Time, d time.Duration, errMsg string) SpanID {
	if a == nil {
		return SpanID{}
	}
	if d < 0 {
		d = 0
	}
	id := NewSpanID()
	a.mu.Lock()
	switch {
	case a.finished:
	case len(a.tr.Spans) < MaxSpans:
		a.tr.Spans = append(a.tr.Spans, Span{Name: name, ID: id, Parent: parent, Start: start, Dur: d, Err: errMsg})
	default:
		a.tr.Dropped++
	}
	a.mu.Unlock()
	return id
}

// Finish seals the trace: stamps the root span's duration and status,
// decides flight retention (error status, recorded error, or duration
// at/over SlowThreshold), and publishes to the ring(s). Idempotent;
// later calls no-op.
func (a *Active) Finish(status int, errMsg string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.finished {
		a.mu.Unlock()
		return
	}
	a.finished = true
	a.tr.Dur = time.Since(a.tr.Start)
	if a.tr.Dur < 0 {
		a.tr.Dur = 0
	}
	a.tr.Status = status
	a.tr.Err = errMsg
	a.tr.Spans[0].Dur = a.tr.Dur
	a.tr.Spans[0].Err = errMsg
	slow := a.rec.opts.SlowThreshold > 0 && a.tr.Dur >= a.rec.opts.SlowThreshold
	a.tr.Flight = errMsg != "" || status >= 500 || slow
	tr := &a.tr
	a.mu.Unlock()

	a.rec.main.put(tr)
	if tr.Flight {
		a.rec.flight.put(tr)
	}
}

// Traces returns an index of every retained trace — flight entries
// first-class alongside main-ring ones, deduplicated, newest first.
func (r *Recorder) Traces() []Summary {
	if r == nil {
		return nil
	}
	all := r.flight.snapshot(nil)
	all = r.main.snapshot(all)
	seen := make(map[*Trace]bool, len(all))
	out := make([]Summary, 0, len(all))
	for _, t := range all {
		if seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, Summary{
			ID: t.ID, Root: t.Root, Status: t.Status, Start: t.Start,
			Dur: t.Dur, Err: t.Err, Flight: t.Flight, Spans: len(t.Spans),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].ID.String() < out[j].ID.String()
	})
	return out
}

// Get returns the merged span tree for one trace id. A request that
// spawned background work (refine) publishes two Trace records under
// the same id; Get folds them into one document, spans sorted by start
// time with the original root first.
func (r *Recorder) Get(id TraceID) (Trace, bool) {
	if r == nil {
		return Trace{}, false
	}
	all := r.flight.snapshot(nil)
	all = r.main.snapshot(all)
	seen := make(map[*Trace]bool, len(all))
	var parts []*Trace
	for _, t := range all {
		if t.ID == id && !seen[t] {
			seen[t] = true
			parts = append(parts, t)
		}
	}
	if len(parts) == 0 {
		return Trace{}, false
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start.Before(parts[j].Start) })
	base := *parts[0]
	base.Spans = append([]Span(nil), base.Spans...)
	end := base.Start.Add(base.Dur)
	for _, p := range parts[1:] {
		base.Spans = append(base.Spans, p.Spans...)
		if pe := p.Start.Add(p.Dur); pe.After(end) {
			end = pe
		}
		base.Dropped += p.Dropped
		base.Flight = base.Flight || p.Flight
		if base.Err == "" {
			base.Err = p.Err
		}
	}
	base.Dur = end.Sub(base.Start)
	if len(base.Spans) > 1 {
		root := base.Spans[0]
		rest := base.Spans[1:]
		sort.SliceStable(rest, func(i, j int) bool { return rest[i].Start.Before(rest[j].Start) })
		base.Spans[0] = root
	}
	return base, true
}

type ctxKey struct{}

// WithActive attaches an in-flight trace to a request context so
// downstream stages (ingest handlers, the session pipeline) can reach
// it without new plumbing through every signature.
func WithActive(ctx context.Context, a *Active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, a)
}

// FromContext returns the attached trace, or nil (the no-op path).
func FromContext(ctx context.Context) *Active {
	a, _ := ctx.Value(ctxKey{}).(*Active)
	return a
}
