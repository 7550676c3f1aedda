package trace

import (
	"encoding/json"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := NewContext(i%2 == 0)
		hdr := c.Traceparent()
		if len(hdr) != 55 {
			t.Fatalf("traceparent %q: len %d, want 55", hdr, len(hdr))
		}
		got, err := ParseTraceparent(hdr)
		if err != nil {
			t.Fatalf("round trip %q: %v", hdr, err)
		}
		if got != c {
			t.Fatalf("round trip %q: got %+v, want %+v", hdr, got, c)
		}
		if got.Sampled() != (i%2 == 0) {
			t.Fatalf("round trip %q: sampled %v", hdr, got.Sampled())
		}
	}
}

func TestTraceparentKnownVector(t *testing.T) {
	// The worked example from the W3C Trace Context spec.
	hdr := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	c, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id %s", c.TraceID)
	}
	if c.SpanID.String() != "00f067aa0ba902b7" {
		t.Fatalf("span id %s", c.SpanID)
	}
	if !c.Sampled() {
		t.Fatal("sampled flag lost")
	}
	if c.Traceparent() != hdr {
		t.Fatalf("re-render %q", c.Traceparent())
	}
}

func TestTraceparentRejects(t *testing.T) {
	valid := NewContext(true).Traceparent()
	bad := []string{
		"",
		"00",
		valid[:54],       // truncated
		valid + "0",      // version 00 must be exactly 55
		"ff" + valid[2:], // version ff reserved
		"00-00000000000000000000000000000000-" + valid[36:], // zero trace id
		"00-" + valid[3:35] + "-0000000000000000-01",        // zero span id
		"00_" + valid[3:], // bad delimiter
		"00-" + strings.Repeat("zz", 16) + "-" + valid[36:],         // bad hex
		"00-" + valid[3:35] + "-" + strings.Repeat("g", 16) + "-01", // bad hex span
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	// A higher version with trailing fields parses (forward compat).
	future := "42" + valid[2:] + "-extrafield"
	if _, err := ParseTraceparent(future); err != nil {
		t.Errorf("future version %q rejected: %v", future, err)
	}
}

func TestTraceIDJSON(t *testing.T) {
	id := NewTraceID()
	raw, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceID
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("json round trip: %s != %s", back, id)
	}
	if _, err := ParseTraceID("not-a-trace-id"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
	if _, err := ParseTraceID(strings.Repeat("0", 32)); err == nil {
		t.Fatal("ParseTraceID accepted the zero id")
	}
}

// TestSamplingDeterminism: the head-sampling decision for a request
// carrying a traceparent is the header's sampled flag, nothing else —
// seeded traceparents must reproduce exactly.
func TestSamplingDeterminism(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1}) // spontaneous sampling maxed out...
	for i := 0; i < 100; i++ {
		sampled := i%3 == 0
		c := NewContext(sampled)
		a := r.Start(c, true, "http", time.Now())
		if sampled && a == nil {
			t.Fatalf("op %d: sampled traceparent not recorded", i)
		}
		if !sampled && a != nil {
			t.Fatalf("op %d: unsampled traceparent recorded anyway", i)
		}
		if a != nil {
			if a.TraceIDString() != c.TraceID.String() {
				t.Fatalf("op %d: trace id %s, want %s", i, a.TraceIDString(), c.TraceID)
			}
			a.Finish(200, "")
		}
	}

	// Parentless requests sample exactly 1 in SampleEvery.
	r = NewRecorder(Options{SampleEvery: 8})
	hits := 0
	for i := 0; i < 800; i++ {
		if a := r.Start(Context{}, false, "http", time.Now()); a != nil {
			hits++
			a.Finish(200, "")
		}
	}
	if hits != 100 {
		t.Fatalf("spontaneous sampling: %d of 800 sampled, want exactly 100", hits)
	}
}

// TestNilFastPath: every operation on the sampled-out (nil) path and
// on a nil recorder must be a safe no-op.
func TestNilFastPath(t *testing.T) {
	var r *Recorder
	a := r.Start(NewContext(true), true, "http", time.Now())
	if a != nil {
		t.Fatal("nil recorder produced an Active")
	}
	a.Span("stage", a.Root(), time.Now(), time.Millisecond)
	a.SpanErr("stage", a.Root(), time.Now(), 0, "boom")
	a.Finish(500, "boom")
	if got := a.TraceIDString(); got != "" {
		t.Fatalf("nil TraceIDString %q", got)
	}
	if c := a.Context(); c.Valid() {
		t.Fatalf("nil Context valid: %+v", c)
	}
	if tr := r.Traces(); tr != nil {
		t.Fatalf("nil recorder Traces: %v", tr)
	}
	if _, ok := r.Get(NewTraceID()); ok {
		t.Fatal("nil recorder Get found something")
	}
}

// TestSampledOutRequestAllocatesNothing: every request on every route
// walks this path, so a request the head sampler passes over (explicit-
// only mode, no traceparent) must not allocate — not in the declined
// Start, not in the stage spans on the nil Active, not in Finish.
func TestSampledOutRequestAllocatesNothing(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: -1})
	t0 := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		a := r.Start(Context{}, false, "POST /v1/sessions/{id}/nodes", t0)
		a.Span("queue", a.Root(), t0, time.Microsecond)
		a.Span("assign", a.Root(), t0, 10*time.Microsecond)
		a.Span("wal.append", a.Root(), t0, 5*time.Microsecond)
		a.Span("wal.fsync", a.Root(), t0, 2*time.Microsecond)
		a.Finish(200, "")
	})
	if allocs != 0 {
		t.Fatalf("sampled-out request allocates %v times, want 0", allocs)
	}
}

func TestSpanTreeAndGet(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1})
	parent := NewContext(true)
	start := time.Now()
	a := r.Start(parent, true, "http POST /x", start)
	root := a.Root()
	q := a.Span("queue", root, start.Add(time.Millisecond), 2*time.Millisecond)
	a.Span("assign", root, start.Add(3*time.Millisecond), time.Millisecond)
	a.Finish(200, "")

	if q.IsZero() {
		t.Fatal("recorded span has zero id")
	}
	tr, ok := r.Get(parent.TraceID)
	if !ok {
		t.Fatal("trace not found after finish")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("span count %d, want 3", len(tr.Spans))
	}
	if tr.Spans[0].Name != "http POST /x" || tr.Spans[0].Parent != parent.SpanID {
		t.Fatalf("root span %+v not parented under remote caller", tr.Spans[0])
	}
	for _, sp := range tr.Spans[1:] {
		if sp.Parent != root {
			t.Fatalf("stage span %s parent %s, want root %s", sp.Name, sp.Parent, root)
		}
	}
	if tr.Status != 200 || tr.Flight {
		t.Fatalf("trace status=%d flight=%v", tr.Status, tr.Flight)
	}

	// Spans after Finish are dropped: the published trace is immutable.
	a.Span("late", root, time.Now(), time.Second)
	tr2, _ := r.Get(parent.TraceID)
	if len(tr2.Spans) != 3 {
		t.Fatalf("post-finish span leaked: %d spans", len(tr2.Spans))
	}

	if _, ok := r.Get(NewTraceID()); ok {
		t.Fatal("Get found a trace that was never recorded")
	}
}

// TestGetMergesSameID: background work (refine) publishes a second
// Trace under the request's id; Get must fold both into one tree.
func TestGetMergesSameID(t *testing.T) {
	r := NewRecorder(Options{})
	req := NewContext(true)
	t0 := time.Now()
	a := r.Start(req, true, "http POST /refine", t0)
	reqRoot := a.Root()
	a.Finish(202, "")

	b := r.Start(a.Context(), true, "refine", t0.Add(time.Millisecond))
	if b.TraceIDString() != req.TraceID.String() {
		t.Fatalf("refine trace id %s, want %s", b.TraceIDString(), req.TraceID)
	}
	b.Span("refine.pass", b.Root(), t0.Add(2*time.Millisecond), time.Millisecond)
	b.Finish(0, "")

	tr, ok := r.Get(req.TraceID)
	if !ok {
		t.Fatal("merged trace not found")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("merged span count %d, want 3", len(tr.Spans))
	}
	var refineRoot *Span
	for i := range tr.Spans {
		if tr.Spans[i].Name == "refine" {
			refineRoot = &tr.Spans[i]
		}
	}
	if refineRoot == nil || refineRoot.Parent != reqRoot {
		t.Fatalf("refine root %+v not parented under request root %s", refineRoot, reqRoot)
	}
	if tr.Root != "http POST /refine" {
		t.Fatalf("merged root %q", tr.Root)
	}
}

// TestFlightRetention: every error or over-threshold trace survives
// arbitrary main-ring wraparound — the tail-based invariant.
func TestFlightRetention(t *testing.T) {
	r := NewRecorder(Options{RingSize: 16, FlightSize: 1024, SlowThreshold: 40 * time.Millisecond})
	var wantIDs []TraceID
	const total = 4000 // wraps the 16-slot main ring ~250x
	for i := 0; i < total; i++ {
		c := NewContext(true)
		switch i % 100 {
		case 0: // server error
			a := r.Start(c, true, "http", time.Now())
			a.Finish(500, "engine fault")
			wantIDs = append(wantIDs, c.TraceID)
		case 1: // breaches SlowThreshold (start backdated past it)
			a := r.Start(c, true, "http", time.Now().Add(-time.Second))
			a.Finish(200, "")
			wantIDs = append(wantIDs, c.TraceID)
		default: // healthy and fast: main ring only, wraps freely
			a := r.Start(c, true, "http", time.Now())
			a.Finish(200, "")
		}
	}
	if len(wantIDs) != 80 {
		t.Fatalf("test bug: %d flight-worthy traces", len(wantIDs))
	}
	for _, id := range wantIDs {
		tr, ok := r.Get(id)
		if !ok {
			t.Fatalf("flight trace %s lost to wraparound", id)
		}
		if !tr.Flight {
			t.Fatalf("trace %s retrieved but not marked flight", id)
		}
	}
	// The index surfaces flight entries even though the main ring holds
	// only the most recent handful.
	flight := 0
	for _, s := range r.Traces() {
		if s.Flight {
			flight++
		}
	}
	if flight < len(wantIDs) {
		t.Fatalf("index shows %d flight traces, want >= %d", flight, len(wantIDs))
	}
}

// TestRingKeepsNewestTraces: each ring holds exactly its newest traces,
// however many processors publish into it. Every 10th trace fails, so the
// index is the main ring's newest 64 plus the flight ring's newest 16
// failures, and nothing older.
func TestRingKeepsNewestTraces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		ringSize   = 64
		flightSize = 16
		total      = 1000
	)
	r := NewRecorder(Options{RingSize: ringSize, FlightSize: flightSize})
	base := time.Now().Add(-time.Hour)
	ids := make([]TraceID, total)
	var failed []int
	for i := range ids {
		c := NewContext(true)
		ids[i] = c.TraceID
		a := r.Start(c, true, "http", base.Add(time.Duration(i)*time.Millisecond))
		if i%10 == 0 {
			a.Finish(500, "fault")
			failed = append(failed, i)
		} else {
			a.Finish(200, "")
		}
	}
	want := map[TraceID]bool{}
	for i := total - ringSize; i < total; i++ {
		want[ids[i]] = true
	}
	wantFlight := map[TraceID]bool{}
	for _, i := range failed[len(failed)-flightSize:] {
		want[ids[i]] = true
		wantFlight[ids[i]] = true
	}

	index := r.Traces()
	got := map[TraceID]bool{}
	flight := 0
	for _, s := range index {
		got[s.ID] = true
		if s.Flight {
			flight++
			if !wantFlight[s.ID] {
				t.Errorf("flight trace %s is not among the newest %d failures", s.ID, flightSize)
			}
		}
	}
	if len(index) != len(want) || flight != flightSize {
		t.Errorf("index holds %d traces (%d flight), want %d (%d flight)", len(index), flight, len(want), flightSize)
	}
	kept := 0
	for i := total - ringSize; i < total; i++ {
		if got[ids[i]] {
			kept++
		}
	}
	if kept != ringSize {
		t.Errorf("index keeps %d of the newest %d traces", kept, ringSize)
	}
	for i, id := range ids {
		_, ok := r.Get(id)
		if ok != want[id] {
			t.Errorf("trace %d of %d: retrievable %v, want %v", i, total, ok, want[id])
		}
	}
}

// TestConcurrentRecordSnapshot hammers record/finish against index and
// Get readers; -race is the real assertion, plus: every snapshot must
// be internally consistent (published traces only, root span first).
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := NewRecorder(Options{RingSize: 64, FlightSize: 32, SlowThreshold: time.Hour})
	stop := make(chan struct{})
	done := make(chan struct{})
	const writers = 4
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewPCG(uint64(w), 42))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := NewContext(true)
				a := r.Start(c, true, "http", time.Now())
				a.Span("queue", a.Root(), time.Now(), time.Duration(rng.Int64N(1e6)))
				a.Span("assign", a.Root(), time.Now(), time.Duration(rng.Int64N(1e6)))
				if i%7 == 0 {
					a.Finish(500, "fault")
				} else {
					a.Finish(200, "")
				}
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, s := range r.Traces() {
			if s.Spans < 1 {
				t.Fatalf("summary with %d spans: unpublished trace leaked", s.Spans)
			}
			tr, ok := r.Get(s.ID)
			if !ok {
				continue // wrapped between index and Get; fine
			}
			if len(tr.Spans) == 0 || tr.Spans[0].Name != "http" {
				t.Fatalf("trace %s root span %+v", s.ID, tr.Spans)
			}
			if tr.Status >= 500 && !tr.Flight {
				t.Fatalf("error trace %s not flight-marked", s.ID)
			}
		}
	}
	close(stop)
	for w := 0; w < writers; w++ {
		<-done
	}
}
