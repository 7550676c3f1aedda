package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"net/http/httptest"

	"oms/client"
	"oms/internal/promtext"
	"oms/internal/service"
	"oms/internal/telemetry"
	"oms/internal/trace"
	"oms/internal/wal"
	"oms/internal/wire"
)

// traceTestServer is a WAL-backed daemon with an explicit-only trace
// recorder: nothing records unless the request carries a sampled
// traceparent, so every assertion below is deterministic.
func traceTestServer(t *testing.T, events *syncBuffer) (*service.Manager, string) {
	t.Helper()
	reg := promtext.NewRegistry()
	st, err := wal.Open(t.TempDir(), wal.Options{
		ObserveAppend: reg.Histogram(service.WALAppendHistogram, "append").Observe,
		ObserveFsync:  reg.Histogram(service.WALFsyncHistogram, "fsync").Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{
		Store:         st,
		Registry:      reg,
		Tracer:        trace.NewRecorder(trace.Options{SampleEvery: -1, SlowThreshold: time.Hour}),
		JanitorPeriod: time.Hour,
	}
	if events != nil {
		cfg.Events = telemetry.New(events)
	}
	mgr := service.NewManager(cfg)
	mgr.SetReady()
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(service.NewServer(mgr))
	t.Cleanup(srv.Close)
	return mgr, srv.URL
}

// syncBuffer makes a bytes.Buffer safe for the telemetry logger's
// concurrent emits vs the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitTrace polls the recorder until the trace lands (Finish trails the
// response write by a scheduler tick) and pred accepts it.
func waitTrace(t *testing.T, mgr *service.Manager, id trace.TraceID, pred func(trace.Trace) bool) trace.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tr, ok := mgr.Tracer().Get(id); ok && pred(tr) {
			return tr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("trace %s did not materialize", id)
	return trace.Trace{}
}

func spanByName(tr trace.Trace, name string) (trace.Span, bool) {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return trace.Span{}, false
}

// TestTraceEndToEnd is the acceptance path: a client push with an
// injected traceparent must yield a retrievable trace whose span tree
// walks http → queue → assign → wal.append + wal.fsync with correct
// parentage and monotone timestamps, and the push-route histogram must
// carry an exemplar naming that trace.
func TestTraceEndToEnd(t *testing.T) {
	mgr, url := traceTestServer(t, nil)
	cl := client.New(url)

	created, err := cl.Create(context.Background(), client.Spec{N: 8, M: 7, K: 2})
	if err != nil {
		t.Fatal(err)
	}

	tp, tidStr := client.NewTraceparent(true)
	ctx := client.ContextWithTraceparent(context.Background(), tp)
	nodes := make([]client.Node, 8)
	for u := int32(0); u < 8; u++ {
		var adj []int32
		if u > 0 {
			adj = append(adj, u-1)
		}
		if u < 7 {
			adj = append(adj, u+1)
		}
		nodes[u] = client.Node{U: u, Adj: adj}
	}
	if _, err := cl.Push(ctx, created.ID, nodes); err != nil {
		t.Fatal(err)
	}

	tid, err := trace.ParseTraceID(tidStr)
	if err != nil {
		t.Fatal(err)
	}
	tr := waitTrace(t, mgr, tid, func(tr trace.Trace) bool {
		_, ok := spanByName(tr, "wal.fsync")
		return ok && len(tr.Spans) >= 5
	})

	root := tr.Spans[0]
	if root.Name != "POST /v1/sessions/{id}/nodes" || tr.Status != http.StatusOK {
		t.Fatalf("root %q status %d, want the push route at 200", root.Name, tr.Status)
	}
	// The server root is a child of the client's remote span: its parent
	// must be the span id carried in the injected traceparent
	// (00-<trace>-<span>-<flags>).
	if clientSpan := strings.Split(tp, "-")[2]; root.Parent.String() != clientSpan {
		t.Fatalf("root span parented on %s, want the traceparent's span id %s", root.Parent, clientSpan)
	}
	stages := map[string]trace.Span{}
	for _, name := range []string{"queue", "assign", "wal.append", "wal.fsync"} {
		sp, ok := spanByName(tr, name)
		if !ok {
			t.Fatalf("span %q missing from trace: %+v", name, tr.Spans)
		}
		if sp.Parent != root.ID {
			t.Errorf("span %q parented on %s, want root %s", name, sp.Parent, root.ID)
		}
		if sp.Start.Before(root.Start) {
			t.Errorf("span %q starts %s before its root %s", name, sp.Start, root.Start)
		}
		if sp.Dur < 0 {
			t.Errorf("span %q has negative duration %s", name, sp.Dur)
		}
		stages[name] = sp
	}
	// The lifecycle is ordered: a chunk waits in the queue, is assigned
	// whole, then logged, then flushed — each stage starts after the one
	// before it has ended.
	order := []string{"queue", "assign", "wal.append", "wal.fsync"}
	for i := 1; i < len(order); i++ {
		prev, next := stages[order[i-1]], stages[order[i]]
		if next.Start.Before(prev.Start.Add(prev.Dur)) {
			t.Errorf("stage %q starts %s, before %q (%s + %s) has ended",
				order[i], next.Start, order[i-1], prev.Start, prev.Dur)
		}
	}

	// The same tree must come back over HTTP.
	resp, err := http.Get(url + "/v1/traces/" + tidStr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: %d", tidStr, resp.StatusCode)
	}
	var got trace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != tid || len(got.Spans) != len(tr.Spans) {
		t.Fatalf("HTTP trace = id %s with %d spans, want %s with %d", got.ID, len(got.Spans), tid, len(tr.Spans))
	}

	// And the index must list it.
	var idx struct {
		Traces []trace.Summary `json:"traces"`
	}
	iresp, err := http.Get(url + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer iresp.Body.Close()
	if err := json.NewDecoder(iresp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range idx.Traces {
		found = found || s.ID == tid
	}
	if !found {
		t.Fatalf("trace %s missing from index of %d", tid, len(idx.Traces))
	}

	// The push-route histogram carries an exemplar naming the trace.
	var buf bytes.Buffer
	mgr.Registry().WriteOpenMetrics(&buf)
	fams, err := promtext.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	exemplared := false
	for _, f := range fams {
		if f.Name != "omsd_http_push_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if s.Exemplar != nil && s.Exemplar.TraceID() == tidStr {
				exemplared = true
			}
		}
	}
	if !exemplared {
		t.Fatalf("no omsd_http_push_seconds bucket exemplar references %s:\n%s", tidStr, buf.String())
	}
}

// TestTraceCorrelation ties the three observability surfaces together:
// the NDJSON event log's trace_id fields, the trace recorder's span
// trees, and the refine job's status must all agree on the ids the
// client injected.
func TestTraceCorrelation(t *testing.T) {
	var events syncBuffer
	mgr, url := traceTestServer(t, &events)
	cl := client.New(url)

	createTP, createTID := client.NewTraceparent(true)
	created, err := cl.Create(client.ContextWithTraceparent(context.Background(), createTP), client.Spec{N: 8, M: 7, K: 2, Record: true})
	if err != nil {
		t.Fatal(err)
	}

	nodes := make([]client.Node, 8)
	for u := int32(0); u < 8; u++ {
		var adj []int32
		if u > 0 {
			adj = append(adj, u-1)
		}
		if u < 7 {
			adj = append(adj, u+1)
		}
		nodes[u] = client.Node{U: u, Adj: adj}
	}
	if _, err := cl.Push(context.Background(), created.ID, nodes); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Finish(context.Background(), created.ID); err != nil {
		t.Fatal(err)
	}

	refineTP, refineTID := client.NewTraceparent(true)
	if err := cl.Refine(client.ContextWithTraceparent(context.Background(), refineTP), created.ID, 2); err != nil {
		t.Fatal(err)
	}

	// The refine job's trace merges the HTTP record with the background
	// record: a "refine" root span plus one child per pass.
	rid, err := trace.ParseTraceID(refineTID)
	if err != nil {
		t.Fatal(err)
	}
	tr := waitTrace(t, mgr, rid, func(tr trace.Trace) bool {
		_, ok := spanByName(tr, "refine")
		passes := 0
		for _, sp := range tr.Spans {
			if sp.Name == "refine.pass" {
				passes++
			}
		}
		return ok && passes >= 2
	})
	refRoot, _ := spanByName(tr, "refine")
	for _, sp := range tr.Spans {
		if sp.Name == "refine.pass" && sp.Parent != refRoot.ID {
			t.Errorf("refine.pass parented on %s, want the refine root %s", sp.Parent, refRoot.ID)
		}
	}

	// The event log must carry both injected ids on the right events.
	deadline := time.Now().Add(5 * time.Second)
	var createdEv, refineEv map[string]any
	for time.Now().Before(deadline) && (createdEv == nil || refineEv == nil) {
		createdEv, refineEv = nil, nil
		sc := bufio.NewScanner(strings.NewReader(events.String()))
		for sc.Scan() {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("event log line %q: %v", sc.Text(), err)
			}
			switch rec["event"] {
			case telemetry.EventSessionCreated:
				createdEv = rec
			case telemetry.EventRefineDone:
				refineEv = rec
			}
		}
		if createdEv == nil || refineEv == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if createdEv == nil || refineEv == nil {
		t.Fatalf("event log missing session_created/refine_done:\n%s", events.String())
	}
	if got := createdEv["trace_id"]; got != createTID {
		t.Errorf("session_created trace_id = %v, want %s", got, createTID)
	}
	if got := refineEv["trace_id"]; got != refineTID {
		t.Errorf("refine_done trace_id = %v, want %s", got, refineTID)
	}

	// The refine job status reports the same id over HTTP.
	var status struct {
		TraceID string `json:"trace_id"`
	}
	resp, err := http.Get(url + "/v1/sessions/" + created.ID + "/refine")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		if status.TraceID != refineTID {
			t.Errorf("refine status trace_id = %q, want %s", status.TraceID, refineTID)
		}
	}
}

// TestSampledStreamStaysAtSpanCap: a sampled open stream of many pushes
// records a few spans per push, but its trace keeps at most
// trace.MaxSpans of them and counts the rest as dropped.
func TestSampledStreamStaysAtSpanCap(t *testing.T) {
	mgr, url := traceTestServer(t, nil)
	const n, size = 1024, 8
	nodes := make([]client.Node, n)
	for u := range int32(n) {
		nodes[u] = client.Node{U: u, Adj: []int32{(u + n - 1) % n, (u + 1) % n}}
	}
	created, err := client.New(url).Create(context.Background(), client.Spec{N: n, M: n, K: 4})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sessions/"+created.ID+"/nodes", nil)
	if err != nil {
		t.Fatal(err)
	}
	tp, tidStr := client.NewTraceparent(true)
	req.Header.Set("Content-Type", wire.MediaType)
	req.Header.Set(client.TraceparentHeader, tp)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.StreamProtocol)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	rd := wire.NewReader(br)
	for lo := 0; lo < n; lo += size {
		var body []byte
		for _, nd := range nodes[lo : lo+size] {
			body = wire.AppendNodeFrame(body, nd.U, 0, nd.Adj, nil)
		}
		if _, err := conn.Write(body); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < size; rd.Arena.Reset() {
			payload, _, err := rd.NextFrame()
			if err != nil {
				t.Fatalf("push at %d: %v", lo, err)
			}
			us, _, err := wire.DecodeAssignPayload(payload, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got += len(us)
		}
	}
	conn.Close()

	tid, err := trace.ParseTraceID(tidStr)
	if err != nil {
		t.Fatal(err)
	}
	tr := waitTrace(t, mgr, tid, func(trace.Trace) bool { return true })
	// Each push records at least its queue and assign spans.
	if len(tr.Spans) != trace.MaxSpans || tr.Dropped < 2*n/size+1-trace.MaxSpans {
		t.Fatalf("%d pushes kept %d spans and dropped %d; want %d kept and the rest dropped",
			n/size, len(tr.Spans), tr.Dropped, trace.MaxSpans)
	}
}
