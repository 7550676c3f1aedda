package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"oms/internal/promtext"
	"oms/internal/store"
	"strings"
	"time"

	"oms"
	"oms/internal/refine"
	"oms/internal/trace"
	"oms/internal/wire"
)

// ingestChunkSize is how many NDJSON nodes the server groups into one
// session job; assignments stream back to the client after each chunk.
const ingestChunkSize = 256

// batchChunkSize is how many NDJSON nodes the batch endpoint groups
// into one group-committed batch: large enough to amortize the job and
// the single fsync over many nodes, small enough that assignments still
// stream back while the client uploads.
const batchChunkSize = 4096

// chunkByteBudget cuts a chunk or batch early once its nodes' wire
// frames exceed this many bytes (both request formats are charged the
// frame, so both cut at the same node): node counts alone would let a
// stream of maxNodeLine-sized adjacency lists buffer gigabytes per
// request before the first flush. Batches cut by bytes also stay orders of
// magnitude below the WAL's single-frame bound, preserving the
// one-frame-per-batch group commit.
const chunkByteBudget = 8 << 20

// maxNodeLine bounds one NDJSON node line (a high-degree node's
// adjacency list).
const maxNodeLine = 16 << 20

// NewServer mounts the omsd HTTP API over a manager:
//
//	POST   /v1/sessions              create a push session (CreateSpec JSON)
//	GET    /v1/sessions              list live sessions
//	GET    /v1/sessions/{id}         one session's status
//	POST   /v1/sessions/{id}/nodes   NDJSON node ingest; NDJSON assignments stream back per chunk
//	POST   /v1/sessions/{id}/batch   NDJSON batch ingest: larger atomic groups, each assigned
//	                                 in order and WAL-committed as one frame
//	POST   /v1/sessions/{id}/finish  seal the session, returns the summary
//	POST   /v1/sessions/{id}/refine  queue background restream refinement (passes)
//	GET    /v1/sessions/{id}/refine  refinement job status and version ledger
//	GET    /v1/sessions/{id}/result  assignment vector; ?version=N|latest|best selects a
//	                                 published refinement (default: the one-pass result)
//	DELETE /v1/sessions/{id}         drop the session
//	GET    /v1/healthz               liveness (also mounted at /healthz)
//	GET    /v1/readyz                readiness: 503 until WAL recovery completes
//	GET    /metrics                  counter registry, Prometheus text format
//
// Every named /v1 route is wrapped in a latency histogram
// (omsd_http_<name>_seconds), registered on the manager's registry at
// mount time so the series exist — at zero — before the first request.
func NewServer(mgr *Manager) http.Handler {
	mux := http.NewServeMux()
	reg := mgr.Registry()
	for _, rt := range Routes() {
		h := rt.handler(mgr)
		var hist *promtext.Histogram
		if rt.Name != "" {
			hist = reg.Histogram("omsd_http_"+rt.Name+"_seconds",
				"request latency of "+rt.Method+" "+rt.Pattern)
		}
		mux.HandleFunc(rt.Method+" "+rt.Pattern, withTrace(mgr.Tracer(), rt.Method+" "+rt.Pattern, hist, rt.Name == "push", h))
	}
	return mux
}

// statusWriter captures the response status code for the trace record.
// Unwrap keeps http.ResponseController working through the wrapper —
// the ingest handlers rely on Flush, EnableFullDuplex and Hijack
// resolving to the real writer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// withTrace is the per-route observability middleware: it parses an
// incoming W3C traceparent, makes the head-sampling decision, opens
// the request's root span, and observes the route histogram (with a
// trace-id exemplar when sampled). The sampled-out path wraps nothing
// and allocates nothing beyond the unavoidable clock reads — the
// recorder's share of that is held at exactly zero by
// TestSampledOutRequestAllocatesNothing in internal/trace. On a route
// that takes streams (the push route), an open stream (streamUpgrade) is
// observed by ingest once per answered chunk instead.
func withTrace(rec *trace.Recorder, name string, hist *promtext.Histogram, streams bool, inner http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		hist := hist
		if streams && hist != nil && streamUpgrade(r) {
			r = r.WithContext(context.WithValue(r.Context(), chunkHistogram{}, hist))
			hist = nil
		}
		var a *trace.Active
		if rec != nil {
			var parent trace.Context
			var hasParent bool
			if tp := r.Header.Get(trace.Header); tp != "" {
				if c, err := trace.ParseTraceparent(tp); err == nil {
					parent, hasParent = c, true
				}
			}
			a = rec.Start(parent, hasParent, name, t0)
		}
		if a == nil {
			inner(w, r)
			if hist != nil {
				hist.Observe(time.Since(t0))
			}
			return
		}
		// Echo the trace id back so even a spontaneously-sampled caller
		// (no traceparent sent) learns which trace to fetch.
		w.Header().Set(trace.Header, a.Context().Traceparent())
		sw := &statusWriter{ResponseWriter: w}
		inner(sw, r.WithContext(trace.WithActive(r.Context(), a)))
		if hist != nil {
			hist.ObserveExemplar(time.Since(t0), a.TraceIDString())
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		a.Finish(status, "")
	}
}

// Route is one registered API endpoint — the single source of truth
// for the versioned API spec. The table is exported so the conformance
// suite can assert it exercises every route the server mounts (a route
// added here without a conformance row fails the test, not just
// review), and SpecMarkdown renders it into the README's route table
// (a docs test keeps the two in sync). Name, when set, is the route's
// latency histogram suffix (omsd_http_<name>_seconds); health and
// metrics endpoints stay unnamed so scraping never skews the API
// latency distributions.
type Route struct {
	Method  string
	Pattern string
	Name    string
	// Doc is the one-line description the rendered spec shows.
	Doc string
	// Accepts lists the request media types the route negotiates (nil:
	// the route takes no body or ignores its type).
	Accepts []string
	// Produces lists the response media types the route can answer
	// with, success bodies first (errors are always application/json).
	Produces []string
	// Errors lists the stable machine-readable error codes (the "code"
	// field of the uniform error body) the route can answer.
	Errors  []string
	handler func(*Manager) http.HandlerFunc
}

// Media type spellings used by the spec table.
const (
	mtJSON   = "application/json"
	mtNDJSON = "application/x-ndjson"
	mtFrame  = wire.MediaType
	mtText   = "text/plain"
)

// ingestErrors is the error-class set the two ingest routes share.
var ingestErrors = []string{
	"session_not_found", "session_gone", "session_finished",
	"node_out_of_range", "edge_budget_exceeded",
	"unsupported_media_type", "malformed_frame", "durability_failure",
	"wrong_node",
}

// Routes returns the full endpoint table NewServer mounts.
func Routes() []Route {
	return []Route{
		{Method: "POST", Pattern: "/v1/sessions", Name: "create", handler: handleCreate,
			Doc:     "create a push session (`n`, `m`, `k` **or** `topology`/`distances`, `scorer`, `epsilon`, `seed`, `record`, `ttl_seconds`, ...); `n: 0` opens an adaptive session",
			Accepts: []string{mtJSON}, Produces: []string{mtJSON},
			Errors: []string{"bad_request", "session_limit"}},
		{Method: "GET", Pattern: "/v1/sessions", Name: "list", handler: handleList,
			Doc: "list live sessions", Produces: []string{mtJSON}},
		{Method: "GET", Pattern: "/v1/sessions/{id}", Name: "status", handler: handleStatus,
			Doc:      "one session's status (`assigned` resume point; adaptive estimates)",
			Produces: []string{mtJSON},
			Errors:   []string{"session_not_found", "session_gone", "wrong_node"}},
		{Method: "POST", Pattern: "/v1/sessions/{id}/nodes", Name: "push", handler: handleNodes,
			Doc:     "stream node ingest; assignments stream back per chunk in the negotiated format",
			Accepts: []string{mtFrame, mtNDJSON}, Produces: []string{mtFrame, mtNDJSON},
			Errors: ingestErrors},
		{Method: "POST", Pattern: "/v1/sessions/{id}/batch", Name: "batch", handler: handleBatch,
			Doc:     "batch ingest: large atomic groups, each assigned in order, one WAL frame per group",
			Accepts: []string{mtFrame, mtNDJSON}, Produces: []string{mtFrame, mtNDJSON},
			Errors: ingestErrors},
		{Method: "POST", Pattern: "/v1/sessions/{id}/finish", Name: "finish", handler: handleFinish,
			Doc:      "seal the session; with `record` the summary includes edge cut and imbalance",
			Produces: []string{mtJSON},
			Errors:   []string{"session_not_found", "session_gone", "durability_failure", "wrong_node"}},
		{Method: "POST", Pattern: "/v1/sessions/{id}/refine", Name: "refine", handler: handleRefine,
			Doc:     "queue background restream refinement (`passes`)",
			Accepts: []string{mtJSON}, Produces: []string{mtJSON},
			Errors: []string{"bad_request", "session_not_found", "session_gone",
				"session_not_finished", "stream_not_retained", "refine_active", "wrong_node"}},
		{Method: "GET", Pattern: "/v1/sessions/{id}/refine", Name: "refine_status", handler: handleRefineStatus,
			Doc:      "refinement job status and version ledger",
			Produces: []string{mtJSON},
			Errors:   []string{"session_not_found", "session_gone", "refine_not_found", "wrong_node"}},
		{Method: "GET", Pattern: "/v1/sessions/{id}/result", Name: "result", handler: handleResult,
			Doc:      "assignment vector; `?version=N\\|latest\\|best` selects a refined version; `Accept: application/x-oms-frame` returns the binary result frame",
			Produces: []string{mtJSON, mtFrame},
			Errors: []string{"session_not_found", "session_gone", "session_not_finished",
				"version_not_found", "bad_request", "wrong_node"}},
		{Method: "DELETE", Pattern: "/v1/sessions/{id}", Name: "delete", handler: handleDelete,
			Doc:    "drop the session (later reads answer `410 Gone`, unknown ids `404`)",
			Errors: []string{"session_not_found", "session_gone", "wrong_node"}},
		{Method: "GET", Pattern: "/v1/cluster", Name: "cluster", handler: handleCluster,
			Doc:      "cluster routing table: members, liveness, epoch, ring parameters, this node's admission budget (single-node: `{\"enabled\": false}`)",
			Produces: []string{mtJSON}},
		{Method: "POST", Pattern: "/v1/replica/sessions/{id}", Name: "replicate", handler: handleReplica,
			Doc:     "internal: WAL-shipping replication stream from a session's owner (full-duplex: verbatim log frames in, durable-offset acks back)",
			Accepts: []string{mtFrame}, Produces: []string{mtFrame},
			Errors: []string{"cluster_disabled"}},
		{Method: "DELETE", Pattern: "/v1/replica/sessions/{id}", Name: "replica_delete", handler: handleReplica,
			Doc:    "internal: GC propagation — the owner deleted the session, drop its replica",
			Errors: []string{"cluster_disabled"}},
		{Method: "GET", Pattern: "/v1/healthz", handler: handleHealthz,
			Doc: "liveness", Produces: []string{mtText}},
		{Method: "GET", Pattern: "/v1/traces", handler: handleTraces,
			Doc:      "recent trace index, newest first (flight-recorder retentions included)",
			Produces: []string{mtJSON}},
		{Method: "GET", Pattern: "/v1/traces/{id}", handler: handleTrace,
			Doc:      "one trace's full span tree by 32-hex trace id",
			Produces: []string{mtJSON},
			Errors:   []string{"bad_request", "trace_not_found"}},
		{Method: "GET", Pattern: "/v1/readyz", handler: handleReadyz,
			Doc: "readiness: 503 until WAL recovery completes", Produces: []string{mtText},
			Errors: []string{"not_ready"}},
		{Method: "GET", Pattern: "/healthz", handler: handleHealthz,
			Doc: "liveness (unversioned alias)", Produces: []string{mtText}},
		{Method: "GET", Pattern: "/metrics", handler: handleMetrics,
			Doc:      "counter registry, Prometheus text format (`Accept: application/openmetrics-text` adds trace exemplars)",
			Produces: []string{"text/plain; version=0.0.4", "application/openmetrics-text"}},
	}
}

func handleCreate(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec store.CreateSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad create body: %w", err))
			return
		}
		spec.TraceID = trace.FromContext(r.Context()).TraceIDString()
		s, err := mgr.Create(spec)
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		// s.spec is the normalized spec (n: 0 became adaptive).
		writeJSON(w, http.StatusCreated, map[string]any{
			"id": s.ID, "k": s.K(), "n": spec.N, "adaptive": s.spec.Adaptive, "lmax": s.Lmax(),
		})
	}
}

func handleList(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, mgr.List())
	}
}

func handleStatus(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := mgr.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(mgr, w, r, r.PathValue("id"), err)
			return
		}
		// assigned tells a reconnecting client exactly where to resume
		// its stream after a daemon restart recovered the session.
		body := map[string]any{
			"id": s.ID, "k": s.K(), "n": s.spec.N, "lmax": s.Lmax(),
			"assigned": s.eng.Assigned(), "finished": s.Finished(),
		}
		if info, ok := s.eng.AdaptiveInfo(); ok {
			// Open-ended sessions report their live estimation state:
			// what has been observed, the projection in force, and how
			// often it ratcheted.
			body["adaptive"] = true
			body["observed"] = statsBody(info.Observed)
			body["estimated"] = statsBody(info.Estimated)
			body["stats_revision"] = info.Revision
		}
		writeJSON(w, http.StatusOK, body)
	}
}

// statsBody renders stream stats as a wire object.
func statsBody(st oms.StreamStats) map[string]any {
	return map[string]any{
		"n": st.N, "m": st.M,
		"total_node_weight": st.TotalNodeWeight,
		"total_edge_weight": st.TotalEdgeWeight,
	}
}

func handleNodes(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := mgr.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(mgr, w, r, r.PathValue("id"), err)
			return
		}
		ingest(mgr, s, w, r, false)
	}
}

func handleBatch(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := mgr.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(mgr, w, r, r.PathValue("id"), err)
			return
		}
		ingest(mgr, s, w, r, true)
	}
}

func handleFinish(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := mgr.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(mgr, w, r, r.PathValue("id"), err)
			return
		}
		sum, err := s.Finish(r.Context(), mgr.Pool())
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, sum)
	}
}

func handleRefine(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec RefineSpec
		if r.Body != nil {
			// An empty body means "server defaults".
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil && !errors.Is(err, io.EOF) {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad refine body: %w", err))
				return
			}
		}
		spec.TraceCtx = trace.FromContext(r.Context()).Context()
		info, err := mgr.Refine(r.PathValue("id"), spec)
		if err != nil {
			writeSessionError(mgr, w, r, r.PathValue("id"), err)
			return
		}
		writeJSON(w, http.StatusAccepted, info)
	}
}

func handleRefineStatus(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		info, ok, err := mgr.RefineStatus(r.PathValue("id"))
		if err != nil {
			writeSessionError(mgr, w, r, r.PathValue("id"), err)
			return
		}
		if !ok {
			err := fmt.Errorf("%w: %s", ErrNoRefine, r.PathValue("id"))
			writeError(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}
}

func handleResult(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := mgr.Get(r.PathValue("id"))
		if err != nil {
			writeSessionError(mgr, w, r, r.PathValue("id"), err)
			return
		}
		res, err := s.ResultVersion(r.URL.Query().Get("version"))
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		if acceptBinary(r, false) {
			// Accept: application/x-oms-frame — the whole result as one
			// TypeResult frame instead of the JSON document.
			payload := wire.AppendResultPayload(nil, wire.Result{
				Version: res.Version, Pass: res.Pass, EdgeCut: res.EdgeCut,
				K: res.K, Lmax: res.Lmax, Parts: res.Parts,
			})
			w.Header().Set("Content-Type", wire.MediaType)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(wire.AppendFrame(nil, payload))
			return
		}
		body := map[string]any{
			"id": s.ID, "version": res.Version, "pass": res.Pass,
			"k": res.K, "lmax": res.Lmax, "parts": res.Parts,
		}
		if res.EdgeCut != nil {
			body["edge_cut"] = *res.EdgeCut
		}
		writeJSON(w, http.StatusOK, body)
	}
}

func handleDelete(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := mgr.Delete(r.PathValue("id")); err != nil {
			writeSessionError(mgr, w, r, r.PathValue("id"), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleCluster serves the routing table every node answers with: in
// cluster mode the view's members/epoch/ring parameters plus this
// node's admission budget; single-node, an explicit disabled marker
// (the route is always mounted so clients can probe either way).
func handleCluster(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cv := mgr.cfg.Cluster
		if cv == nil {
			writeJSON(w, http.StatusOK, map[string]any{
				"enabled": false, "admission": mgr.AdmissionSnapshot(),
			})
			return
		}
		writeJSON(w, http.StatusOK, cv.Table(mgr.AdmissionSnapshot()))
	}
}

// handleReplica delegates the internal replication routes to the
// injected cluster handler; a node not in cluster mode refuses them
// with a stable code instead of a 404 that would read as "bad path".
func handleReplica(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h := mgr.cfg.Replica
		if h == nil {
			writeJSON(w, http.StatusConflict, map[string]string{
				"error": "this node is not in cluster mode", "code": "cluster_disabled",
			})
			return
		}
		h.ServeHTTP(w, r)
	}
}

// writeSessionError answers a session-scoped failure. In cluster mode a
// session this node has never seen usually just lives elsewhere, so
// ErrNotFound for an id the ring places on a peer becomes a 307 at the
// owner with the stable wrong_node code — Go clients follow it
// transparently (method and body preserved), and the cluster-aware
// client refreshes its table on sight of one. Local presence always
// wins over ring arithmetic: a session served here (however it
// arrived — created, recovered, or promoted) never redirects away.
func writeSessionError(mgr *Manager, w http.ResponseWriter, r *http.Request, id string, err error) {
	if errors.Is(err, ErrNotFound) {
		if cv := mgr.cfg.Cluster; cv != nil {
			if node, addr := cv.Owner(id); node != cv.Self() && addr != "" {
				w.Header().Set("Location", strings.TrimRight(addr, "/")+r.URL.RequestURI())
				w.Header().Set("X-OMS-Owner", node)
				writeJSON(w, http.StatusTemporaryRedirect, map[string]string{
					"error": "session " + id + " is owned by node " + node,
					"code":  "wrong_node",
				})
				return
			}
		}
	}
	writeError(w, statusOf(err), err)
}

func handleHealthz(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
}

// handleReadyz is the routing gate: liveness says the process is up,
// readiness says it may take traffic — false while omsd is still
// replaying write-ahead logs, when accepted requests would race
// recovering sessions.
func handleReadyz(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !mgr.Ready() {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"error": "starting: recovery not complete", "code": "not_ready"})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	}
}

func handleMetrics(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Negotiate OpenMetrics only on request: existing Prometheus
		// scrapes keep the classic 0.0.4 exposition byte-compatible.
		if strings.Contains(r.Header.Get("Accept"), "openmetrics") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = mgr.Registry().WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = mgr.Registry().WriteText(w)
	}
}

func handleTraces(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ts := mgr.Tracer().Traces()
		if ts == nil {
			ts = []trace.Summary{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": ts})
	}
}

func handleTrace(mgr *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw := r.PathValue("id")
		id, err := trace.ParseTraceID(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace id %q (want 32 hex digits)", raw))
			return
		}
		tr, ok := mgr.Tracer().Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrNoTrace, raw))
			return
		}
		writeJSON(w, http.StatusOK, tr)
	}
}

// errClasses maps a failure to its HTTP status and its stable
// machine-readable code, so clients branch on "code" instead of parsing
// prose (the prose may change; the codes are API). The first sentinel
// the error wraps wins: ErrDurability precedes wire.ErrMalformed, so a
// log fault caused by a malformed frame is still the server's 500. An
// error that wraps none is a 400 bad_request.
var errClasses = []struct {
	err    error
	status int
	code   string
}{
	{ErrNotFound, http.StatusNotFound, "session_not_found"},
	{refine.ErrNoVersion, http.StatusNotFound, "version_not_found"},
	{ErrNoRefine, http.StatusNotFound, "refine_not_found"},
	{ErrNoTrace, http.StatusNotFound, "trace_not_found"},
	{ErrGone, http.StatusGone, "session_gone"},
	{ErrNotFinished, http.StatusConflict, "session_not_finished"},
	{ErrNoStream, http.StatusConflict, "stream_not_retained"},
	{refine.ErrActive, http.StatusConflict, "refine_active"},
	{ErrLimit, http.StatusTooManyRequests, "session_limit"},
	{oms.ErrSessionFinished, http.StatusConflict, "session_finished"},
	{oms.ErrNodeOutOfRange, http.StatusUnprocessableEntity, "node_out_of_range"},
	{oms.ErrEdgeBudget, http.StatusRequestEntityTooLarge, "edge_budget_exceeded"},
	{ErrUnsupportedMedia, http.StatusUnsupportedMediaType, "unsupported_media_type"},
	{ErrDurability, http.StatusInternalServerError, "durability_failure"},
	{wire.ErrMalformed, http.StatusBadRequest, "malformed_frame"},
}

// errClass looks err up in errClasses.
func errClass(err error) (status int, code string) {
	for _, c := range errClasses {
		if errors.Is(err, c.err) {
			return c.status, c.code
		}
	}
	return http.StatusBadRequest, "bad_request"
}

func statusOf(err error) int {
	status, _ := errClass(err)
	return status
}

func errCode(err error) string {
	_, code := errClass(err)
	return code
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the API's uniform error body: human prose in
// "error", the stable class in "code".
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error(), "code": errCode(err)})
}
