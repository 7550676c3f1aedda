//go:build !race

// Under the race detector sync.Pool drops entries at random, so the
// pooled ingest state is rebuilt on most requests: an allocation floor
// would measure the detector, not the ingest path.

package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"oms"
	"oms/internal/wire"
)

// TestBatchIngestStaysAllocationFree: once the pooled ingest state is
// warm, a 4096-node /batch request through the server's handler
// allocates at most 0.05 times per node, in either format. The NDJSON
// shim parses a canonical line into the request arena as the binary
// path decodes a frame (both read about 0.02 allocs/node, the
// request's own overhead); decoding each line with json.Unmarshal cost
// about nine allocations per node.
func TestBatchIngestStaysAllocationFree(t *testing.T) {
	const batch, warm, measured = batchChunkSize, 1, 3
	g := oms.GenGrid2D(batch/64, 64*(warm+measured), false)
	n := g.NumNodes()
	mgr := testManager(t, Config{})
	h := NewServer(mgr)
	for _, tc := range []struct {
		name, ct string
		body     func(lo, hi int32) []byte
	}{
		{"ndjson", "application/x-ndjson", func(lo, hi int32) []byte { return ndjsonGraph(t, g, lo, hi).Bytes() }},
		{"binary", wire.MediaType, func(lo, hi int32) []byte { return wireGraph(g, lo, hi) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := mgr.Create(CreateSpec{N: n, M: g.NumEdges(), K: 16})
			if err != nil {
				t.Fatal(err)
			}
			reqs := make([]*http.Request, warm+measured)
			recs := make([]*httptest.ResponseRecorder, warm+measured)
			for i := range reqs {
				lo := int32(i * batch)
				reqs[i] = httptest.NewRequest("POST", "/v1/sessions/"+s.ID+"/batch", bytes.NewReader(tc.body(lo, lo+batch)))
				reqs[i].Header.Set("Content-Type", tc.ct)
				recs[i] = httptest.NewRecorder()
			}
			for i := range warm {
				h.ServeHTTP(recs[i], reqs[i])
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+measured; i++ {
				h.ServeHTTP(recs[i], reqs[i])
			}
			runtime.ReadMemStats(&after)
			for i, rec := range recs {
				if rec.Code != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
				}
			}
			if tc.name == "ndjson" {
				if lines := strings.Count(recs[warm].Body.String(), "\n"); lines != batch {
					t.Fatalf("reply has %d lines, want %d", lines, batch)
				}
			}
			perNode := float64(after.Mallocs-before.Mallocs) / float64(measured*batch)
			t.Logf("%s: %.4f allocs/node", tc.name, perNode)
			if perNode > 0.05 {
				t.Errorf("%s /batch ingest: %.3f allocs/node, want <= 0.05", tc.name, perNode)
			}
		})
	}
}
