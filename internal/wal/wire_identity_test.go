package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oms/internal/service"
	"oms/internal/wire"
)

// postAll posts one request body to the session and returns the reply,
// asked for as NDJSON whatever the request format.
func postAll(t *testing.T, url, ct string, body []byte) []byte {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d (body %.200s)", url, resp.StatusCode, out)
	}
	return out
}

// TestIngestFormatsLogByteIdentical: the same stream pushed once as
// NDJSON and once as wire v2 binary frames must leave byte-identical
// log.wal files — the NDJSON shim transcodes every line to its
// canonical frame, so the format a client picked is unrecoverable from
// (and irrelevant to) the durable log. Covers both ingest routes and
// the canonicalization corners (zero weight, explicit edge weights).
// The assignments streamed back are the same too — across formats, and
// across routes: at one thread a batch is bit-identical to the same
// sequence of pushes, so /nodes and /batch differ only in record shape.
func TestIngestFormatsLogByteIdentical(t *testing.T) {
	recs, cfg := testStream(t, 400)
	for i := range recs {
		switch i % 3 {
		case 0:
			recs[i].w = 0 // canonical form is weight 1
		case 1:
			recs[i].w = int32(i%7) + 1
			ew := make([]int32, len(recs[i].adj))
			for j := range ew {
				ew[j] = int32(j%5) + 1
			}
			recs[i].ew = ew
		}
	}

	var first []byte // the assignments the first run streamed back
	for _, route := range []string{"nodes", "batch"} {
		t.Run(route, func(t *testing.T) {
			logs := map[string][]byte{}
			for _, format := range []string{"ndjson", "wire"} {
				dir := t.TempDir()
				st := openStore(t, dir)
				mgr := service.NewManager(service.Config{Store: st})
				srv := httptest.NewServer(service.NewServer(mgr))
				defer srv.Close()

				s, err := mgr.Create(spec(cfg.Stats.N, cfg.Stats.M))
				if err != nil {
					t.Fatal(err)
				}

				var body []byte
				var ct string
				if format == "ndjson" {
					var sb strings.Builder
					for _, r := range recs {
						line, err := json.Marshal(service.PushNode{U: r.u, W: r.w, Adj: r.adj, EW: r.ew})
						if err != nil {
							t.Fatal(err)
						}
						sb.Write(line)
						sb.WriteByte('\n')
					}
					body, ct = []byte(sb.String()), "application/x-ndjson"
				} else {
					for _, r := range recs {
						// Encode as a well-behaved binary client: weight
						// zero means one, an empty edge-weight list is none.
						w := r.w
						if w == 0 {
							w = 1
						}
						ew := r.ew
						if len(ew) == 0 {
							ew = nil
						}
						body = wire.AppendNodeFrame(body, r.u, w, r.adj, ew)
					}
					ct = wire.MediaType
				}
				reply := postAll(t, fmt.Sprintf("%s/v1/sessions/%s/%s", srv.URL, s.ID, route), ct, body)
				postAll(t, fmt.Sprintf("%s/v1/sessions/%s/finish", srv.URL, s.ID), "application/json", nil)
				if first == nil {
					first = reply
				} else if !bytes.Equal(reply, first) {
					t.Fatalf("%s over %s streamed back different assignments than the first run", format, route)
				}

				raw, err := os.ReadFile(filepath.Join(dir, "sessions", s.ID, logName))
				if err != nil {
					t.Fatal(err)
				}
				logs[format] = raw
			}
			if !bytes.Equal(logs["ndjson"], logs["wire"]) {
				t.Fatalf("WAL bytes differ between formats: ndjson %d bytes, wire %d bytes",
					len(logs["ndjson"]), len(logs["wire"]))
			}
		})
	}
}
