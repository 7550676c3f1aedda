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
	"slices"
	"strings"
	"testing"

	"oms/internal/service"
	"oms/internal/store"
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
// across routes: a batch is bit-identical to the same sequence of
// pushes. The two routes log one record shape: their logs hold the same
// nodes with the same blocks in the same order, and differ only in
// where the group frames break — every 256 nodes on /nodes, every 4096
// on /batch.
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

	var first []byte                 // the assignments the first run streamed back
	routeLogs := map[string][]byte{} // each route's log
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
						line, err := json.Marshal(store.PushNode{U: r.u, W: r.w, Adj: r.adj, EW: r.ew})
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
			routeLogs[route] = logs["wire"]
		})
	}
	if t.Failed() {
		return
	}
	nodes, nodeGroups := decodeLog(t, routeLogs["nodes"])
	batch, batchGroups := decodeLog(t, routeLogs["batch"])
	if len(nodes) != len(recs) || !slices.Equal(nodes, batch) {
		t.Fatalf("the routes logged different node sequences: /nodes %d nodes, /batch %d, want %d each", len(nodes), len(batch), len(recs))
	}
	if want := []int{256, len(recs) - 256}; !slices.Equal(nodeGroups, want) {
		t.Fatalf("/nodes logged group frames of %v nodes, want %v", nodeGroups, want)
	}
	if want := []int{len(recs)}; !slices.Equal(batchGroups, want) {
		t.Fatalf("/batch logged group frames of %v nodes, want %v", batchGroups, want)
	}
}

// decodeLog reads a sealed log's records in order: every logged node as
// its (u, w, adj, ew, block) tuple, and the node count of each record
// that holds nodes.
func decodeLog(t *testing.T, raw []byte) (nodes []string, groups []int) {
	t.Helper()
	rd := wire.NewReader(bytes.NewReader(raw))
	var rec record
	for {
		payload, _, err := rd.NextFrame()
		if err == io.EOF {
			return nodes, groups
		}
		if err != nil || !rec.decode(payload) {
			t.Fatalf("log record %d does not decode (%v)", len(groups), err)
		}
		if len(rec.nodes) == 0 {
			continue
		}
		for i, nd := range rec.nodes {
			nodes = append(nodes, fmt.Sprint(nd.U, nd.W, nd.Adj, nd.EW, rec.blocks[i]))
		}
		groups = append(groups, len(rec.nodes))
	}
}

// TestIngestNonCanonicalLinesMatchUnmarshal: the NDJSON shim parses
// canonical lines by hand and leaves every other line to
// encoding/json, so a line outside the canonical subset must get
// exactly the answer json.Unmarshal gives. Each line stands between
// two canonical ones, so a refused line sits mid-chunk. Where
// json.Unmarshal refuses the line the request answers 400 bad_request
// with its error text; where it accepts, the request answers with the
// status and reply bytes of a binary request carrying the decoded node,
// and leaves a byte-identical log.wal.
func TestIngestNonCanonicalLinesMatchUnmarshal(t *testing.T) {
	const before, after = `{"u":0,"adj":[1]}`, `{"u":2,"adj":[1,3]}`
	lines := []string{
		`{"u":1,"adj":[0,2]}`,
		" \t{ \"u\" : 1 ,\"adj\":[ 0 ,2 ] }\t",
		`{"adj":[0,2],"u":1}`,
		`{"u":1,"w":3,"adj":[0,2],"ew":[4,5]}`,
		`{"u":1,"w":0,"adj":[0,2],"ew":[]}`,
		`{"u":1,"adj":[-0,2]}`,
		`{"u":1,"adj":null}`,
		`{"U":1,"adj":[0,2]}`,
		`{"u":1,"adj":[0,2],"x":{"y":[1,2]}}`,
		`{"u":3,"adj":[0,2],"u":1}`,
		`{"\u0075":1,"adj":[0,2]}`,
		`{"u":1,"w":null,"adj":[0,2]}`,
		`{"u":9,"adj":[0]}`,
		`{"u":1e0,"adj":[0,2]}`,
		`{"u":1.5,"adj":[0,2]}`,
		`{"u":01,"adj":[0,2]}`,
		`{"u":1,"adj":[0,2147483648]}`,
		`{"u":1,`,
		`{"u":1,"adj":[0,2,]}`,
		`{"u":1,"adj":[0,2]} x`,
		`null`,
	}
	// post runs one request against a fresh WAL-backed server and
	// returns the status, the reply and the session's log bytes.
	post := func(t *testing.T, route, ct string, body []byte) (int, []byte, []byte) {
		dir := t.TempDir()
		mgr := service.NewManager(service.Config{Store: openStore(t, dir)})
		srv := httptest.NewServer(service.NewServer(mgr))
		defer srv.Close()
		s, err := mgr.Create(spec(4, 3))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", fmt.Sprintf("%s/v1/sessions/%s/%s", srv.URL, s.ID, route), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "sessions", s.ID, logName))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, reply, raw
	}
	for _, route := range []string{"nodes", "batch"} {
		for i, line := range lines {
			t.Run(fmt.Sprintf("%s/%d", route, i), func(t *testing.T) {
				status, reply, log := post(t, route, "application/x-ndjson", []byte(before+"\n"+line+"\n"+after+"\n"))
				var nd store.PushNode
				if err := json.Unmarshal([]byte(line), &nd); err != nil {
					want := fmt.Sprintf("bad node line %.120q: %v", line, err)
					var eb struct {
						Error string `json:"error"`
						Code  string `json:"code"`
					}
					if jerr := json.Unmarshal(reply, &eb); jerr != nil || status != http.StatusBadRequest ||
						eb.Code != "bad_request" || eb.Error != want {
						t.Fatalf("%q: status %d, reply %s; want 400 bad_request %q", line, status, reply, want)
					}
					return
				}
				w := nd.W
				if w == 0 {
					w = 1
				}
				if len(nd.EW) == 0 {
					nd.EW = nil
				}
				body := wire.AppendNodeFrame(nil, 0, 1, []int32{1}, nil)
				body = wire.AppendNodeFrame(body, nd.U, w, nd.Adj, nd.EW)
				body = wire.AppendNodeFrame(body, 2, 1, []int32{1, 3}, nil)
				wantStatus, wantReply, wantLog := post(t, route, wire.MediaType, body)
				if status != wantStatus || !bytes.Equal(reply, wantReply) {
					t.Fatalf("%q: status %d, reply %q; the binary request: %d, %q", line, status, reply, wantStatus, wantReply)
				}
				if !bytes.Equal(log, wantLog) {
					t.Fatalf("%q: log.wal differs from the binary request's (%d vs %d bytes)", line, len(log), len(wantLog))
				}
			})
		}
	}
}
