package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"oms"
	"oms/internal/store"
	"oms/internal/wire"
)

// seedLog writes a healthy little log through the product encoders —
// two node frames, a batch frame, a stats frame, a seal: every live
// record kind — and returns its bytes plus the offset each frame ends at.
func seedLog(tb testing.TB) (log []byte, ends []int64) {
	tb.Helper()
	st, err := Open(tb.TempDir(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	slg, err := st.Create("seed", spec(8, 8))
	if err != nil {
		tb.Fatal(err)
	}
	lg := slg.(*Log)
	for _, step := range []func() error{
		func() error { return lg.AppendNodeFrame(framed(0, 1, []int32{1, 2}, nil).Frame) },
		func() error { return lg.AppendNodeFrame(framed(1, 2, []int32{0}, []int32{3}).Frame) },
		func() error {
			return lg.AppendBatch([]store.PushNode{
				framed(2, 1, []int32{0, 1}, nil),
				framed(3, 1, nil, nil),
			}, []int32{0, 1})
		},
		func() error {
			return lg.AppendStats(oms.EstimatorState{
				SeenNodes: 4, SeenNodeWeight: 5, SeenAdj: 5, SeenEdgeWeight: 7,
				NextRatchet: 6, Revision: 3,
				Est: oms.StreamStats{N: 8, M: 4, TotalNodeWeight: 10, TotalEdgeWeight: 7},
			})
		},
		lg.Seal,
	} {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
		if err := lg.Flush(); err != nil {
			tb.Fatal(err)
		}
		ends = append(ends, lg.Flushed())
	}
	if err := lg.Close(); err != nil {
		tb.Fatal(err)
	}
	log, err = os.ReadFile(st.LogPath("seed"))
	if err != nil {
		tb.Fatal(err)
	}
	return log, ends
}

// retiredTypeLog is a healthy unsealed prefix (the seed's two node
// frames), then a frame whose CRC is valid but whose type byte is the
// retired typ, then one more healthy node frame: a scan must end at the
// retired frame — it is not a record — and never reach the node behind.
func retiredTypeLog(tb testing.TB, typ byte) (log []byte, validEnd int64) {
	good, ends := seedLog(tb)
	log = append(log, good[:ends[1]]...)
	log = wire.AppendFrame(log, []byte{typ, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	log = append(log, framed(4, 1, []int32{0}, nil).Frame...)
	return log, ends[1]
}

// logScanSeeds are the committed inputs of the two log fuzzers, by
// corpus file name.
func logScanSeeds(tb testing.TB) map[string][]byte {
	good, ends := seedLog(tb)
	corrupt := bytes.Clone(good)
	corrupt[10] ^= 0x40 // flip a payload bit: CRC must catch it
	type1, _ := retiredTypeLog(tb, 1)
	type3, _ := retiredTypeLog(tb, 3)
	return map[string][]byte{
		"healthy-sealed": good,
		"torn-tail":      good[:len(good)-3], // torn mid-frame
		// A crashed live log: records, then the zero tail it ran on into —
		// after whole frames, and after a frame torn mid-payload.
		"zero-tail":      append(bytes.Clone(good[:ends[2]]), make([]byte, 256)...),
		"torn-zero-tail": append(bytes.Clone(good[:ends[2]-5]), make([]byte, 256)...),
		"crc-flip":       corrupt,
		"retired-type-1": type1,
		"retired-type-3": type3,
		// A batch declaring 2^28 nodes and carrying none.
		"huge-count": wire.AppendFrame(nil, []byte{wire.TypeBatch, 0x80, 0x80, 0x80, 0x80, 0x01}),
	}
}

// TestWriteSeedCorpus regenerates the committed fuzz seed corpora when
// OMS_WRITE_CORPUS=1, like the wire package's: the files mirror the
// f.Add seeds so CI fuzz jobs start from logs in the live codec even
// with an empty build cache.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("OMS_WRITE_CORPUS") == "" {
		t.Skip("set OMS_WRITE_CORPUS=1 to regenerate testdata/fuzz")
	}
	for name, data := range logScanSeeds(t) {
		for _, fuzzer := range []string{"FuzzLogScan", "FuzzRecoverSession"} {
			dir := filepath.Join("testdata", "fuzz", fuzzer)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzLogScan feeds arbitrary bytes to the WAL's one log walker and
// holds its contract: never panic, never allocate beyond the input's
// proportions, and always stop cleanly at a torn or corrupt tail — the
// visitor sees exactly the counted records, stats frames decoding
// cleanly along the way, and the surviving prefix re-walks to the
// identical result.
func FuzzLogScan(f *testing.F) {
	for _, seed := range logScanSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{}) // empty log
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		visited := int64(0)
		nodes, sealed, validEnd, err := walkLog(bytes.NewReader(data), func(u, w int32, adj, ew []int32, block int32) error {
			visited++
			if ew != nil && len(ew) != len(adj) {
				t.Fatalf("record with %d edge weights for %d edges", len(ew), len(adj))
			}
			return nil
		}, func(st oms.EstimatorState) error { return nil })
		if err != nil {
			t.Fatalf("walk of a readable log errored: %v", err)
		}
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("validEnd %d outside [0,%d]", validEnd, len(data))
		}
		if nodes < 0 {
			t.Fatalf("negative node count %d", nodes)
		}
		if visited != nodes {
			t.Fatalf("visitor saw %d records, walk counted %d", visited, nodes)
		}

		// Truncate-cleanly property: the valid prefix re-walks to the
		// same verdict.
		nodes2, sealed2, validEnd2, err := walkLog(bytes.NewReader(data[:validEnd]), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nodes2 != nodes || sealed2 != sealed || validEnd2 != validEnd {
			t.Fatalf("truncated prefix re-walks to (%d,%v,%d), want (%d,%v,%d)",
				nodes2, sealed2, validEnd2, nodes, sealed, validEnd)
		}
	})
}

// FuzzRecoverSession drives the whole per-session recovery path —
// spec + arbitrary log bytes — through Store.Recover: it must never
// panic and every recovered session's replay must succeed, cutting the
// log where its valid records end.
func FuzzRecoverSession(f *testing.F) {
	for _, seed := range logScanSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x7f}, 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lg, err := st.Create("s1-0000f00d", store.CreateSpec{N: 8, M: 8, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
		if err := os.WriteFile(filepath.Join(dir, "sessions", "s1-0000f00d", "log.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _ := st.Recover()
		for _, rec := range recs {
			lg, _, err := rec.Replay(func(u, w int32, adj, ew []int32, block int32) error { return nil },
				func(oms.EstimatorState) error { return nil })
			if err != nil {
				t.Fatalf("replay of recovered session failed: %v", err)
			}
			lg.Close()
		}
	})
}
