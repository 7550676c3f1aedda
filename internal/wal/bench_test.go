package wal

import (
	"encoding/json"
	"testing"

	"oms"
	"oms/internal/wire"
)

// BenchmarkLogFlushSync0 prices the per-chunk durability of the safe
// setting: an RGG stream of 2^15 nodes appended as verbatim 64-node
// chunks of node frames to a fresh log, each chunk followed by a Flush
// at SyncInterval 0, so every chunk pays one write-through and one
// fsync. It reports the mean per chunk; log creation and Close are not
// timed.
func BenchmarkLogFlushSync0(b *testing.B) {
	g, chunks := benchChunks()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		st, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		lg, err := st.Create("s1-00000b0b", spec(g.NumNodes(), g.NumEdges()))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, c := range chunks {
			for _, f := range c {
				if err := lg.AppendNodeFrame(f); err != nil {
					b.Fatal(err)
				}
			}
			if err := lg.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := lg.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(chunks)), "us/chunk")
}

// BenchmarkReplicaAppendSync is BenchmarkLogFlushSync0's follower twin:
// the same chunks shipped as verbatim frames into a fresh replica
// through Append, each chunk followed by one Sync, as the replication
// handler syncs before it acks. It reports the mean per chunk; replica
// open and Close are not timed.
func BenchmarkReplicaAppendSync(b *testing.B) {
	g, chunks := benchChunks()
	const id = "s1-00000b0c"
	specBytes, err := json.Marshal(specEnvelope{ID: id, Spec: spec(g.NumNodes(), g.NumEdges())})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		st, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := st.OpenReplica(id, specBytes)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, c := range chunks {
			for _, f := range c {
				if err := rep.Append(f[wire.FrameHeaderSize:], f); err != nil {
					b.Fatal(err)
				}
			}
			if err := rep.Sync(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := rep.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(chunks)), "us/chunk")
}

// benchChunks frames an RGG stream of 2^15 nodes as 64-node chunks of
// verbatim node frames.
func benchChunks() (*oms.Graph, [][][]byte) {
	g := oms.GenRGG2D(1<<15, 1)
	var chunks [][][]byte
	for u := range g.NumNodes() {
		if u%64 == 0 {
			chunks = append(chunks, nil)
		}
		c := &chunks[len(chunks)-1]
		*c = append(*c, framed(u, 1, g.Neighbors(u), nil).Frame)
	}
	return g, chunks
}
