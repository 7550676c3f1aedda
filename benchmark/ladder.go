package benchmark

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"oms"
	"oms/internal/core"
	"oms/internal/hierarchy"
	"oms/internal/onepass"
	"oms/internal/service"
	"oms/internal/wal"
	"oms/internal/wire"
)

// The ladder prices one stream at every layer: the workload's graph
// family, hierarchy and push size at ladderLogN nodes, replayed single-
// threaded through successively deeper public entry points. Each rung
// includes the rungs beneath it, so a rung minus the one beneath is that
// layer's tax per chunk.
const (
	ladderLogN = 15
	ladderLogM = 19
	ladderReps = 5 // each rung reports the median of this many replays
)

type ladder struct {
	ctx  context.Context
	e    *env // the ladder's own inputs
	tr   *Tracer
	root int
	out  map[string]Metric

	tree   *hierarchy.Tree
	frames [][]byte // per chunk: its nodes' wire frames, concatenated
	nodes  float64
	edges  float64 // adjacency entries streamed (2m)
	chunks float64
	http   *runStats // traffic of the deepest HTTP rung, with its registry
	reg    *service.Registry
}

// runLadder measures every per-layer rung for workload w and returns
// the deepest HTTP rung's traffic and registry (the library workloads
// have no service traffic of their own to report counters from).
func runLadder(ctx context.Context, w Workload, seed uint64, tmp string, tr *Tracer, out map[string]Metric) (*runStats, *service.Registry, error) {
	lw := w
	lw.LogN, lw.LogM = min(w.LogN, ladderLogN), min(w.LogM, ladderLogM)
	lw.Service, lw.Disk = false, false
	lw.Threads = 1 // the library rungs and the reference are sequential
	if !w.Service {
		lw.Chunk = 64
	}
	e, err := setUp(ctx, lw, seed, tmp)
	if err != nil {
		return nil, nil, fmt.Errorf("ladder set-up: %w", err)
	}
	defer e.close()
	e.push = chunks(e.g, lw.Chunk)
	e.w.Threads = w.Threads // the service rungs open sessions as the workload does
	l := &ladder{ctx: ctx, e: e, tr: tr, out: out}
	l.root = tr.Start(0, "bench", "ladder")
	defer func() { tr.End(l.root, int64(e.stats.N)) }()
	if e.cfg.Topology != nil {
		l.tree = hierarchy.FromSpec(e.cfg.Topology.Spec)
	} else {
		l.tree = hierarchy.BuildArtificial(e.k, oms.DefaultBase)
	}
	l.nodes, l.chunks = float64(e.stats.N), float64(len(e.push))
	for _, c := range e.push {
		for _, nd := range c {
			l.edges += float64(len(nd.Adj))
		}
	}
	for _, step := range []func() error{l.library, l.wire, l.engine, l.walDirect, l.service} {
		if err := step(); err != nil {
			return nil, nil, err
		}
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
	}
	return l.http, l.reg, nil
}

func (l *ladder) set(name string, v float64, unit string) { l.out[name] = Metric{Value: v, Unit: unit} }

// repeat replays body ladderReps times under a span each and returns
// the median duration in ns; body times its own region, so that what it
// prepares first is not counted.
func (l *ladder) repeat(layer, name string, count float64, body func() (t0, t1 time.Time, err error)) (float64, error) {
	var ds []float64
	for r := 0; r < ladderReps; r++ {
		t0, t1, err := body()
		if err != nil {
			return 0, fmt.Errorf("ladder %s.%s: %w", layer, name, err)
		}
		l.tr.Add(l.root, layer, name, t0, t1, int64(count))
		ds = append(ds, float64(t1.Sub(t0)))
	}
	return median(ds), nil
}

func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

func (l *ladder) newCore(threads int) (*core.OMS, error) {
	return core.New(l.tree, l.e.stats, core.Config{Epsilon: oms.DefaultEpsilon, Seed: l.e.seed, Threads: threads})
}

// library prices the pull side: the source alone, the engine alone
// (direct core.OMS.AssignNode), its restream and parallel uses, and the
// flat Fennel the paper compares against.
func (l *ladder) library() error {
	e := l.e
	ns, err := l.repeat("stream", "foreach", l.nodes, func() (t0, t1 time.Time, err error) {
		t0 = time.Now()
		err = e.src.ForEach(func(u, vw int32, adj, ew []int32) {})
		return t0, time.Now(), err
	})
	if err != nil {
		return err
	}
	l.set("stream.foreach_ns_per_node", ns/l.nodes, "ns")

	ns, err = l.repeat("core", "new", 1, func() (t0, t1 time.Time, err error) {
		t0 = time.Now()
		_, err = l.newCore(1)
		return t0, time.Now(), err
	})
	if err != nil {
		return err
	}
	l.set("core.new_ms", ns/1e6, "ms")

	var allocs float64
	var omsParts []int32
	assign, err := l.repeat("core", "assign", l.nodes, func() (t0, t1 time.Time, err error) {
		o, err := l.newCore(1)
		if err != nil {
			return t0, t1, err
		}
		m0 := mallocs()
		t0 = time.Now()
		err = e.src.ForEach(func(u, vw int32, adj, ew []int32) { o.AssignNode(u, vw, adj, ew) })
		t1 = time.Now()
		allocs = mallocs() - m0
		omsParts = o.Assignments()
		if err == nil && !slices.Equal(omsParts, e.ref) {
			err = fmt.Errorf("direct AssignNode differs from the reference")
		}
		return t0, t1, err
	})
	if err != nil {
		return err
	}
	l.set("core.assign_ns_per_node", assign/l.nodes, "ns")
	l.set("core.assign_ns_per_edge", assign/l.edges, "ns")
	l.set("core.allocs_per_node", allocs/l.nodes, "count")
	// One root-to-leaf walk: levels descended, children scored on the way.
	var scored float64
	for v := l.tree.Root; !l.tree.IsLeaf(v); v, _ = l.tree.Children(v) {
		scored += float64(l.tree.NumChildren[v])
	}
	l.set("core.tree_levels", float64(l.tree.MaxDepth), "count")
	l.set("core.children_scored_per_node", scored, "count")

	ns, err = l.repeat("core", "restream", l.nodes, func() (t0, t1 time.Time, err error) {
		o, err := l.newCore(1)
		if err != nil {
			return t0, t1, err
		}
		if _, err = o.Run(e.src); err != nil {
			return t0, t1, err
		}
		t0 = time.Now()
		_, err = o.RestreamPasses(e.src, 1)
		return t0, time.Now(), err
	})
	if err != nil {
		return err
	}
	l.set("core.restream_ns_per_node", ns/l.nodes, "ns")

	var runNS [3]float64
	for _, threads := range []int{1, 2} {
		runNS[threads], err = l.repeat("core", fmt.Sprintf("run_t%d", threads), l.nodes, func() (t0, t1 time.Time, err error) {
			o, err := l.newCore(threads)
			if err != nil {
				return t0, t1, err
			}
			t0 = time.Now()
			_, err = o.Run(e.src)
			return t0, time.Now(), err
		})
		if err != nil {
			return err
		}
	}
	l.set("core.parallel_speedup_t2", runNS[1]/runNS[2], "x") // base: core.OMS.Run with Threads 1

	var flatParts []int32
	flat, err := l.repeat("onepass", "fennel", l.nodes, func() (t0, t1 time.Time, err error) {
		alg, err := onepass.NewFennel(onepass.Config{K: e.k, Epsilon: oms.DefaultEpsilon, Seed: e.seed}, e.stats, 1)
		if err != nil {
			return t0, t1, err
		}
		t0 = time.Now()
		err = e.src.ForEach(func(u, vw int32, adj, ew []int32) { alg.Assign(0, u, vw, adj, ew) })
		flatParts = alg.Assignments()
		return t0, time.Now(), err
	})
	if err != nil {
		return err
	}
	l.set("onepass.fennel_ns_per_node", flat/l.nodes, "ns")
	l.set("core.speedup_vs_fennel", flat/assign, "x") // base: flat Fennel, same k, same stream
	qo, err := verify(e.src, omsParts, e.k, e.lmax, e.top)
	if err != nil {
		return err
	}
	qf, err := verify(e.src, flatParts, e.k, e.lmax, e.top)
	if err != nil {
		return fmt.Errorf("flat fennel: %w", err)
	}
	l.set("core.cut_vs_fennel", qo.cutFrac/qf.cutFrac, "x")
	l.set("core.cost_vs_fennel", qo.costPerEdge/qf.costPerEdge, "x")
	return nil
}

// wire prices the codec: encoding the stream into frames (what the
// client and WriteWireFile do) and decoding it again (what the handler
// and NewWireSource do).
func (l *ladder) wire() error {
	var bytesOut float64
	ns, err := l.repeat("wire", "encode", l.nodes, func() (t0, t1 time.Time, err error) {
		frames := make([][]byte, len(l.e.push))
		t0 = time.Now()
		for i, c := range l.e.push {
			var buf []byte
			for _, nd := range c {
				buf = wire.AppendNodeFrame(buf, nd.U, nd.W, nd.Adj, nd.EW)
			}
			frames[i] = buf
		}
		t1 = time.Now()
		l.frames, bytesOut = frames, 0
		for _, f := range frames {
			bytesOut += float64(len(f))
		}
		return t0, t1, nil
	})
	if err != nil {
		return err
	}
	l.set("wire.encode_ns_per_node", ns/l.nodes, "ns")
	l.set("wire.bytes_per_node", bytesOut/l.nodes, "B")
	return nil
}

// decoder turns a chunk's frames back into push nodes the way the
// binary ingest handler does: CRC-checked, decoded into the reader's
// arena, the verbatim frame kept for the log.
type decoder struct {
	rd    *wire.Reader
	nodes []service.PushNode
}

func newDecoder() *decoder { return &decoder{rd: wire.NewReader(nil)} }

func (d *decoder) decode(frames []byte) ([]service.PushNode, error) {
	d.rd.Reset(bytes.NewReader(frames))
	d.nodes = d.nodes[:0]
	for {
		nd, frame, err := d.rd.NextNode()
		if err == io.EOF {
			return d.nodes, nil
		}
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, service.PushNode{U: nd.U, W: nd.W, Adj: nd.Adj, EW: nd.EW, Frame: frame})
	}
}

// replay decodes every chunk's frames and hands each node to fn.
func (l *ladder) replay(fn func(nd service.PushNode) error) error {
	d := newDecoder()
	for _, f := range l.frames {
		nodes, err := d.decode(f)
		if err != nil {
			return err
		}
		for _, nd := range nodes {
			if err := fn(nd); err != nil {
				return err
			}
		}
	}
	return nil
}

// engine replays the frames through decode alone, decode plus the
// engine, decode plus the root package's push session, and decode plus
// the service's session queue with and without a log.
func (l *ladder) engine() error {
	e := l.e
	var allocs float64
	dec, err := l.repeat("wire", "decode", l.nodes, func() (t0, t1 time.Time, err error) {
		m0 := mallocs()
		t0 = time.Now()
		err = l.replay(func(service.PushNode) error { return nil })
		t1 = time.Now()
		allocs = mallocs() - m0
		return t0, t1, err
	})
	if err != nil {
		return err
	}
	l.set("wire.decode_ns_per_node", dec/l.nodes, "ns")
	l.set("wire.decode_ns_per_edge", dec/l.edges, "ns")
	l.set("wire.decode_allocs_per_node", allocs/l.nodes, "count")
	l.set("wire.decode_us_per_chunk", dec/l.chunks/1e3, "us")

	assign, err := l.repeat("core", "decode+assign", l.nodes, func() (t0, t1 time.Time, err error) {
		o, err := l.newCore(1)
		if err != nil {
			return t0, t1, err
		}
		t0 = time.Now()
		err = l.replay(func(nd service.PushNode) error {
			o.AssignNode(nd.U, nd.W, nd.Adj, nd.EW)
			return nil
		})
		t1 = time.Now()
		if err == nil && !slices.Equal(o.Assignments(), e.ref) {
			err = fmt.Errorf("decoded stream assigned differently from the reference")
		}
		return t0, t1, err
	})
	if err != nil {
		return err
	}
	l.rung("core.assign", assign, dec)

	push, err := l.repeat("oms", "decode+push", l.nodes, func() (t0, t1 time.Time, err error) {
		s, err := oms.NewSession(e.cfg)
		if err != nil {
			return t0, t1, err
		}
		t0 = time.Now()
		err = l.replay(func(nd service.PushNode) error {
			_, err := s.Push(nd.U, nd.W, nd.Adj, nd.EW)
			return err
		})
		t1 = time.Now()
		if err != nil {
			return t0, t1, err
		}
		res, err := s.Finish()
		if err == nil && !slices.Equal(res.Parts, e.ref) {
			err = fmt.Errorf("session pushes assigned differently from the reference")
		}
		return t0, t1, err
	})
	if err != nil {
		return err
	}
	l.set("oms.push_ns_per_node", (push-dec)/l.nodes, "ns")
	l.rung("oms.push", push, assign)

	ingest, err := l.repeat("service", "ingest", l.nodes, func() (time.Time, time.Time, error) { return l.ingest(false) })
	if err != nil {
		return err
	}
	l.rung("service.ingest", ingest, push)
	durable, err := l.repeat("service", "ingest_wal", l.nodes, func() (time.Time, time.Time, error) { return l.ingest(true) })
	if err != nil {
		return err
	}
	l.rung("service.ingest_wal", durable, ingest)
	return nil
}

// rung records a cumulative rung (total ns over the stream) as time per
// chunk, and its tax over the rung beneath.
func (l *ladder) rung(name string, ns, beneath float64) {
	l.set(name+"_us_per_chunk", ns/l.chunks/1e3, "us")
	l.set(name+".tax_us_per_chunk", (ns-beneath)/l.chunks/1e3, "us")
}

func (l *ladder) createSpec() service.CreateSpec {
	s := l.e.w.createSpec(l.e.stats, l.e.seed)
	return service.CreateSpec{
		N: s.N, M: s.M, TotalNodeWeight: s.TotalNodeWeight, TotalEdgeWeight: s.TotalEdgeWeight,
		K: s.K, Topology: s.Topology, Distances: s.Distances, Seed: s.Seed, Threads: s.Threads,
	}
}

// ingest replays the frames through Manager.Create + Session.Ingest
// (queue, pool, job), with or without a store that fsyncs every chunk.
func (l *ladder) ingest(useWAL bool) (t0, t1 time.Time, err error) {
	e := l.e
	cfg := service.Config{}
	if useWAL {
		dir, err := os.MkdirTemp(e.dir, "ingest-")
		if err != nil {
			return t0, t1, err
		}
		defer os.RemoveAll(dir)
		st, err := wal.Open(dir, wal.Options{SyncInterval: e.w.WALSync})
		if err != nil {
			return t0, t1, err
		}
		cfg.Store = st
	}
	mgr := service.NewManager(cfg)
	defer mgr.Close()
	s, err := mgr.Create(l.createSpec())
	if err != nil {
		return t0, t1, err
	}
	d := newDecoder()
	acked := make([]int32, 0, e.stats.N)
	t0 = time.Now()
	for _, f := range l.frames {
		nodes, err := d.decode(f)
		if err != nil {
			return t0, t1, err
		}
		var blocks []int32
		if e.w.Batch {
			blocks, err = s.IngestBatch(l.ctx, mgr.Pool(), nodes)
		} else {
			blocks, err = s.Ingest(l.ctx, mgr.Pool(), nodes)
		}
		if err != nil {
			return t0, t1, err
		}
		acked = append(acked, blocks...)
	}
	t1 = time.Now()
	if e.w.deterministic() && !slices.Equal(acked, e.ref) {
		err = fmt.Errorf("Session.Ingest assigned differently from the reference")
	}
	return t0, t1, err
}

// splitFrames cuts concatenated frames apart on their length headers.
func splitFrames(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= wire.FrameHeaderSize {
		n := wire.FrameHeaderSize + int(binary.LittleEndian.Uint32(b))
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// walDirect prices the log alone: verbatim frame appends and one Flush
// per chunk, fsyncing every chunk and at omsd's default 100 ms batching.
func (l *ladder) walDirect() error {
	for _, sync := range []time.Duration{0, 100 * time.Millisecond} {
		var appendNS, logBytes, fsyncs float64
		var flushUS []float64
		_, err := l.repeat("wal", fmt.Sprintf("append+flush_sync%dms", sync.Milliseconds()), l.nodes, func() (t0, t1 time.Time, err error) {
			dir, err := os.MkdirTemp(l.e.dir, "wal-")
			if err != nil {
				return t0, t1, err
			}
			defer os.RemoveAll(dir)
			fsyncs = 0
			st, err := wal.Open(dir, wal.Options{SyncInterval: sync, ObserveFsync: func(time.Duration) { fsyncs++ }})
			if err != nil {
				return t0, t1, err
			}
			lg, err := st.Create("ladder", l.createSpec())
			if err != nil {
				return t0, t1, err
			}
			defer lg.Close()
			appendNS = 0
			t0 = time.Now()
			for _, c := range l.frames {
				a := time.Now()
				for _, f := range splitFrames(c) {
					if err := lg.AppendNodeFrame(f); err != nil {
						return t0, t1, err
					}
				}
				b := time.Now()
				if err := lg.Flush(); err != nil {
					return t0, t1, err
				}
				appendNS += float64(b.Sub(a))
				flushUS = append(flushUS, float64(time.Since(b))/1e3)
			}
			t1 = time.Now()
			fi, err := os.Stat(st.LogPath("ladder"))
			if err == nil {
				logBytes = float64(fi.Size())
			}
			return t0, t1, err
		})
		if err != nil {
			return err
		}
		if sync == 0 {
			l.set("wal.append_ns_per_node", appendNS/l.nodes, "ns")
			l.set("wal.bytes_per_node", logBytes/l.nodes, "B")
			l.set("wal.flush_sync0_us_per_chunk", median(flushUS), "us")
		} else {
			l.set("wal.flush_sync100ms_us_per_chunk", median(flushUS), "us")
			l.set("wal.fsyncs_per_chunk_sync100ms", fsyncs/l.chunks, "count")
		}
	}
	return nil
}

// service replays the stream through the whole stack over loopback: the
// client, HTTP, the handler and the session queue; binary and NDJSON
// without a store, then binary with the workload's WAL policy.
func (l *ladder) service() error {
	beneath := l.out["service.ingest_us_per_chunk"].Value
	for _, r := range []struct {
		name        string
		binary, wal bool
	}{
		{"service.http", true, false},
		{"service.http_ndjson", false, false},
		{"service.http_wal", true, true},
	} {
		var rs *runStats
		var reg *service.Registry
		_, err := l.repeat("service", r.name[len("service."):], l.nodes, func() (t0, t1 time.Time, err error) {
			x := *l.e
			x.w.Service, x.w.Binary, x.w.Clients = true, r.binary, 1
			dir, err := os.MkdirTemp(l.e.dir, "http-")
			if err != nil {
				return t0, t1, err
			}
			defer os.RemoveAll(dir)
			if x.host, err = bootHost(dir, r.wal, x.w.WALSync, 1, r.binary); err != nil {
				return t0, t1, err
			}
			defer x.host.close()
			t0 = time.Now()
			rs = x.runService(l.ctx, 0, l.tr, l.root)
			t1 = time.Now()
			reg = x.host.mgr.Registry()
			if rs.failed > 0 {
				err = fmt.Errorf("%d of %d requests failed: %s", rs.failed, rs.attempted, rs.firstErr)
			}
			return t0, t1, err
		})
		if err != nil {
			return err
		}
		us := median(rs.pushMS) * 1e3
		l.set(r.name+"_us_per_chunk", us, "us")
		l.set(r.name+".tax_us_per_chunk", us-beneath, "us")
		if r.name == "service.http" {
			beneath = us // the NDJSON shim and the WAL are both priced over the binary, storeless request
		}
		l.http, l.reg = rs, reg
	}
	return nil
}
