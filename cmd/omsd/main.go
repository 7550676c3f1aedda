// Command omsd is the streaming partition daemon: it serves the online
// recursive multi-section over HTTP. Clients create a session declaring
// the stream's global stats and target (k blocks or a machine topology),
// push their nodes as NDJSON chunks, and read each node's permanent
// block back while the upload is still in flight — the paper's
// on-the-fly assignment as a network service.
//
// Create a session and stream a 4-node path graph into 2 blocks:
//
//	curl -s localhost:8080/v1/sessions -d '{"n":4,"m":3,"k":2}'
//	# => {"id":"s1-...","k":2,"n":4,"lmax":2}
//	printf '%s\n' '{"u":0,"adj":[1]}' '{"u":1,"adj":[0,2]}' \
//	              '{"u":2,"adj":[1,3]}' '{"u":3,"adj":[2]}' |
//	  curl -s localhost:8080/v1/sessions/$ID/nodes --data-binary @-
//	# => {"u":0,"b":0} {"u":1,"b":0} {"u":2,"b":1} {"u":3,"b":1}
//	curl -s -X POST localhost:8080/v1/sessions/$ID/finish
//
// With -data-dir the daemon is durable: every accepted push is logged
// with its assigned block to a per-session WAL before it is
// acknowledged, the log is all that is written, and a restarted daemon
// replays each log in full to rebuild sealed sessions' results and
// resume unsealed sessions at the exact next node (GET
// /v1/sessions/{id} reports "assigned", where to resume); /v1/readyz
// answers 503 until that replay is done.
//
// POST /v1/sessions/{id}/batch is the high-throughput ingest path: the
// same NDJSON lines, grouped into large batches, each admitted as one
// atomic group, assigned in order exactly as the same per-node pushes
// would be, and group-committed to the WAL as one frame.
//
// Sessions may be open-ended: create with "n": 0 (or "adaptive": true,
// optionally alongside rough hints in n/m/total weights) and the daemon
// estimates the stream's global stats online, re-adapting Fennel's
// alpha and the per-block capacity targets as the estimates ratchet.
// GET /v1/sessions/{id} reports the observed and estimated totals;
// finish reconciles against the true totals — with -data-dir it also
// runs one reconcile pass over the sealed WAL, restoring the declared-
// stats balance guarantee — and reports the projection error.
//
// Finished sessions can be refined in the background: POST
// /v1/sessions/{id}/refine replays the session's WAL-recorded stream
// through extra restream passes (the paper's remapping extension) on
// -refine-workers idle cores and publishes each improved assignment as
// a new immutable result version, served via GET
// /v1/sessions/{id}/result?version=N|latest|best. Versions persist like
// everything else under -data-dir, so a crash keeps the best completed
// version.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"oms/internal/cluster"
	"oms/internal/promtext"
	"oms/internal/service"
	"oms/internal/store"
	"oms/internal/telemetry"
	"oms/internal/trace"
	"oms/internal/wal"
)

// parsePeers parses -cluster-peers: "n1=http://a:8080,n2=http://b:8080".
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("omsd: -cluster-peers entry %q is not id=url", part)
		}
		peers[id] = strings.TrimRight(url, "/")
	}
	if len(peers) == 0 {
		return nil, errors.New("omsd: cluster mode requires a -cluster-peers list")
	}
	return peers, nil
}

func main() {
	if err := run(context.Background(), os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
}

// run starts the daemon and blocks until ctx is canceled or a shutdown
// signal arrives. If ready is non-nil it receives the bound address once
// the listener is up (tests use it with -addr :0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("omsd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxSessions := fs.Int("max-sessions", 1024, "concurrent session cap")
	ttl := fs.Duration("ttl", 5*time.Minute, "idle session eviction TTL")
	workers := fs.Int("workers", 0, "session jobs running at once, each on its request's goroutine (0 = GOMAXPROCS)")
	maxNodes := fs.Int("max-nodes", 1<<26, "per-session declared node cap")
	maxTotalNodes := fs.Int64("max-total-nodes", 1<<28, "aggregate declared node budget across live sessions")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	dataDir := fs.String("data-dir", "", "session durability directory; empty keeps sessions in memory only")
	walSync := fs.Duration("wal-sync", 100*time.Millisecond, "batched WAL fsync interval (0 = fsync every chunk)")
	refineWorkers := fs.Int("refine-workers", 1, "background refinement workers (finished sessions restreamed concurrently)")
	refinePasses := fs.Int("refine-passes", 1, "default restream passes when POST .../refine omits \"passes\"")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this side address (empty = off; keep it off the public listener)")
	logJSON := fs.Bool("log-json", false, "emit structured JSON event lines on stderr instead of prose logs")
	traceRing := fs.Int("trace-ring", 2048, "recent traces retained for GET /v1/traces (plus a flight recorder for slow/error traces)")
	traceSample := fs.Int("trace-sample", 16, "head-sample 1 in N requests without a traceparent header (0 = only explicit sampled traceparents)")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "traces at least this long are pinned in the flight recorder (0 = errors only)")
	nodeID := fs.String("node-id", "", "this node's id in cluster mode (requires -cluster-peers and -data-dir); empty runs single-node")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated id=http://host:port cluster member list, including this node")
	replAck := fs.String("repl-ack", "async", "replication ack mode: async (ack after local durability) or sync (ack after the follower confirms)")
	replAckTimeout := fs.Duration("repl-ack-timeout", 2*time.Second, "sync-mode bound on waiting for a follower ack before degrading that flush to async")
	peerProbe := fs.Duration("peer-probe", 500*time.Millisecond, "cluster peer health-probe interval")
	peerFail := fs.Int("peer-fail", 3, "consecutive failed probes before a peer is declared dead and its sessions fail over")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxNodes < 1 || *maxNodes > math.MaxInt32 {
		return fmt.Errorf("omsd: -max-nodes %d outside [1, %d]", *maxNodes, math.MaxInt32)
	}
	if *refineWorkers < 1 || *refinePasses < 1 {
		return fmt.Errorf("omsd: -refine-workers %d and -refine-passes %d must be at least 1", *refineWorkers, *refinePasses)
	}

	// Structured events replace the prose log lines when -log-json is
	// set; infof keeps the prose for the default (human) mode.
	var ev *telemetry.Logger
	if *logJSON {
		ev = telemetry.New(os.Stderr)
	}
	infof := func(format string, args ...any) {
		if !*logJSON {
			log.Printf(format, args...)
		}
	}

	// The registry exists before the manager so the WAL store (created
	// first — recovery needs it) can observe into the same histograms
	// the manager exports, and so process-level gauges register here too.
	reg := promtext.NewRegistry()
	reg.GaugeFunc("omsd_build_info", "constant 1; the help text carries the build's "+runtime.Version(), func() int64 { return 1 })
	reg.GaugeFunc("omsd_goroutines", "live goroutines", func() int64 { return int64(runtime.NumGoroutine()) })
	reg.GaugeFunc("omsd_heap_alloc_bytes", "bytes of allocated heap objects", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	})
	reg.GaugeFunc("omsd_gc_pause_total_ns", "cumulative GC stop-the-world pause", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.PauseTotalNs)
	})

	// The trace recorder predates the manager for the same reason the
	// registry does: sessions and the HTTP layer share it. -trace-sample
	// 0 means "never spontaneously sample", which the recorder spells -1
	// (its 0 is "use the default rate").
	sampleEvery := *traceSample
	if sampleEvery <= 0 {
		sampleEvery = -1
	}
	tracer := trace.NewRecorder(trace.Options{
		RingSize:      *traceRing,
		SampleEvery:   sampleEvery,
		SlowThreshold: *traceSlow,
	})

	var sessionStore store.Store
	var walStore *wal.Store
	if *dataDir != "" {
		st, err := wal.Open(*dataDir, wal.Options{
			SyncInterval:  *walSync,
			ObserveAppend: reg.Histogram(service.WALAppendHistogram, "WAL record encode+write time per append").Observe,
			ObserveFsync:  reg.Histogram(service.WALFsyncHistogram, "WAL fsync stall per forced or batched sync").Observe,
		})
		if err != nil {
			return fmt.Errorf("omsd: open data dir: %w", err)
		}
		sessionStore, walStore = st, st
	}

	// Cluster mode: the node decorates the store (WAL shipping to each
	// session's follower), routes misrouted sessions (ClusterView), and
	// receives replication streams (the /v1/replica handler).
	var node *cluster.Node
	var clusterView service.ClusterView
	var replicaHandler http.Handler
	if *nodeID != "" {
		if walStore == nil {
			return errors.New("omsd: cluster mode requires -data-dir (replication ships the WAL)")
		}
		peers, err := parsePeers(*clusterPeers)
		if err != nil {
			return err
		}
		// No Options: a replica syncs on the follower's ack tick, not on
		// -wal-sync.
		replicas, err := wal.Open(filepath.Join(*dataDir, "replica"), wal.Options{})
		if err != nil {
			return fmt.Errorf("omsd: open replica dir: %w", err)
		}
		node, err = cluster.NewNode(cluster.Config{
			Self:          *nodeID,
			Peers:         peers,
			Store:         walStore,
			Replicas:      replicas,
			AckMode:       *replAck,
			AckTimeout:    *replAckTimeout,
			ProbeInterval: *peerProbe,
			FailThreshold: *peerFail,
			Registry:      reg,
			Tracer:        tracer,
			Logf:          infof,
		})
		if err != nil {
			return fmt.Errorf("omsd: %w", err)
		}
		defer node.Close()
		sessionStore, clusterView, replicaHandler = node, node, node
		infof("omsd cluster mode: node %s of %d peers, %s acks", *nodeID, len(peers), *replAck)
	} else if *clusterPeers != "" {
		return errors.New("omsd: -cluster-peers requires -node-id")
	}

	mgr := service.NewManager(service.Config{
		MaxSessions:   *maxSessions,
		SessionTTL:    *ttl,
		Workers:       *workers,
		MaxNodes:      int32(*maxNodes),
		MaxTotalNodes: *maxTotalNodes,
		Store:         sessionStore,
		RefineWorkers: *refineWorkers,
		RefinePasses:  *refinePasses,
		Registry:      reg,
		Events:        ev,
		Tracer:        tracer,
		Cluster:       clusterView,
		Replica:       replicaHandler,
	})
	defer mgr.Close()
	if node != nil {
		node.Bind(mgr)
	}

	recovered := 0
	if sessionStore != nil {
		n, err := mgr.RecoverSessions()
		if err != nil {
			// Partial recovery is served; the skipped sessions' data
			// stays on disk for inspection.
			infof("omsd: session recovery: %v", err)
		}
		if n > 0 {
			infof("omsd recovered %d session(s) from %s", n, *dataDir)
		}
		recovered = n
	}
	// Ready only now: /v1/readyz answered 503 while recovery replayed
	// logs, so a balancer never routes at a daemon mid-rebuild.
	mgr.SetReady()

	if *pprofAddr != "" {
		// A side listener, never the public mux: profiles expose heap
		// contents and must stay on an operator-only port.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("omsd: pprof listen: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", httppprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		psrv := &http.Server{Handler: pmux}
		go func() { _ = psrv.Serve(pln) }()
		defer psrv.Close()
		infof("omsd pprof on http://%s/debug/pprof/", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: service.NewServer(mgr)}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	infof("omsd listening on %s", ln.Addr())
	ev.Emit(telemetry.EventDaemonReady, map[string]any{
		"addr": ln.Addr().String(), "recovered": recovered, "go": runtime.Version(),
	})
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	infof("omsd shutting down (draining up to %s)", *drain)
	ev.Emit(telemetry.EventDaemonShutdown, map[string]any{"drain_ms": drain.Milliseconds()})
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("omsd: drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
