package benchmark

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"oms"
	"oms/client"
	"oms/internal/service"
	"oms/internal/wal"
)

// host is the omsd handler served inside this process on loopback,
// with the client that drives it. Nothing here outlives close.
type host struct {
	mgr *service.Manager
	srv *httptest.Server
	tr  *http.Transport
	cl  *client.Client
}

// bootHost starts the service the way cmd/omsd wires it: one registry
// shared by the manager and the WAL store's latency observers.
func bootHost(dir string, useWAL bool, walSync time.Duration, clients int, binary bool) (*host, error) {
	reg := service.NewRegistry()
	cfg := service.Config{Registry: reg}
	if useWAL {
		st, err := wal.Open(dir, wal.Options{
			SyncInterval:  walSync,
			ObserveAppend: reg.Histogram(service.WALAppendHistogram, "WAL record encode+write time per append").Observe,
			ObserveFsync:  reg.Histogram(service.WALFsyncHistogram, "WAL fsync stall per forced or batched sync").Observe,
		})
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		cfg.Store = st
	}
	h := &host{mgr: service.NewManager(cfg)}
	h.mgr.SetReady()
	h.srv = httptest.NewServer(service.NewServer(h.mgr))
	h.tr = &http.Transport{MaxIdleConnsPerHost: clients}
	h.cl = client.New(h.srv.URL, client.WithHTTPClient(&http.Client{Transport: h.tr}), client.WithBinary(binary))
	return h, nil
}

// close stops the listener and the manager's goroutines and waits for
// them; the caller removes the directory.
func (h *host) close() {
	h.tr.CloseIdleConnections()
	h.srv.Close()
	h.mgr.Close()
}

// env is everything one set-up produces for the timed region.
type env struct {
	w     Workload
	seed  uint64
	dir   string
	g     *oms.Graph // nil once dropped (Disk)
	src   oms.Source
	stats oms.StreamStats
	cfg   oms.SessionConfig
	k     int32
	lmax  int64
	ref   []int32         // reference assignment, same commit's oms.Session over the same stream
	top   *oms.Topology   // the machine J is priced on
	push  [][]client.Node // service workloads: the stream cut into requests
	host  *host
}

// setUp generates the inputs from the seed, writes the wire file, boots
// the service, computes the reference and runs the warm-up, all under
// a fresh directory inside tmp. Its wall time is the setup_s metric.
func setUp(ctx context.Context, w Workload, seed uint64, tmp string) (_ *env, err error) {
	dir, err := os.MkdirTemp(tmp, w.Name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.g, err = w.generate(seed); err != nil {
		return nil, err
	}
	e.src = oms.NewMemorySource(e.g)
	if e.stats, err = e.src.Stats(); err != nil {
		return nil, err
	}
	if e.cfg, err = w.sessionConfig(e.stats, seed); err != nil {
		return nil, err
	}
	if e.top, err = oms.NewTopology(w.Machine, Distances); err != nil {
		return nil, err
	}
	if w.Service {
		e.push = chunks(e.g, w.Chunk)
	}
	if w.Disk {
		path := filepath.Join(dir, "stream.wire")
		if err = oms.WriteWireFile(path, e.g); err != nil {
			return nil, err
		}
		e.g, e.src = nil, oms.NewWireSource(path)
	}

	// Reference: the push session over the same stream and seed. Every
	// sequential path — Partition, Map, the service — must reproduce it.
	s, err := oms.NewSession(e.cfg)
	if err != nil {
		return nil, err
	}
	e.k = s.K()
	var perr error
	err = e.src.ForEach(func(u, vw int32, adj, ew []int32) {
		if _, err := s.Push(u, vw, adj, ew); err != nil && perr == nil {
			perr = err
		}
	})
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	res, err := s.Finish()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	e.ref, e.lmax = res.Parts, res.Lmax
	if e.top.Spec.K() != e.k {
		return nil, fmt.Errorf("machine %s has %d PEs, the run has %d blocks", w.Machine, e.top.Spec.K(), e.k)
	}

	if w.Service {
		if e.host, err = bootHost(dir, w.WAL, w.WALSync, w.Clients, w.Binary); err != nil {
			return nil, err
		}
	}
	// Warm-up: one full unit of the timed work, checked like any other,
	// so that lazy set-up is finished before timing starts.
	warm := e.runFor(ctx, 0, nil, 0)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %s", warm.failed, warm.attempted, warm.firstErr)
	}
	debug.FreeOSMemory()
	return e, nil
}

// runFor drives the workload's timed loop for d (at least one full
// unit: a pass, or a session per client).
func (e *env) runFor(ctx context.Context, d time.Duration, tr *Tracer, root int) *runStats {
	if e.w.Service {
		return e.runService(ctx, d, tr, root)
	}
	return e.runLibrary(ctx, d, tr, root)
}

// close releases the service and removes the set-up's directory.
func (e *env) close() {
	if e.host != nil {
		e.host.close()
		e.host = nil
	}
	_ = os.RemoveAll(e.dir)
}

// quality is what the harness recomputes from an assignment.
type quality struct {
	cutFrac      float64 // cut edge weight ÷ total edge weight
	maxLoadRatio float64 // max block load·k ÷ total node weight (imbalance + 1)
	costPerEdge  float64 // J(C,D,Π) ÷ total edge weight
}

// verify re-streams src and checks parts from scratch: every streamed
// node assigned in [0,k), no block above lmax, and the cut and the
// mapping cost recomputed edge by edge. It is the harness's own
// arithmetic, not the program's.
func verify(src oms.Source, parts []int32, k int32, lmax int64, top *oms.Topology) (quality, error) {
	st, err := src.Stats()
	if err != nil {
		return quality{}, err
	}
	if int32(len(parts)) != st.N {
		return quality{}, fmt.Errorf("result covers %d of %d nodes", len(parts), st.N)
	}
	for u, b := range parts {
		if b < 0 || b >= k {
			return quality{}, fmt.Errorf("node %d assigned to block %d outside [0,%d)", u, b, k)
		}
	}
	loads := make([]int64, k)
	var total, cut2, edges2 int64
	var cost2 float64
	err = src.ForEach(func(u, vw int32, adj, ew []int32) {
		pu := parts[u]
		loads[pu] += int64(vw)
		total += int64(vw)
		for i, v := range adj {
			wgt := int64(1)
			if ew != nil {
				wgt = int64(ew[i])
			}
			edges2 += wgt
			if pv := parts[v]; pv != pu {
				cut2 += wgt
				cost2 += float64(wgt) * top.PEDistance(pu, pv)
			}
		}
	})
	if err != nil {
		return quality{}, err
	}
	var maxLoad int64
	for b, l := range loads {
		if l > lmax {
			return quality{}, fmt.Errorf("block %d holds %d > Lmax %d", b, l, lmax)
		}
		maxLoad = max(maxLoad, l)
	}
	if edges2 == 0 || total == 0 {
		return quality{}, fmt.Errorf("empty stream")
	}
	// Every undirected edge was seen from both ends: the halves cancel.
	return quality{
		cutFrac:      float64(cut2) / float64(edges2),
		maxLoadRatio: float64(maxLoad) * float64(k) / float64(total),
		costPerEdge:  cost2 / float64(edges2),
	}, nil
}
