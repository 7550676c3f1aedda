// Package benchmark is the repository's performance ledger: one
// in-process harness that prices a node stream end to end (throughput,
// partition quality, push latency, memory, set-up) and layer by layer
// (stream, core, onepass, oms, wire, wal, service, client). It hosts the
// omsd handler inside this process behind a loopback httptest server and
// drives it with oms/client; it starts no child process.
package benchmark

import (
	"fmt"
	"time"

	"oms"
	"oms/client"
)

// Distances are the paper's level distances; every workload prices the
// mapping objective J with them.
const Distances = "1:10:100"

// Workload is one set of inputs and the way they are driven.
type Workload struct {
	Name string

	// Graph family and size: "rgg" (random geometric, low degree) or
	// "rmat" (social RMAT, skewed degrees; LogM edges drawn).
	Family     string
	LogN, LogM int

	// K partitions into K blocks over the base-4 artificial hierarchy;
	// Topology (when set) maps onto that machine instead.
	K        int32
	Topology string
	// Machine is the hierarchy J is priced on: the mapping topology, or
	// for a plain partition a machine with K processing elements whose
	// groups nest in the artificial base-4 tree (leaf ids follow it).
	Machine string

	// Chunk is the number of nodes one push carries: a span of the
	// stream for the library workloads, one request for the service ones.
	Chunk int
	// Disk streams the graph from a wire file written at set-up, with
	// the in-memory graph dropped before timing.
	Disk bool

	// Service workloads drive the in-process omsd handler over loopback.
	Service bool
	Binary  bool          // wire frames, else NDJSON
	Batch   bool          // POST .../batch (atomic, parallel) instead of .../nodes
	Threads int           // session assignment width; > 1 makes results non-deterministic
	WAL     bool          // durable store under the temp directory
	WALSync time.Duration // fsync batching interval; 0 fsyncs every chunk
	Clients int           // closed-loop clients, or the in-flight cap of the open loop
	Rate    float64       // open loop: requests per second on a fixed schedule; 0: closed loop
}

// Workloads is the committed set. Sizes are chosen so that one set-up
// takes about a second and the timed region holds many repetitions.
var Workloads = []Workload{
	{
		// The paper's headline regime: k = 4096 over a low-degree graph in
		// memory, so the deep tree walk in core does nearly all the work
		// and wire, wal and service do none.
		Name: "part_rgg_k4096", Family: "rgg", LogN: 19,
		K: 4096, Machine: "4:16:64", Chunk: 4096,
	},
	{
		// The other end: skewed degrees, a 3-level tree, the stream read
		// from a wire file. Decode and the adjacency gather dominate, the
		// tree walk is small, and peak RSS is the O(n+k) streaming figure.
		// The only workload that maps onto a real topology.
		Name: "map_rmat_disk", Family: "rmat", LogN: 17, LogM: 21,
		Topology: "4:16:8", Machine: "4:16:8", Chunk: 1024, Disk: true,
	},
	{
		// What turns ~25 us of engine work into a push: 64-node binary
		// requests from one closed-loop client, no store. Client, HTTP and
		// the session queue dominate; core is well under half and wal is
		// idle. One client, because two of them plus the server on two
		// cores measured the scheduler: the spread halved with one.
		Name: "svc_wire_c64_mem", Family: "rgg", LogN: 17,
		K: 256, Machine: "4:16:4", Chunk: 64, Service: true, Binary: true, Clients: 1,
	},
	{
		// Byte-identical traffic with a WAL that fsyncs every chunk: this
		// workload minus the one above is the durability tax.
		Name: "svc_wire_c64_wal", Family: "rgg", LogN: 17,
		K: 256, Machine: "4:16:4", Chunk: 64, Service: true, Binary: true, Clients: 1, WAL: true,
	},
	{
		// The same layers used differently: a fixed-rate open loop over
		// whole session lifecycles, NDJSON through the transcoding shim,
		// atomic 1024-node batches fanned out on 2 threads, group-commit
		// frames, WAL at omsd's default 100 ms sync. A win on the binary
		// or per-chunk path that costs this one shows here. The rate is
		// about a third of the closed-loop capacity measured on 2 cores.
		Name: "svc_churn_ndjson_open", Family: "rgg", LogN: 16,
		K: 256, Machine: "4:16:4", Chunk: 1024, Service: true, Batch: true, Threads: 2,
		Clients: 2, WAL: true, WALSync: 100 * time.Millisecond, Rate: 120,
	},
}

// Find returns the committed workload with the given name.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Toy shrinks a workload to a scale the harness's own tests can run in
// milliseconds while keeping every code path it takes.
func (w Workload) Toy() Workload {
	w.LogN = 11
	if w.LogM > 0 {
		w.LogM = 14
	}
	w.Chunk = max(w.Chunk/16, 8)
	if w.Rate > 0 {
		w.Rate = 2000
	}
	return w
}

// deterministic reports whether every run must reproduce the reference
// assignment bit for bit (sequential assignment does; the parallel
// fan-out reads neighbours racily and does not).
func (w Workload) deterministic() bool { return w.Threads <= 1 }

// generate builds the workload's graph from the seed alone.
func (w Workload) generate(seed uint64) (*oms.Graph, error) {
	switch w.Family {
	case "rgg":
		return oms.GenRGG2D(1<<w.LogN, seed), nil
	case "rmat":
		return oms.GenRMATSocial(1<<w.LogN, 1<<w.LogM, seed), nil
	}
	return nil, fmt.Errorf("benchmark: unknown graph family %q", w.Family)
}

// sessionConfig is the library-side description of the run: what the
// reference is computed with and what the service must reproduce.
func (w Workload) sessionConfig(st oms.StreamStats, seed uint64) (oms.SessionConfig, error) {
	cfg := oms.SessionConfig{Stats: st, K: w.K, Options: oms.Options{Seed: seed, Threads: w.Threads}}
	if w.Topology != "" {
		top, err := oms.NewTopology(w.Topology, Distances)
		if err != nil {
			return cfg, err
		}
		cfg.Topology, cfg.K = top, 0
	}
	return cfg, nil
}

// createSpec is the same description as the client declares it.
func (w Workload) createSpec(st oms.StreamStats, seed uint64) client.Spec {
	spec := client.Spec{
		N: st.N, M: st.M, TotalNodeWeight: st.TotalNodeWeight, TotalEdgeWeight: st.TotalEdgeWeight,
		K: w.K, Seed: seed, Threads: w.Threads,
	}
	if w.Topology != "" {
		spec.K, spec.Topology, spec.Distances = 0, w.Topology, Distances
	}
	return spec
}

// chunks cuts the graph's natural-order stream into pushes of size
// nodes. The adjacency slices alias the graph.
func chunks(g *oms.Graph, size int) [][]client.Node {
	n := int(g.NumNodes())
	out := make([][]client.Node, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		c := make([]client.Node, 0, hi-lo)
		for u := int32(lo); u < int32(hi); u++ {
			ew := g.EdgeWeights(u)
			if len(ew) == 0 {
				ew = nil
			}
			c = append(c, client.Node{U: u, W: g.NodeWeight(u), Adj: g.Neighbors(u), EW: ew})
		}
		out = append(out, c)
	}
	return out
}
