// Service client example: stream a graph into the omsd daemon over HTTP
// and read each node's permanent block back while the upload is still in
// flight — the paper's on-the-fly assignment consumed over the network,
// through the typed oms/client package.
//
// By default the example is self-contained: it starts an in-process omsd
// server on a loopback port, plays the client against it, and shuts it
// down. Point it at a real daemon with -addr:
//
//	go run ./cmd/omsd &
//	go run ./examples/service -addr localhost:8080
//
// -binary switches the transfer to the v2 binary frame protocol
// (application/x-oms-frame); the assignments are identical either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"oms"
	"oms/client"
	"oms/internal/service"
)

const (
	k         = 64
	chunkSize = 4096
)

func main() {
	addr := flag.String("addr", "", "omsd address (empty = start one in-process)")
	binary := flag.Bool("binary", false, "use the v2 binary wire protocol instead of NDJSON")
	flag.Parse()
	if err := run(os.Stdout, *addr, *binary, 100_000); err != nil {
		log.Fatal(err)
	}
}

// run streams a Delaunay graph of n nodes through omsd at addr (or an
// in-process one when addr is empty) and writes its report to w. The
// last line compares the service's edge cut with the in-process
// reference and reads "identical" when they agree.
func run(w io.Writer, addr string, binary bool, n int32) error {
	base := "http://" + addr
	if addr == "" {
		mgr := service.NewManager(service.Config{})
		defer mgr.Close()
		srv := httptest.NewServer(service.NewServer(mgr))
		defer srv.Close()
		base = srv.URL
		fmt.Fprintf(w, "started in-process omsd at %s\n", base)
	}
	ctx := context.Background()
	cl := client.New(base, client.WithBinary(binary))

	// The graph a real client would receive from its own pipeline; here a
	// Delaunay mesh from the paper's benchmark families.
	fmt.Fprintf(w, "generating Delaunay graph, n=%d...\n", n)
	g := oms.GenDelaunay(n, 42)

	// Create a session declaring the stream's global stats and target.
	created, err := cl.Create(ctx, client.Spec{
		N: g.NumNodes(), M: g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(),
		TotalEdgeWeight: g.TotalEdgeWeight(),
		K:               k, Record: true,
	})
	if err != nil {
		return err
	}
	format := map[bool]string{true: "binary frames", false: "NDJSON"}[binary]
	fmt.Fprintf(w, "session %s created (lmax=%d, pushing %s)\n", created.ID, created.Lmax, format)

	// Push the nodes in chunks; each POST streams the chunk's permanent
	// assignments back.
	start := time.Now()
	var assigned int
	nodes := make([]client.Node, 0, chunkSize)
	for lo := int32(0); lo < g.NumNodes(); lo += chunkSize {
		hi := min(lo+chunkSize, g.NumNodes())
		nodes = nodes[:0]
		for u := lo; u < hi; u++ {
			nodes = append(nodes, client.Node{U: u, Adj: g.Neighbors(u)})
		}
		as, err := cl.Push(ctx, created.ID, nodes)
		if err != nil {
			return err
		}
		assigned += len(as)
	}
	fmt.Fprintf(w, "streamed %d nodes in %v (%.0f nodes/s)\n",
		assigned, time.Since(start).Round(time.Millisecond),
		float64(assigned)/time.Since(start).Seconds())

	// Finish: the summary carries edge cut and imbalance because the
	// session records its stream.
	sum, err := cl.Finish(ctx, created.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "finished: assigned=%d edge_cut=%d imbalance=%.4f\n",
		sum.Assigned, *sum.EdgeCut, *sum.Imbalance)

	// Cross-check against the same run in-process: the service is the
	// same algorithm behind a network surface, so the cut matches the
	// pull-based library call exactly.
	res, err := oms.PartitionGraph(g, k, oms.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "in-process reference edge_cut=%d — %s\n", res.EdgeCut(g),
		map[bool]string{true: "identical", false: "MISMATCH"}[res.EdgeCut(g) == *sum.EdgeCut])
	return nil
}
