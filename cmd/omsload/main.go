// Command omsload drives a live omsd with an open-loop production
// workload and turns the run into a latency-SLO verdict: a fixed
// arrival schedule (intended-start timestamps per request, so
// coordinated omission cannot hide server stalls) over a weighted mix
// of push streams, /batch group pushes, adaptive sessions, refine
// kicks, and status/result reads, with bounded session churn and
// deterministic seeded adjacency. Workloads are declared in committed
// profile files (profiles/smoke_1k.env, profiles/heavy_10k.env).
//
//	omsload -url http://localhost:7600 -profile profiles/smoke_1k.env -out load/
//	omsload -url http://localhost:7600 -profile profiles/heavy_10k.env \
//	        -thresholds 'push_p99_ms<5,batch_p99_ms<10'
//	omsload -url http://localhost:7600 -wait-ready 15s -wait-only   # readiness gate only
//	omsload -targets http://n1:7600,http://n2:7600,http://n3:7600 \
//	        -profile profiles/smoke_1k.env -out load/               # cluster mode
//
// Outputs land in -out: samples.csv (one row per sample interval) and
// summary.json (per-class p50/p95/p99 and the threshold verdict), the
// same shapes omsstat writes for the server-side view — run omsstat
// against /metrics concurrently and the two cross-check. A run
// interrupted by SIGINT/SIGTERM still flushes both files, marked
// "partial": true.
//
// Exit codes: 0 all thresholds hold, 1 at least one violated, 2 usage,
// setup, or output error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oms/internal/load"
	"oms/internal/slo"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer, client *http.Client) int {
	fs := flag.NewFlagSet("omsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url        = fs.String("url", "http://localhost:7600", "omsd base URL")
		targets    = fs.String("targets", "", "comma-separated base URLs of a cluster's members (overrides -url; requests route to session owners and retry through failover)")
		profile    = fs.String("profile", "", "workload profile file (profiles/*.env); empty runs the defaults")
		out        = fs.String("out", ".", "directory for samples.csv and summary.json")
		duration   = fs.Duration("duration", 0, "override the profile's DURATION")
		rps        = fs.Float64("rps", 0, "override the profile's base RPS")
		thresholds = fs.String("thresholds", "", "override the profile's THRESHOLDS (push_p99_ms<5,... grammar)")
		waitReady  = fs.Duration("wait-ready", 15*time.Second, "poll /v1/readyz with backoff up to this long before loading (0 = skip)")
		waitOnly   = fs.Bool("wait-only", false, "only wait for readiness, then exit (the CI boot gate)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p := load.DefaultProfile()
	if *profile != "" {
		var err error
		if p, err = load.ParseProfile(*profile); err != nil {
			fmt.Fprintln(stderr, "omsload:", err)
			return 2
		}
	}
	if *duration > 0 {
		p.Duration = *duration
	}
	if *rps > 0 {
		p.RPS = *rps
	}
	if *thresholds != "" {
		ths, err := slo.ParseThresholds(*thresholds)
		if err != nil {
			fmt.Fprintln(stderr, "omsload:", err)
			return 2
		}
		p.Thresholds = ths
	}

	var targetList []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targetList = append(targetList, t)
		}
	}
	if len(targetList) > 0 {
		*url = targetList[0]
	}

	if *waitReady > 0 {
		ready := targetList
		if len(ready) == 0 {
			ready = []string{*url}
		}
		for _, u := range ready {
			if err := load.WaitReady(ctx, client, u, *waitReady); err != nil {
				fmt.Fprintln(stderr, "omsload:", err)
				return 2
			}
		}
	}
	if *waitOnly {
		fmt.Fprintln(stdout, "omsload: ready")
		return 0
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "omsload:", err)
		return 2
	}
	_, code := load.Run(ctx, load.Config{
		Profile: p,
		URL:     *url,
		Targets: targetList,
		OutDir:  *out,
		Client:  client,
		Stdout:  stdout,
		Stderr:  stderr,
	})
	return code
}
