// Command omsbm is the benchmark's one process: it generates the inputs
// from -seed, hosts omsd's handler in-process, drives the workloads,
// checks their outputs and prints every metric by name with its unit.
// It starts no other process and leaves nothing listening or on disk.
//
//	omsbm -workload svc_wire_c64_mem -seed 7 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: for a single
// workload {"correct","attempted","failed","metrics"}, for -workload all
// and for -selfcheck a summary that ends with "claim": null — this
// benchmark measures, it claims nothing. Tables go to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"oms/benchmark"
)

// runBudget is the wall-clock allowance per run of one workload: a run
// that overstays is cancelled and the command exits non-zero, never hangs.
const runBudget = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "length of the timed region (0: run_seconds of the spec)")
	trace := flag.Int("trace", 0, "1 re-runs the workload under the tracer and prints the per-layer metrics instead")
	out := flag.String("out", "", "directory for trace-<workload>.json and result-<workload>.json (empty: not written)")
	tmp := flag.String("tmp", ".bench_build", "directory the run may write under; what it creates there it removes")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark's contract: names, units, bounds")
	selfcheck := flag.Int("selfcheck", 0, "run every selected workload N times on consecutive seeds and check the end-to-end metrics against their bounds")
	flag.Parse()

	spec, err := benchmark.LoadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	var ws []benchmark.Workload
	if *workload == "all" {
		ws = benchmark.Workloads
	} else if w, ok := benchmark.Find(*workload); ok {
		ws = []benchmark.Workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return fail(err)
	}
	root, err := os.MkdirTemp(*tmp, "omsbm-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(root)

	runs := len(ws) * max(*selfcheck, 1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, time.Duration(runs)*runBudget)
	defer cancel()
	go func() {
		// Last resort: if winding down after a signal or the deadline
		// itself hangs, remove the files and leave.
		<-ctx.Done()
		time.Sleep(15 * time.Second)
		os.RemoveAll(root)
		os.Exit(3)
	}()

	opt := benchmark.Options{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Tmp: root, Out: *out}
	opt.Host = benchmark.Fingerprint()
	fmt.Fprintf(os.Stderr, "host: %+v\n", opt.Host)

	if *selfcheck > 0 {
		opt.Trace = false
		as, ok, err := benchmark.SelfCheck(ctx, spec, ws, *selfcheck, opt, os.Stderr)
		if err != nil {
			return fail(err)
		}
		printJSON(map[string]any{"host": opt.Host, "runs": *selfcheck, "agreement": as, "ok": ok, "claim": nil})
		if !ok {
			return 1
		}
		return 0
	}

	code := 0
	var reports []*benchmark.Report
	for _, w := range ws {
		rep, err := benchmark.Run(ctx, w, opt)
		if err != nil {
			return fail(err)
		}
		table(rep, spec)
		if *out != "" {
			if err := writeResult(*out, rep); err != nil {
				return fail(err)
			}
		}
		if !rep.Correct {
			code = 1
		}
		reports = append(reports, rep)
	}
	if len(reports) == 1 && *workload != "all" {
		r := reports[0]
		printJSON(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics})
	} else {
		printJSON(map[string]any{"host": opt.Host, "results": reports, "claim": nil})
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "omsbm:", err)
	return 1
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps, slices, strings and finite numbers go in
	}
	fmt.Println(string(b))
}

func writeResult(dir string, rep *benchmark.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := "result-" + rep.Workload + ".json"
	if rep.Traced {
		name = "layers-" + rep.Workload + ".json"
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// table prints every metric by name with its unit, the sample count
// where one applies, and the direction and bound the spec gives it.
func table(rep *benchmark.Report, spec *benchmark.Spec) {
	bounded := map[string]benchmark.SpecMetric{}
	for _, m := range spec.EndToEnd {
		bounded[m.Name] = m
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "\n%s  seed=%d traced=%v  correct=%v attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Traced, rep.Correct, rep.Attempted, rep.Failed)
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "  error:", e)
	}
	for _, n := range names {
		m := rep.Metrics[n]
		line := fmt.Sprintf("  %-40s %14.6g %-10s", n, m.Value, m.Unit)
		if c, ok := rep.Samples[n]; ok {
			line += fmt.Sprintf(" n=%-7d", c)
		}
		if d, ok := bounded[n]; ok {
			line += fmt.Sprintf(" better=%s bound=%.0f%%", d.Better, 100*d.Bound)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
