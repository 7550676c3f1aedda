package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Spec is BENCHMARK.json: the names, units, directions and worsening
// bounds the harness is held to.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one declared metric; Bound is the share of the median
// by which it may worsen (end-to-end metrics only).
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Agreement is the self-agreement of one end-to-end metric on one
// workload over the runs of a self-check.
type Agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"` // (q3-q1)/median
	Drift    float64 `json:"drift"`  // how much worse the second half's median is than the first's, as a share
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// worse returns by what share of a the value b is worse than a.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreement judges one metric's values the way the benchmark's driver
// does: the interquartile spread must stay within the bound (set-up time
// excepted), and the second half's median may not be worse than the
// first half's by more than the bound.
func agreement(workload string, m SpecMetric, vals []float64) Agreement {
	a := Agreement{Workload: workload, Metric: m.Name, Bound: m.Bound}
	a.Q1, a.Median, a.Q3 = quartiles(vals)
	a.Spread = spread(vals)
	h := len(vals) / 2
	a.Drift = worse(median(vals[:h]), median(vals[h:]), m.Better)
	a.OK = a.Drift <= m.Bound && (m.Name == "setup_s" || a.Spread <= m.Bound)
	return a
}

// SelfCheck runs every given workload n times on consecutive seeds and
// reports whether the end-to-end metrics agree with themselves within
// the committed bounds. Progress goes to log.
func SelfCheck(ctx context.Context, spec *Spec, ws []Workload, n int, opt Options, log io.Writer) ([]Agreement, bool, error) {
	if n < 4 {
		return nil, false, fmt.Errorf("selfcheck needs at least 4 runs, got %d", n)
	}
	var out []Agreement
	ok := true
	for _, w := range ws {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			o := opt
			o.Seed = opt.Seed + uint64(i)
			rep, err := Run(ctx, w, o)
			if err != nil {
				return nil, false, err
			}
			if !rep.Correct {
				return nil, false, fmt.Errorf("%s seed %d: incorrect: %v", w.Name, o.Seed, rep.Errors)
			}
			for name, m := range rep.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			fmt.Fprintf(log, "selfcheck %s run %d/%d seed %d:", w.Name, i+1, n, o.Seed)
			for _, m := range spec.EndToEnd {
				fmt.Fprintf(log, " %s=%.6g", m.Name, rep.Metrics[m.Name].Value)
			}
			fmt.Fprintln(log)
		}
		for _, m := range spec.EndToEnd {
			if len(vals[m.Name]) != n {
				return nil, false, fmt.Errorf("%s does not print %s, which the spec declares", w.Name, m.Name)
			}
			a := agreement(w.Name, m, vals[m.Name])
			ok = ok && a.OK
			out = append(out, a)
			fmt.Fprintf(log, "%-22s %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% drift %+6.2f%% bound %4.0f%% ok=%v\n",
				a.Workload, a.Metric, a.Median, a.Q1, a.Q3, 100*a.Spread, 100*a.Drift, 100*a.Bound, a.OK)
		}
	}
	return out, ok, nil
}
