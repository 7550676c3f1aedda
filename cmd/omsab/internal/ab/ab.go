// Package ab is the round loop and the statistics of omsab, the
// in-process A/B of two copies of internal/core. omsab generates a main
// that imports both copies and hands one Variant per copy to Main, so
// both walks run in one process over the same graphs, round after round,
// each pass between two readings of a calibration probe (see probe).
package ab

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/stream"
)

// A Variant prepares one run of a core copy over tree for a stream with
// stats st. The returned pass is what a round times: one sequential Run.
type Variant func(tree *hierarchy.Tree, st stream.Stats) (pass func(stream.Source) ([]int32, error), err error)

// abCase is one graph and tree of the A/B.
type abCase struct {
	Name  string
	Graph func(scale float64) *graph.Graph
	Tree  *hierarchy.Tree
}

// cases are BenchmarkAssignWalk's two shapes: the deep base-4 tree of
// nh-OMS at k = 4096 over a low-degree RGG, and the shallow 4:16:8
// mapping over an edge-weighted, skewed RMAT. scale shrinks both graphs'
// node and edge counts.
func cases() []abCase {
	return []abCase{
		{"rgg-2^19-k4096", func(s float64) *graph.Graph {
			return gen.RandomGeometric(scaled(1<<19, s), 0.55, 4242)
		}, hierarchy.BuildArtificial(4096, 4)},
		{"rmat-2^17-2^21-4:16:8", func(s float64) *graph.Graph {
			return gen.RMAT(scaled(1<<17, s), int64(scaled(1<<21, s)), gen.SocialRMAT, 9824)
		}, hierarchy.FromSpec(hierarchy.MustSpec("4:16:8"))},
	}
}

func scaled(n int32, s float64) int32 { return max(int32(float64(n)*s), 64) }

// Summary pairs the two variants' timings of one case, round by round.
type Summary struct {
	Rounds       int
	ParentMedian float64 // ns/node
	ChangeMedian float64 // ns/node
	RatioMedian  float64 // median over rounds of change/parent; below 1 is faster
	Wins         int     // rounds whose ratio is below 1
}

// Summarize pairs parent[i] with change[i], both ns/node of round i.
func Summarize(parent, change []float64) Summary {
	ratio := make([]float64, len(parent))
	s := Summary{Rounds: len(parent), ParentMedian: median(parent), ChangeMedian: median(change)}
	for i := range parent {
		ratio[i] = change[i] / parent[i]
		if ratio[i] < 1 {
			s.Wins++
		}
	}
	s.RatioMedian = median(ratio)
	return s
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	y := slices.Clone(x)
	slices.Sort(y)
	if len(y)%2 == 1 {
		return y[len(y)/2]
	}
	return (y[len(y)/2-1] + y[len(y)/2]) / 2
}

// Options are the generated binary's flags. omsab registers the same
// set, so it checks them before it builds and forwards them as given.
type Options struct {
	Rounds int
	Scale  float64
}

// Register adds the options' flags to fs.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.IntVar(&o.Rounds, "rounds", 15, "rounds per graph")
	fs.Float64Var(&o.Scale, "scale", 1, "graph size relative to BenchmarkAssignWalk's")
}

// Main runs the A/B with the command line of omsab's generated binary
// and exits non-zero when the copies disagree or a run fails.
func Main(parent, change Variant) {
	fs := flag.NewFlagSet("omsab", flag.ExitOnError)
	var opt Options
	opt.Register(fs)
	fs.Parse(os.Args[1:])
	if err := run(os.Stdout, cases(), opt.Rounds, opt.Scale, parent, change); err != nil {
		fmt.Fprintln(os.Stderr, "omsab:", err)
		os.Exit(1)
	}
}

// run times rounds passes of each variant per case, in CPU time (see
// cpuTime), with the probe run just before and just after each pass.
// Round r runs the parent first when r is even and the change first when
// it is odd, and fails unless both assign every node alike. It prints one
// line per round with the probe's rates, and per case the medians, the
// paired ratio of the probe-scaled costs, its wins and the verdict.
func run(w io.Writer, cases []abCase, rounds int, scale float64, parent, change Variant) error {
	if rounds < 1 {
		return fmt.Errorf("rounds %d < 1", rounds)
	}
	verdicts := make([]Verdict, len(cases))
	for ci, c := range cases {
		g := c.Graph(scale)
		src := stream.NewMemory(g)
		st, err := src.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n  %5s %15s %15s %7s   %s\n", c.Name, "round", "parent_ns/node", "change_ns/node", "ratio", "probe MiB/s before-after, parent | change")
		win := [2][]Window{}
		for r := 0; r < rounds; r++ {
			var parts [2][]int32
			for i := range 2 {
				side := (r + i) % 2 // 0 parent, 1 change
				v := [2]Variant{parent, change}[side]
				pass, err := v(c.Tree, st)
				if err != nil {
					return fmt.Errorf("%s: %w", c.Name, err)
				}
				runtime.GC()
				before := probe()
				t0 := cpuTime()
				p, err := pass(src)
				el := cpuTime() - t0
				after := probe()
				if err != nil {
					return fmt.Errorf("%s: %w", c.Name, err)
				}
				parts[side] = p
				win[side] = append(win[side], Window{float64(el.Nanoseconds()) / float64(g.NumNodes()), before, after})
			}
			if !slices.Equal(parts[0], parts[1]) {
				return fmt.Errorf("%s, round %d: parent and change assign differently", c.Name, r)
			}
			pw, cw := win[0][r], win[1][r]
			fmt.Fprintf(w, "  %5d %15.1f %15.1f %7.3f   %.0f-%.0f | %.0f-%.0f\n", r+1, pw.NsPerNode, cw.NsPerNode,
				cw.scaled()/pw.scaled(), pw.Before, pw.After, cw.Before, cw.After)
		}
		verdicts[ci] = Judge(win[0], win[1])
	}
	fmt.Fprintf(w, "%-24s %15s %15s %13s %6s  %s\n", "graph", "parent_ns/node", "change_ns/node", "ratio_median", "wins", "verdict")
	for ci, c := range cases {
		v := verdicts[ci]
		fmt.Fprintf(w, "%-24s %15.1f %15.1f %13.3f %3d/%-2d  %s\n", c.Name, v.ParentMedian, v.ChangeMedian, v.RatioMedian, v.Wins, v.Rounds, v)
	}
	fmt.Fprintln(w, "parts equal on every round")
	return nil
}
