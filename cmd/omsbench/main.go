// Command omsbench regenerates the quality tables and figures of the
// paper's evaluation on synthetic Table 1 stand-ins. It is a
// reproduction tool, not a performance ledger: it runs every algorithm
// sequentially and reports cut and mapping cost only, so one set of
// flags prints the same bytes on every run. Speed is measured by
// benchmark/run.sh and declared in BENCHMARK.json.
//
// Experiments:
//
//	table1   print the instance registry with generated sizes
//	fig2     the state-of-the-art sweep: figures 2a, 2b, 2d and 2e
//	tuning   the four parameter-tuning ablations of §4
//	order    stream-order sensitivity ablation (extension)
//	all      everything above
//
// Examples:
//
//	omsbench -exp fig2 -scale 0.05 -reps 3
//	omsbench -exp fig2 -intmap -rs 4,8
//	omsbench -exp all -csv results/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"oms/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in, so the tests
// can drive it; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("omsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "fig2", "experiment: table1 | fig2 | tuning | order | all")
		scale   = fs.Float64("scale", 0.05, "instance scale (1.0 = paper sizes)")
		reps    = fs.Int("reps", 3, "repetitions per measurement (paper: 10)")
		rsFlag  = fs.String("rs", "16,32,64,128", "hierarchy sweep: r values for S=4:16:r (k=64r)")
		insFlag = fs.String("instances", "", "comma-separated instance subset (default all of Table 1)")
		intmap  = fs.Bool("intmap", false, "include the sequential offline mapper (IntMap role) in fig2")
		csvDir  = fs.String("csv", "", "also write each table as CSV into this directory")
		seed    = fs.Uint64("seed", 1, "base seed")
		quiet   = fs.Bool("q", false, "suppress progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "omsbench:", err)
		return 1
	}

	cfg := bench.Config{
		Scale:         *scale,
		Reps:          *reps,
		Seed:          *seed,
		IncludeIntMap: *intmap,
	}
	if *rsFlag != "" {
		for _, s := range strings.Split(*rsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				return fail(fmt.Errorf("bad -rs entry %q", s))
			}
			cfg.Rs = append(cfg.Rs, int32(v))
		}
	}
	if *insFlag != "" {
		names := strings.Split(*insFlag, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		ins, err := bench.Subset(names)
		if err != nil {
			return fail(err)
		}
		cfg.Instances = ins
	}
	// internal/bench skips its progress lines on a nil io.Writer, so
	// -q must leave the interface itself nil.
	var progress io.Writer
	if !*quiet {
		progress = stderr
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig2", "tuning", "order"}
	}
	tables, err := experiments(names, cfg, progress)
	if err != nil {
		return fail(err)
	}

	for _, t := range tables {
		t.Format(stdout)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(err)
		}
		for _, t := range tables {
			name := sanitize(t.Title) + ".csv"
			f, err := os.Create(filepath.Join(*csvDir, name))
			if err != nil {
				return fail(err)
			}
			t.CSV(f)
			if err := f.Close(); err != nil {
				return fail(err)
			}
		}
	}
	return 0
}

// experiments runs the named experiments in order and returns their
// tables.
func experiments(names []string, cfg bench.Config, progress io.Writer) ([]*bench.Table, error) {
	var tables []*bench.Table
	for _, name := range names {
		switch name {
		case "table1":
			tables = append(tables, instanceTable(cfg))
		case "fig2":
			s, err := bench.RunStateOfTheArt(cfg, progress)
			if err != nil {
				return nil, err
			}
			tables = append(tables, s.Fig2a(), s.Fig2b(), s.Fig2d(), s.Fig2e())
		case "tuning":
			ts, err := bench.RunTuning(cfg, progress)
			if err != nil {
				return nil, err
			}
			tables = append(tables, ts...)
		case "order":
			t, err := bench.RunStreamOrder(cfg, progress)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		default:
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
	}
	return tables, nil
}

func instanceTable(cfg bench.Config) *bench.Table {
	t := &bench.Table{
		Title:   fmt.Sprintf("Table 1: benchmark instances (scale=%g)", cfgScale(cfg)),
		KeyName: "Graph",
		Columns: []string{"n(paper)", "m(paper)", "n(gen)", "m(gen)"},
	}
	instances := cfg.Instances
	if instances == nil {
		instances = bench.Table1
	}
	for _, ins := range instances {
		g := ins.BuildCached(cfgScale(cfg))
		t.AddRow(fmt.Sprintf("%s [%s]", ins.Name, ins.Family), map[string]float64{
			"n(paper)": float64(ins.N),
			"m(paper)": float64(ins.M),
			"n(gen)":   float64(g.NumNodes()),
			"m(gen)":   float64(g.NumEdges()),
		})
	}
	return t
}

func cfgScale(cfg bench.Config) float64 {
	if cfg.Scale == 0 {
		return 0.05
	}
	return cfg.Scale
}

func sanitize(s string) string {
	s = strings.ToLower(s)
	keep := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}
	out := strings.Map(keep, s)
	for strings.Contains(out, "--") {
		out = strings.ReplaceAll(out, "--", "-")
	}
	return strings.Trim(out, "-")
}
