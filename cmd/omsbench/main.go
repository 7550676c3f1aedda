// Command omsbench regenerates the tables and figures of the paper's
// evaluation on synthetic Table 1 stand-ins. It is a reproduction tool,
// not a performance ledger: its timing columns describe the host it ran
// on and nothing gates them. Performance claims are measured by
// benchmark/run.sh and declared in BENCHMARK.json.
//
// Experiments:
//
//	table1   print the instance registry with generated sizes
//	fig2     the state-of-the-art sweep: figures 2a-2f
//	table2   the scalability thread sweep (Table 2)
//	fig3     per-graph scalability (Figures 3a-3f)
//	tuning   the four parameter-tuning ablations of §4
//	memory   the memory-requirements paragraph of §4.1
//	order    stream-order sensitivity ablation (extension)
//	all      everything above (table2 and fig3 share one thread sweep)
//
// Examples:
//
//	omsbench -exp fig2 -scale 0.05 -reps 3
//	omsbench -exp table2 -scale 0.02 -threads 1,2,4,8
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
		exp     = fs.String("exp", "fig2", "experiment: table1 | fig2 | table2 | fig3 | tuning | memory | order | all")
		scale   = fs.Float64("scale", 0.05, "instance scale (1.0 = paper sizes)")
		reps    = fs.Int("reps", 3, "repetitions per measurement (paper: 10)")
		rsFlag  = fs.String("rs", "16,32,64,128", "hierarchy sweep: r values for S=4:16:r (k=64r)")
		thFlag  = fs.String("threads", "", "thread sweep for table2/fig3 (default 1,2,4,... up to GOMAXPROCS)")
		insFlag = fs.String("instances", "", "comma-separated instance subset (default all of Table 1)")
		k       = fs.Int("k", 8192, "block count for table2/fig3/memory")
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
	if *thFlag != "" {
		for _, s := range strings.Split(*thFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				return fail(fmt.Errorf("bad -threads entry %q", s))
			}
			cfg.ThreadSweep = append(cfg.ThreadSweep, v)
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
		names = []string{"table1", "fig2", "table2", "fig3", "tuning", "memory", "order"}
	}
	tables, err := experiments(names, cfg, int32(*k), progress)
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
// tables. table2 and fig3 are two views of one thread sweep, which runs
// at most once however many of them are named.
func experiments(names []string, cfg bench.Config, k int32, progress io.Writer) ([]*bench.Table, error) {
	var tables []*bench.Table
	var sweep *bench.ScalabilityResult
	for _, name := range names {
		switch name {
		case "table1":
			tables = append(tables, instanceTable(cfg))
		case "fig2":
			s, err := bench.RunStateOfTheArt(cfg, progress)
			if err != nil {
				return nil, err
			}
			tables = append(tables, s.Fig2a(), s.Fig2b(), s.Fig2c(), s.Fig2d(), s.Fig2e(), s.Fig2f())
		case "table2", "fig3":
			if sweep == nil {
				scfg := cfg
				if scfg.Instances == nil {
					scfg.Instances = bench.ScalabilitySet()
				}
				var err error
				if sweep, err = bench.RunScalability(scfg, k, progress); err != nil {
					return nil, err
				}
			}
			if name == "table2" {
				tables = append(tables, sweep.Table2())
			} else {
				for _, gname := range sweep.Fig3Graphs() {
					su, rt := sweep.Fig3(gname)
					tables = append(tables, su, rt)
				}
			}
		case "tuning":
			ts, err := bench.RunTuning(cfg, progress)
			if err != nil {
				return nil, err
			}
			tables = append(tables, ts...)
		case "memory":
			t, err := bench.RunMemory(cfg, progress)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
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
