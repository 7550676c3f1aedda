// Command omsab is the in-process A/B of an engine change: it times the
// working tree's internal/core against a parent's copy of it in one
// binary, over BenchmarkAssignWalk's two graphs, and pairs the two
// timings round by round. Separate processes drift too far apart on a
// small host to resolve a few percent; two walks in one process, taking
// turns, do not.
//
// Usage:
//
//	go run ./cmd/omsab -parent HEAD~1 [-rounds 15] [-scale 1]
//	go run ./cmd/omsab -parent ../oms-parent      # a checkout's directory
//
// A git revision is exported with git archive, a directory is copied:
// either way only internal/core's non-test files, into a temporary
// package under cmd/omsab that is removed once the binary is built. The
// copy imports the working tree's other packages, so a parent whose core
// needs an older hierarchy or stream does not build. A pass is timed in
// the process's CPU time, which other tenants of a shared host disturb
// far less than the wall clock. Just before and just after each pass a
// fixed probe (SHA-256 of a fixed buffer, about 0.3 ms a pass) reads the
// host's speed, and omsab prints each round's timings with the probe's
// rates. Per graph it then prints the median ns/node of each side, the
// median over rounds of the ratio change/parent of the passes' costs put
// on the probe's scale (below 1 is faster), the rounds the change won
// and a verdict: faster or slower by the ratio's distance from 1, or
// "unresolved" when the probe moved that much within a pass, which it
// names, or when too few rounds agree for a sign test at 5 %. It fails
// if the two copies assign any node differently. It is evidence for a
// change's notes, not a gate: no timing fails it.
package main

import (
	"archive/tar"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"oms/cmd/omsab/internal/ab"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "omsab:", err)
		os.Exit(1)
	}
}

// mainSrc is the generated binary: one Variant per core copy.
const mainSrc = `package main

import (
	"oms/cmd/omsab/internal/ab"
	change "oms/internal/core"
	"oms/internal/hierarchy"
	"oms/internal/stream"
	parent "%s"
)

func main() {
	ab.Main(
		func(tree *hierarchy.Tree, st stream.Stats) (func(stream.Source) ([]int32, error), error) {
			o, err := parent.New(tree, st, parent.Config{Epsilon: 0.03})
			if err != nil {
				return nil, err
			}
			return o.Run, nil
		},
		func(tree *hierarchy.Tree, st stream.Stats) (func(stream.Source) ([]int32, error), error) {
			o, err := change.New(tree, st, change.Config{Epsilon: 0.03})
			if err != nil {
				return nil, err
			}
			return o.Run, nil
		},
	)
}
`

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("omsab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "", "git revision or directory holding the parent's internal/core")
	var opt ab.Options
	opt.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" {
		return errors.New("-parent is required")
	}
	var fwd []string // the binary's flags, as given
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "parent" {
			fwd = append(fwd, "-"+f.Name+"="+f.Value.String())
		}
	})
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	bin, err := os.MkdirTemp("", "omsab")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bin)
	exe := filepath.Join(bin, "omsab-run")
	if err := build(root, *parent, exe, stderr); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "omsab: parent %s, %d rounds, scale %g\n", *parent, opt.Rounds, opt.Scale)
	cmd := exec.Command(exe, fwd...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	return cmd.Run()
}

// build writes the parent's core and the generated main into a temporary
// directory of the module, builds them into exe and removes the
// directory. Its name starts with "_", so ./... patterns never list it.
func build(root, parent, exe string, stderr io.Writer) error {
	tmp, err := os.MkdirTemp(filepath.Join(root, "cmd", "omsab"), "_ab")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	core := filepath.Join(tmp, "core")
	if err := os.Mkdir(core, 0o755); err != nil {
		return err
	}
	if fi, err := os.Stat(parent); err == nil && fi.IsDir() {
		err = copyCore(filepath.Join(parent, "internal", "core"), core)
	} else {
		err = exportCore(root, parent, core)
	}
	if err != nil {
		return err
	}
	mainDir := filepath.Join(tmp, "main")
	if err := os.Mkdir(mainDir, 0o755); err != nil {
		return err
	}
	pkg := "oms/cmd/omsab/" + filepath.Base(tmp) + "/core"
	if err := os.WriteFile(filepath.Join(mainDir, "main.go"), fmt.Appendf(nil, mainSrc, pkg), 0o644); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", exe, "./"+filepath.ToSlash(mustRel(root, mainDir)))
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, stderr, stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the A/B binary: %w", err)
	}
	return nil
}

// isCoreSource reports whether name is a non-test Go file.
func isCoreSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

func copyCore(from, to string) error {
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() || !isCoreSource(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("no Go source in %s", from)
	}
	return nil
}

// exportCore extracts internal/core's non-test files at rev from git
// archive's tar stream.
func exportCore(root, rev, to string) error {
	var out, errb bytes.Buffer
	cmd := exec.Command("git", "archive", "--format=tar", rev, "internal/core")
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, &out, &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("git archive %s: %v: %s", rev, err, strings.TrimSpace(errb.String()))
	}
	tr := tar.NewReader(&out)
	n := 0
	for {
		h, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		dir, name := filepath.Split(h.Name)
		if h.Typeflag != tar.TypeReg || filepath.Clean(dir) != filepath.Join("internal", "core") || !isCoreSource(name) {
			continue
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("no Go source in internal/core at %s", rev)
	}
	return nil
}

// moduleRoot is the directory of the go.mod the go command resolves here.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" || mod == os.DevNull {
		return "", errors.New("not inside a Go module")
	}
	return filepath.Dir(mod), nil
}

func mustRel(base, target string) string {
	r, err := filepath.Rel(base, target)
	if err != nil {
		panic(err)
	}
	return r
}
