package oms_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestLayers holds the module's dependencies to one direction: the
// engine at the bottom, the session contract (internal/store) and the
// metrics format (internal/promtext) as leaves above it, refinement
// (internal/refine) above the contract, and the daemon
// (internal/service) above those, imported only by what runs it. The
// paper's comparators (internal/multilevel, internal/mapping) and the
// evaluation harness (internal/bench) are imported only by the
// reproduction surfaces. The import graph is read from the non-test
// files of every package outside benchmark/ and testdata.
func TestLayers(t *testing.T) {
	graph := importGraph(t)
	const service = "oms/internal/service"
	for _, pkg := range []string{"oms", service, "oms/internal/store", "oms/internal/promtext", "oms/internal/refine", "oms/cmd/omsstat", "oms/cmd/omsload"} {
		if _, ok := graph[pkg]; !ok {
			t.Errorf("no package %s in the module", pkg)
		}
	}

	for _, imp := range graph["oms/internal/promtext"] {
		t.Errorf("oms/internal/promtext imports %s; it must import no oms package", imp)
	}
	for _, imp := range graph["oms/internal/store"] {
		if imp != "oms" {
			t.Errorf("oms/internal/store imports %s; it may import only oms", imp)
		}
	}
	for _, imp := range graph["oms/internal/refine"] {
		if imp != "oms" && imp != "oms/internal/store" {
			t.Errorf("oms/internal/refine imports %s; it may import only oms and oms/internal/store", imp)
		}
	}
	for _, pkg := range []string{
		"oms/internal/wal", "oms/internal/load", "oms/internal/store",
		"oms/internal/promtext", "oms/internal/refine", "oms/cmd/omsstat", "oms/cmd/omsload",
	} {
		if path := importPath(graph, pkg, service); path != nil {
			t.Errorf("%s reaches %s: %s", pkg, service, strings.Join(path, " -> "))
		}
	}
	for _, pkg := range []string{"oms/cmd/omsstat", "oms/cmd/omsload"} {
		if path := importPath(graph, pkg, "oms"); path != nil {
			t.Errorf("%s reaches the engine: %s", pkg, strings.Join(path, " -> "))
		}
	}

	if got, want := importersOf(graph, service), []string{"oms/cmd/omsd", "oms/examples/service", "oms/internal/cluster"}; !slices.Equal(got, want) {
		t.Errorf("%s is imported by %v, want only %v", service, got, want)
	}

	// The paper's comparators and the harness that runs them stay off
	// the workload and daemon paths: each is imported directly only by
	// the packages listed here.
	for pkg, allowed := range map[string][]string{
		"oms/internal/bench":      {"oms/cmd/omsbench", "oms/cmd/omsgen"},
		"oms/internal/mapping":    {"oms", "oms/internal/bench"},
		"oms/internal/multilevel": {"oms", "oms/internal/bench", "oms/internal/mapping"},
	} {
		for _, imp := range importersOf(graph, pkg) {
			if !slices.Contains(allowed, imp) {
				t.Errorf("%s imports %s; only %v may", imp, pkg, allowed)
			}
		}
	}
}

// importersOf returns the sorted packages that import target directly.
func importersOf(graph map[string][]string, target string) []string {
	var importers []string
	for pkg, imps := range graph {
		if slices.Contains(imps, target) {
			importers = append(importers, pkg)
		}
	}
	slices.Sort(importers)
	return importers
}

// importGraph maps each package of the module (benchmark/ aside) to
// the module packages its non-test files import.
func importGraph(t *testing.T) map[string][]string {
	t.Helper()
	graph := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := "oms"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		if _, ok := graph[pkg]; !ok {
			graph[pkg] = nil
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if (imp == "oms" || strings.HasPrefix(imp, "oms/")) && !slices.Contains(graph[pkg], imp) {
				graph[pkg] = append(graph[pkg], imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// importPath returns an import chain from pkg to target, or nil if pkg
// does not depend on target.
func importPath(graph map[string][]string, pkg, target string) []string {
	seen := map[string]bool{}
	var walk func(p string) []string
	walk = func(p string) []string {
		if p == target {
			return []string{p}
		}
		if seen[p] {
			return nil
		}
		seen[p] = true
		for _, imp := range graph[p] {
			if rest := walk(imp); rest != nil {
				return append([]string{p}, rest...)
			}
		}
		return nil
	}
	return walk(pkg)
}
