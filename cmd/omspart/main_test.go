package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"oms"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	g := oms.GenDelaunay(2000, 3)
	path := filepath.Join(t.TempDir(), "g.metis")
	if err := oms.WriteMetisFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPlainPartition(t *testing.T) {
	path := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "parts.txt")
	if err := run(path, 16, "", "1:10:100", "oms", 0.03, 1, 4, 0, false, "natural", out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		v, err := strconv.Atoi(sc.Text())
		if err != nil {
			t.Fatalf("line %d not an int: %q", lines, sc.Text())
		}
		if v < 0 || v >= 16 {
			t.Fatalf("block %d out of range", v)
		}
		lines++
	}
	if lines != 2000 {
		t.Fatalf("partition file has %d lines, want 2000", lines)
	}
}

func TestRunMapping(t *testing.T) {
	path := writeTestGraph(t)
	if err := run(path, 0, "4:4:2", "1:10:100", "oms", 0.03, 1, 4, 0, false, "natural", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	path := writeTestGraph(t)
	for _, alg := range []string{"fennel", "ldg", "hashing", "multilevel"} {
		if err := run(path, 8, "", "1:10:100", alg, 0.03, 1, 4, 0, false, "natural", ""); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	if err := run(path, 0, "2:2:2", "1:10:100", "offline", 0.03, 1, 4, 0, false, "natural", ""); err != nil {
		t.Fatalf("offline: %v", err)
	}
}

func TestRunInMemoryFlag(t *testing.T) {
	path := writeTestGraph(t)
	if err := run(path, 8, "", "1:10:100", "oms", 0.03, 1, 4, 0, true, "natural", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunHybridLayers(t *testing.T) {
	path := writeTestGraph(t)
	if err := run(path, 0, "4:4:2", "1:10:100", "oms", 0.03, 1, 4, 2, false, "natural", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t)
	if err := run(path, 0, "", "1:10:100", "oms", 0.03, 1, 4, 0, false, "natural", ""); err == nil {
		t.Fatal("missing k and topo accepted")
	}
	if err := run(path, 8, "", "1:10:100", "bogus", 0.03, 1, 4, 0, false, "natural", ""); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run(path, 8, "", "1:10:100", "offline", 0.03, 1, 4, 0, false, "natural", ""); err == nil {
		t.Fatal("offline without topo accepted")
	}
	if err := run(path, 0, "4:x", "1:10", "oms", 0.03, 1, 4, 0, false, "natural", ""); err == nil {
		t.Fatal("bad topology accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "missing.metis"), 8, "", "1:10:100", "oms", 0.03, 1, 4, 0, false, "natural", ""); err == nil {
		t.Fatal("missing graph accepted")
	}
	if err := run(path, 8, "", "1:10:100", "oms", 0.03, 1, 4, 0, false, "sideways", ""); err == nil {
		t.Fatal("unknown order accepted")
	}
}

func TestRunStreamOrders(t *testing.T) {
	path := writeTestGraph(t)
	for _, order := range []string{"random", "degree-desc", "degree-asc", "bfs"} {
		if err := run(path, 8, "", "1:10:100", "oms", 0.03, 1, 4, 0, false, order, ""); err != nil {
			t.Fatalf("%s: %v", order, err)
		}
	}
}
