package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// copyTreeCore copies the working tree's internal/core into a directory
// laid out like a checkout and applies edit to every file it copies.
func copyTreeCore(t *testing.T, edit func(string) string) string {
	t.Helper()
	dir := t.TempDir()
	dst := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("..", "..", "internal", "core")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), []byte(edit(string(b))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestABAgainstCopyOfTree runs the A/B at toy scale with a directory copy
// of the working tree as the parent. It checks the report's shape and that
// the two copies assign alike on every round, not any timing, and that the
// temporary package is gone afterwards. A parent that places nodes on
// other leaves must fail the Parts check.
func TestABAgainstCopyOfTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	var out, errb bytes.Buffer
	parent := copyTreeCore(t, func(s string) string { return s })
	if err := run([]string{"-parent", parent, "-rounds", "2", "-scale", "0.002"}, &out, &errb); err != nil {
		t.Fatalf("%v\n%s", err, errb.String())
	}
	rounds := []string{
		`^  round +parent_ns/node +change_ns/node +ratio +probe MiB/s before-after, parent \| change$`,
		`^ +1 +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9]+-[0-9]+ \| [0-9]+-[0-9]+$`,
		`^ +2 +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9]+-[0-9]+ \| [0-9]+-[0-9]+$`,
	}
	report := append(append(append(append([]string{
		`^omsab: parent .+, 2 rounds, scale 0\.002$`,
		`^rgg-2\^19-k4096$`}, rounds...),
		`^rmat-2\^17-2\^21-4:16:8$`), rounds...),
		`^graph +parent_ns/node +change_ns/node +ratio_median +wins +verdict$`,
		// Two rounds never pass the sign test.
		`^rgg-2\^19-k4096 +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-2]/2 +unresolved: .+$`,
		`^rmat-2\^17-2\^21-4:16:8 +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-2]/2 +unresolved: .+$`,
		`^parts equal on every round$`,
	)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(report) {
		t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(report), out.String())
	}
	for i, re := range report {
		if !regexp.MustCompile(re).MatchString(lines[i]) {
			t.Fatalf("line %d %q does not match %s", i+1, lines[i], re)
		}
	}
	if left, _ := filepath.Glob("_ab*"); len(left) > 0 {
		t.Fatalf("temporary packages left behind: %v", left)
	}

	swapped := copyTreeCore(t, func(s string) string { return strings.Replace(s, "o.parts[u] = b.kl\n", "o.parts[u] = b.kl ^ 1\n", 1) })
	out.Reset()
	err := run([]string{"-parent", swapped, "-rounds", "1", "-scale", "0.002"}, &out, &errb)
	if err == nil || strings.Contains(out.String(), "parts equal") {
		t.Fatalf("a parent that swaps leaf pairs passed the Parts check: %v\n%s", err, out.String())
	}
}
