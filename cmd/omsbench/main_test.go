package main

import (
	"bytes"
	"strings"
	"testing"

	"oms/internal/bench"
)

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"Figure 2a: mapping improvement over Hashing (%) vs k": "figure-2a-mapping-improvement-over-hashing-vs-k",
		"Table 2: RT/SU": "table-2-rt-su",
		"---x---":        "x",
	} {
		if got := sanitize(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestInstanceTable(t *testing.T) {
	ins, err := bench.ByName("Dubcova1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.Config{Scale: 0.05, Instances: []bench.Instance{ins}}
	tb := instanceTable(cfg)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	row := tb.Rows[0]
	if row.Cells["n(paper)"] != 16129 {
		t.Fatalf("paper n wrong: %v", row.Cells["n(paper)"])
	}
	if row.Cells["n(gen)"] < 800 {
		t.Fatalf("generated n wrong: %v", row.Cells["n(gen)"])
	}
}

func TestCfgScaleDefault(t *testing.T) {
	if cfgScale(bench.Config{}) != 0.05 {
		t.Fatal("default scale wrong")
	}
	if cfgScale(bench.Config{Scale: 0.5}) != 0.5 {
		t.Fatal("explicit scale ignored")
	}
}

// smallAll is -exp all cut down to one 1000-node instance.
var smallAll = []string{"-exp", "all", "-instances", "Dubcova1", "-scale", "0.05", "-reps", "1", "-threads", "1", "-rs", "2", "-k", "64"}

// TestAllRunsScalabilityOnce: table2 and fig3 are two views of one
// thread sweep; -exp all prints both and runs it once, which the
// sweep's progress lines count.
func TestAllRunsScalabilityOnce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(smallAll, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got := strings.Count(stderr.String(), "done Dubcova1 threads=1\n"); got != 1 {
		t.Fatalf("scalability sweep ran %d times, want 1:\n%s", got, stderr.String())
	}
	table2 := strings.Count(stdout.String(), "== Table 2:")
	fig3 := strings.Count(stdout.String(), "== Figure 3:")
	if table2 != 1 || fig3 != 2 {
		t.Fatalf("%d Table 2 and %d Figure 3 tables, want 1 and 2:\n%s", table2, fig3, stdout.String())
	}
}

// TestQuietWritesNoProgress: -q hands internal/bench a nil io.Writer,
// so nothing reaches stderr while the tables still reach stdout.
func TestQuietWritesNoProgress(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-q"}, smallAll...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("-q wrote to stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "== Table 2:") {
		t.Fatalf("-q printed no tables:\n%s", stdout.String())
	}
}
