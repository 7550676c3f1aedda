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

// smallAll is -exp all cut down to one 1000-node instance, with the
// offline mapper at k = 256.
var smallAll = []string{"-exp", "all", "-instances", "Dubcova1", "-scale", "0.05", "-reps", "1", "-rs", "4", "-intmap"}

// TestAllIsByteIdentical: omsbench reports quality only and every
// algorithm is a function of its seed, so two runs of one command line
// print the same bytes.
func TestAllIsByteIdentical(t *testing.T) {
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		if code := run(smallAll, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
			if !strings.Contains(first, string(bench.AlgIntMap)) {
				t.Fatalf("-intmap printed no %s column:\n%s", bench.AlgIntMap, first)
			}
			continue
		}
		if got := stdout.String(); got != first {
			t.Fatalf("second run differs from the first:\n--- first\n%s\n--- second\n%s", first, got)
		}
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
	if !strings.Contains(stdout.String(), "== Figure 2a:") {
		t.Fatalf("-q printed no tables:\n%s", stdout.String())
	}
}
