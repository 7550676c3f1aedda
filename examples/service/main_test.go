package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunIdentical drives the example in-process over both transfer
// formats and checks the service's edge cut against the in-process
// reference. 10 000 nodes make two full 4096-node chunks and a partial
// one.
func TestRunIdentical(t *testing.T) {
	for _, binary := range []bool{false, true} {
		var out bytes.Buffer
		if err := run(&out, "", binary, 10_000); err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; !strings.HasSuffix(last, "— identical") {
			t.Fatalf("binary=%v: last line %q, want the reference cut to be identical\n%s", binary, last, out.String())
		}
		if !strings.Contains(out.String(), "finished: assigned=10000 ") {
			t.Fatalf("binary=%v: not every node assigned\n%s", binary, out.String())
		}
	}
}
