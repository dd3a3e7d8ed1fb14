package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary the
// runner starts: "ref" times the reference workload as usual, and
// "child" crashes the way a round whose program panics or exits
// non-zero does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "ref":
			os.Exit(refMain())
		case "child":
			fmt.Fprintln(os.Stderr, "child: injected crash")
			os.Exit(3)
		}
	}
	os.Exit(m.Run())
}

// TestCrashedRoundIsCounted runs the benchmark with a child that
// crashes: the run must still print its result line, with every
// session-window the round declares attempted and failed, correct
// false, and a non-zero exit.
func TestCrashedRoundIsCounted(t *testing.T) {
	for _, tc := range []struct {
		workload string
		windows  int
	}{
		{"paper-eval", 42},
		{"churn-grid", 960},
	} {
		var out bytes.Buffer
		code := benchMain([]string{"-workload", tc.workload, "-seed", "1", "-seconds", "1", "-trace", "0"}, &out)
		if code == 0 {
			t.Errorf("%s: exit 0 with a crashed child", tc.workload)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("%s: no result line: %v (output %q)", tc.workload, err, out.String())
		}
		if r.Correct || r.Attempted != tc.windows || r.Failed != tc.windows {
			t.Errorf("%s: correct %v, %d of %d failed; want false, %d of %d", tc.workload, r.Correct, r.Failed, r.Attempted, tc.windows, tc.windows)
		}
	}
}
