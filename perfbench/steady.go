package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// The steadiness check's shape: sets of runs of every workload, each
// run with the next seed from 1.
const (
	steadyRuns = 10
	steadySets = 2
)

// steadyMain is the steadiness check behind the bounds, run from the
// repository root: two sets of ten runs of every workload in
// BENCHMARK.json, one set after the other, alternating workloads, each
// run with its own seed. For every end-to-end metric and workload it
// prints each set's median and quartiles, the spread, and the
// set-to-set change against the metric's bound, and exits non-zero
// when a spread or a change passes its bound, when a run fails, or
// when the share of failed operations differs between sets.
func steadyMain(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench steady: takes no arguments")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}

	// values[set][workload][metric] and failure shares per set.
	values := make([]map[string]map[string][]float64, steadySets)
	failed := make([]map[string][2]int, steadySets)
	next := int64(1)
	ok := true
	for s := 0; s < steadySets; s++ {
		values[s] = map[string]map[string][]float64{}
		failed[s] = map[string][2]int{}
		for i := 0; i < steadyRuns; i++ {
			for j := range names {
				// Rotate the order so no workload always runs first.
				w := names[(i+j)%len(names)]
				var out bytes.Buffer
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
				cmd := exec.CommandContext(ctx, self, "-workload", w, "-seed", strconv.FormatInt(next, 10),
					"-seconds", strconv.Itoa(spec.RunSeconds), "-trace", "0")
				cmd.Stdout = &out
				cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
				runErr := cmd.Run()
				cancel()
				// A run whose program failed still prints its result,
				// so its failed operations are counted; a run that
				// printed none ends the check.
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v; no result: %v\n", w, next, runErr, err)
					return 1
				}
				if runErr != nil || !r.Correct {
					fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: run failed: %v\n", w, next, runErr)
					ok = false
				}
				if values[s][w] == nil {
					values[s][w] = map[string][]float64{}
				}
				for k, m := range r.Metrics {
					values[s][w][k] = append(values[s][w][k], m.Value)
				}
				f := failed[s][w]
				failed[s][w] = [2]int{f[0] + r.Failed, f[1] + r.Attempted}
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d: %s\n", s+1, i+1, w, next, lines[len(lines)-1])
				next++
			}
		}
	}

	fmt.Printf("%-15s %-15s %4s %12s %12s %12s %8s %8s %8s\n",
		"workload", "metric", "set", "median", "q1", "q3", "spread", "change", "bound")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			var first float64
			for s := 0; s < steadySets; s++ {
				xs := values[s][w][m.Name]
				med := median(xs)
				q1, q3 := quartiles(xs)
				sp := spread(xs)
				change := ""
				verdict := ""
				if !(sp <= bound) {
					verdict = " SPREAD>BOUND"
					ok = false
				}
				if s == 0 {
					first = med
				} else {
					worse := (med - first) / first
					if m.Better == "higher" {
						worse = -worse
					}
					change = fmt.Sprintf("%+.4f", worse)
					if !(worse <= bound) {
						verdict += " WORSE>BOUND"
						ok = false
					}
				}
				fmt.Printf("%-15s %-15s %4d %12.6g %12.6g %12.6g %8.4f %8s %8.3f%s\n",
					w, m.Name, s+1, med, q1, q3, sp, change, bound, verdict)
			}
		}
		for s := 0; s < steadySets; s++ {
			f := failed[s][w]
			fmt.Printf("%-15s failed %d of %d in set %d\n", w, f[0], f[1], s+1)
			if s > 0 {
				g := failed[0][w]
				if f[0]*g[1] != g[0]*f[1] {
					fmt.Printf("%-15s FAILED SHARE DIFFERS between sets\n", w)
					ok = false
				}
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}
