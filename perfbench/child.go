package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roundResult is what one child process reports to the runner.
type roundResult struct {
	SetupS     float64  `json:"setup_s"`
	WallS      float64  `json:"wall_s"`
	CPUS       float64  `json:"cpu_s"`
	AllocBytes uint64   `json:"alloc_bytes"`
	PeakRSSKB  int64    `json:"peak_rss_kb"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Report     string   `json:"report"`
	Errors     []string `json:"errors,omitempty"`
	// Traced rounds only: the layer metrics, Σ(layer count × per-call
	// time), and the mean wall time of the two untraced calls made in
	// the same process, which the sum is reconciled against.
	Layers    layers  `json:"layers,omitempty"`
	BusyS     float64 `json:"busy_s,omitempty"`
	UntracedS float64 `json:"untraced_s,omitempty"`
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSKB is the process's peak resident set so far (VmHWM). It is
// read from the process itself because the rusage a parent collects
// also counts the parent's own resident set at the moment of exec.
func peakRSSKB() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// childMain runs one round of one workload in this process: set-up,
// the timed call, then the checks, and prints a roundResult as JSON.
// -t0 is the runner's wall clock, in Unix nanoseconds, just before it
// started this process, so set-up time includes the process start.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	workers := fs.Int("workers", 0, "override the workload's worker count")
	t0 := fs.Int64("t0", 0, "runner clock at process start, Unix ns")
	trace := fs.Bool("trace", false, "run the layer ladder instead of the timed call")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	inst, err := newInstance(*name, *seed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var out roundResult
	if *trace {
		out = traceRound(inst, *seed)
	} else {
		out = timedRound(inst, *t0)
	}
	out.Attempted, out.Failed = inst.account()
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func timedRound(inst instance, t0 int64) roundResult {
	var out roundResult
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	start := time.Now()
	out.SetupS = float64(start.UnixNano()-t0) / 1e9
	err := inst.run()
	out.WallS = time.Since(start).Seconds()
	out.CPUS = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	out.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.PeakRSSKB = peakRSSKB()
	if err != nil {
		out.Errors = append(out.Errors, err.Error())
		return out
	}
	out.Errors = append(out.Errors, inst.check()...)
	rep, err := inst.report()
	if err != nil {
		out.Errors = append(out.Errors, "report: "+err.Error())
	}
	out.Report = digest(rep)
	return out
}

func traceRound(inst instance, seed int64) roundResult {
	start := time.Now()
	var t traced
	switch w := inst.(type) {
	case *paperEval:
		t = tracePaperEval(w, seed)
	case *scenarioRun:
		t = traceScenario(w)
	}
	return roundResult{
		WallS:     time.Since(start).Seconds(),
		Report:    digest(t.report),
		Errors:    t.errs,
		Layers:    t.layers,
		BusyS:     t.busy,
		UntracedS: t.untraced.Seconds(),
	}
}
