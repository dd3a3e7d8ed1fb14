package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// runDeadline bounds one benchmark run: children still running then
// are killed, so the command always ends inside its time limit.
const runDeadline = 170 * time.Second

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// child is one finished child process.
type child struct {
	roundResult
	// speed rescales the child's host times to the reference speed.
	speed float64
}

// spawn runs this binary's child mode and decodes its report.
func spawn(ctx context.Context, args ...string) (child, error) {
	self, err := os.Executable()
	if err != nil {
		return child{}, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, append([]string{"child"}, args...)...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A child must not outlive a runner that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now().UnixNano()
	cmd.Args = append(cmd.Args, "-t0", strconv.FormatInt(t0, 10))
	if err := cmd.Run(); err != nil {
		return child{}, fmt.Errorf("child %v: %w", args, err)
	}
	var c child
	if err := json.Unmarshal(stdout.Bytes(), &c.roundResult); err != nil {
		return child{}, fmt.Errorf("child %v: decoding its report: %w", args, err)
	}
	return c, nil
}

// benchMain is one benchmark run: rounds of the workload, each in a
// fresh process, for the given seconds; then the checks that need a
// second configuration; then, with -trace 1, the traced round. The
// result line goes to stdout. A child that crashes, exits non-zero or
// is killed at the deadline ends the run: its round counts every
// session-window the workload declares as attempted and failed, and
// the result line is still printed, with correct false.
func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-eval, churn-grid or lean-surrogate")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 55, "how long the timed rounds run")
	trace := fs.Int("trace", 0, "1 = print the per-layer metrics of a traced round")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	inst, err := newInstance(*name, *seed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runDeadline))
	defer cancel()

	base := []string{"-workload", *name, "-seed", strconv.FormatInt(*seed, 10)}
	budget, minRounds := *seconds, 3
	if *trace == 1 {
		// Untraced rounds fill half the run, so the traced report is
		// compared with reports of other processes; the traced round
		// takes the rest.
		budget, minRounds = *seconds/2, 2
	}
	// all holds every child's outcome, for the checks and the failure
	// accounting; rounds the untraced ones that finished, for the
	// metrics.
	var all, rounds []child
	crashed := false
	launch := func(args ...string) (child, bool) {
		c, err := spawn(ctx, args...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			n := inst.declared()
			c = child{roundResult: roundResult{Attempted: n, Failed: n, Errors: []string{err.Error()}}}
			crashed = true
		}
		all = append(all, c)
		return c, !crashed
	}

	// Rounds run while the next one is expected to end inside the
	// budget, so a run lasts about its length however long a round is.
	var took []float64
	gauge, err := newSpeedGauge()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for len(rounds) < minRounds || time.Since(start).Seconds()+median(took) <= budget {
		t := time.Now()
		c, ok := launch(base...)
		if !ok {
			break
		}
		if c.speed, err = gauge.factor(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		took = append(took, time.Since(t).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d: host speed %.3f; raw setup %.4fs wall %.4fs cpu %.4fs; alloc %.1fMB rss %.1fMB; %d/%d failed\n",
			*name, len(rounds)+1, c.speed, c.SetupS, c.WallS, c.CPUS, float64(c.AllocBytes)/(1<<20), float64(c.PeakRSSKB)/1024, c.Failed, c.Attempted)
		all[len(all)-1] = c
		rounds = append(rounds, c)
	}
	if *name == "churn-grid" && *trace == 0 && !crashed {
		// The report must not depend on the worker count.
		launch(append(base, "-workers", "2")...)
	}
	var tr *child
	if *trace == 1 && !crashed {
		if c, ok := launch(append(base, "-trace")...); ok {
			tr = &c
		}
	}

	res := result{Correct: !crashed, Metrics: map[string]metric{}}
	for _, c := range all {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		for _, e := range c.Errors {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
			res.Correct = false
		}
		if c.Report != all[0].Report {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: report %s differs from the first round's %s\n", c.Report, all[0].Report)
			res.Correct = false
		}
	}

	// put leaves out a metric that measured nothing (no finished
	// round, or a layer with no calls), which JSON cannot carry.
	put := func(name string, v float64, unit string) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		res.Metrics[name] = metric{v, unit}
		return true
	}
	col := func(f func(c child) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, c := range rounds {
			xs[i] = f(c)
		}
		return median(xs)
	}
	if *trace == 0 {
		put("wall_s", col(func(c child) float64 { return c.WallS * c.speed }), "s")
		put("sessions_per_s", col(func(c child) float64 { return float64(c.Attempted) / (c.WallS * c.speed) }), "1/s")
		put("cpu_s", col(func(c child) float64 { return c.CPUS * c.speed }), "s")
		put("alloc_mb", col(func(c child) float64 { return float64(c.AllocBytes) / (1 << 20) }), "MB")
		put("peak_rss_mb", col(func(c child) float64 { return float64(c.PeakRSSKB) / 1024 }), "MB")
		put("setup_s", col(func(c child) float64 { return c.SetupS * c.speed }), "s")
	} else if tr != nil {
		// The ladder is reconciled against the untraced calls the traced
		// child made around it, so both sides share the host's speed.
		tr.Layers["trace.explained"] = tr.BusyS / tr.UntracedS
		tr.Layers["trace.overhead_s"] = tr.WallS - 2*tr.UntracedS
		for _, m := range perLayerMetrics {
			if !put(m.name, tr.Layers[m.name], m.unit) {
				fmt.Fprintf(os.Stderr, "perfbench: check failed: traced round measured no %s\n", m.name)
				res.Correct = false
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// perLayerMetrics are the traced round's layer metrics, with units.
var perLayerMetrics = []struct{ name, unit string }{
	{"foveation.partition_us", "us"},
	{"foveation.area_fraction_ns", "ns"},
	{"liwc.plan_us", "us"},
	{"pipeline.frame_us.local-only", "us"},
	{"pipeline.frame_us.static", "us"},
	{"pipeline.frame_us.ffr", "us"},
	{"pipeline.frame_us.dfr", "us"},
	{"pipeline.frame_us.qvr-sw", "us"},
	{"pipeline.frame_us.qvr", "us"},
	{"pipeline.setup_us", "us"},
	{"pipeline.setup_kb", "KB"},
	{"pipeline.frame_allocs", "count"},
	{"framesink.fold_ns", "ns"},
	{"framesink.summary_us", "us"},
	{"fleet.run_ms", "ms"},
	{"fleet.summarize_ms", "ms"},
	{"fleet.parallelism", "s/s"},
	{"fleet.mint_us", "us"},
	{"surrogate.session_us", "us"},
	{"surrogate.calibrate_ms", "ms"},
	{"fidelity.exact_sessions", "count"},
	{"edge.place_ms", "ms"},
	{"autoscale.observe_us", "us"},
	{"scenario.parse_ms", "ms"},
	{"scenario.phase_self_ms", "ms"},
	{"trace.explained", "ratio"},
	{"trace.overhead_s", "s"},
}
