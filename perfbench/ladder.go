package main

// The traced run's layer ladder. Every span here is recorded from the
// benchmark's side of a layer's public API: around calls the benchmark
// makes itself (replays and per-call timings on the workload's own
// inputs), or from the per-phase wall time the fleet engine already
// reports. Calls number in the thousands to millions, so each layer is
// aggregated to a count and a total instead of one span per call.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"qvr/internal/autoscale"
	"qvr/internal/edge"
	"qvr/internal/experiments"
	"qvr/internal/fleet"
	"qvr/internal/foveation"
	"qvr/internal/framesink"
	"qvr/internal/liwc"
	"qvr/internal/motion"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
	"qvr/internal/scenario"
	"qvr/internal/scene"
	"qvr/internal/surrogate"
)

// layers holds the per-layer metrics of one traced run, by name.
type layers map[string]float64

// minSpan is how long a per-call timing loop runs at least, so timer
// resolution and one-off cache misses stay below a percent.
const minSpan = 40 * time.Millisecond

// perCall times fn over the items 0..n-1, cycling until minSpan has
// passed, and returns the mean seconds per call.
func perCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return math.NaN()
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < minSpan {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return time.Since(start).Seconds() / float64(calls)
}

// spanSink wraps the StatsSink a fleet worker uses: it times the gaps
// between consecutive measured frames (the simulation of one frame,
// the sink excluded), notes when the first measured frame arrives and
// when the last one leaves, and keeps each record for the fold timing.
// Its buffers are sized up front, so it adds no allocation to the
// frame path it measures.
type spanSink struct {
	inner       framesink.StatsSink
	first, last time.Time
	gapSum      time.Duration
	gaps        int
	records     []pipeline.FrameRecord
}

func newSpanSink(frames int) *spanSink {
	s := &spanSink{records: make([]pipeline.FrameRecord, 0, frames)}
	s.inner.Reset(make([]float64, 0, frames))
	return s
}

func (s *spanSink) Observe(f pipeline.FrameRecord) {
	now := time.Now()
	if len(s.records) == 0 {
		s.first = now
	} else {
		s.gapSum += now.Sub(s.last)
		s.gaps++
	}
	s.inner.Observe(f)
	s.records = append(s.records, f)
	s.last = time.Now()
}

// replayStats aggregates replayed sessions per layer.
type replayStats struct {
	sessions          int
	setup             time.Duration
	setupBytes        uint64
	allocs, allocSpan uint64 // frame_allocs: allocations over frame gaps
	summary           time.Duration
	gap               map[pipeline.Design]time.Duration
	gaps              map[pipeline.Design]int
	// sim is the simulation time of whole sessions, the sink's own
	// calls excluded: from RunSink's start to the first measured frame
	// (warm-up included), the gaps, and from the last measured frame
	// to RunSink's return.
	sim     map[pipeline.Design]time.Duration
	runs    map[pipeline.Design]int
	records []pipeline.FrameRecord // sample for the fold timing
	points  []foveaPoint
}

func newReplayStats() *replayStats {
	return &replayStats{
		gap: map[pipeline.Design]time.Duration{}, gaps: map[pipeline.Design]int{},
		sim: map[pipeline.Design]time.Duration{}, runs: map[pipeline.Design]int{},
	}
}

// replay runs cfg through pipeline.NewSession and RunSink with a span
// sink and returns the session's summary and its whole cost: set-up,
// simulation and the summary; the folds are priced apart.
func (r *replayStats) replay(cfg pipeline.Config) (framesink.Summary, time.Duration) {
	var m0, m1 runtime.MemStats
	sink := newSpanSink(cfg.MeasuredFrames())
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sess := pipeline.NewSession(cfg)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	sess.RunSink(sink)
	t2 := time.Now()
	sum := sink.inner.Summary()
	t3 := time.Now()
	r.summary += t3.Sub(t2)
	sim := t2.Sub(t1)
	if len(sink.records) > 0 {
		sim = sink.first.Sub(t1) + sink.gapSum + t2.Sub(sink.last)
	}
	r.sim[cfg.Design] += sim
	r.runs[cfg.Design]++

	r.sessions++
	r.setup += t1.Sub(t0)
	r.setupBytes += m1.TotalAlloc - m0.TotalAlloc
	r.gap[cfg.Design] += sink.gapSum
	r.gaps[cfg.Design] += sink.gaps
	if len(r.records) < 4096 {
		r.records = append(r.records, sink.records...)
	}
	// Fovea points: the radii the controllers chose on this session,
	// at the gazes its motion trace produces.
	if len(r.points) < 4096 {
		trace := gazeTrace(cfg, len(sink.records))
		disp := displayOf(cfg.App)
		for i, rec := range sink.records {
			if rec.E1 > 0 {
				r.points = append(r.points, foveaPoint{disp: disp, e1: rec.E1, gx: trace[i].Gaze.X, gy: trace[i].Gaze.Y})
			}
		}
	}
	return sum, t1.Sub(t0) + sim + t3.Sub(t2)
}

// countAllocs replays cfg once more, untimed, reading the allocator's
// counters at the first and the last measured frame: the allocations
// of the frames in between, without the session's set-up and
// tear-down.
func (r *replayStats) countAllocs(cfg pipeline.Config) {
	sink := &allocSink{last: cfg.MeasuredFrames() - 1}
	pipeline.NewSession(cfg).RunSink(sink)
	if sink.last > 0 {
		r.allocs += sink.m1.Mallocs - sink.m0.Mallocs
		r.allocSpan += uint64(sink.last)
	}
}

type allocSink struct {
	n, last int
	m0, m1  runtime.MemStats
}

func (s *allocSink) Observe(pipeline.FrameRecord) {
	switch s.n {
	case 0:
		runtime.ReadMemStats(&s.m0)
	case s.last:
		runtime.ReadMemStats(&s.m1)
	}
	s.n++
}

// simUS is the mean simulation time per session of design d.
func (r *replayStats) simUS(d pipeline.Design) float64 {
	if r.runs[d] == 0 {
		return math.NaN()
	}
	return r.sim[d].Seconds() * 1e6 / float64(r.runs[d])
}

// frameUS is the mean simulation time per measured frame of design d.
func (r *replayStats) frameUS(d pipeline.Design) float64 {
	if r.gaps[d] == 0 {
		return math.NaN()
	}
	return r.gap[d].Seconds() * 1e6 / float64(r.gaps[d])
}

// record writes the pipeline, framesink, foveation and liwc layers.
func (r *replayStats) record(l layers, cfgs []pipeline.Config) {
	for _, d := range paperDesigns {
		l["pipeline.frame_us."+d.String()] = r.frameUS(d)
	}
	n := float64(r.sessions)
	l["pipeline.setup_us"] = r.setup.Seconds() * 1e6 / n
	l["pipeline.setup_kb"] = float64(r.setupBytes) / 1024 / n
	for _, cfg := range cfgs[:min(12, len(cfgs))] {
		r.countAllocs(cfg)
	}
	l["pipeline.frame_allocs"] = float64(r.allocs) / float64(r.allocSpan)
	l["framesink.summary_us"] = r.summary.Seconds() * 1e6 / n

	recs := r.records
	buf := make([]float64, 0, len(recs))
	var fold framesink.StatsSink
	l["framesink.fold_ns"] = 1e9 * perCall(1, func(int) {
		fold.Reset(buf[:0])
		for _, f := range recs {
			fold.Observe(f)
		}
	}) / float64(len(recs))

	pts := r.points
	l["foveation.area_fraction_ns"] = 1e9 * perCall(len(pts), func(i int) {
		p := pts[i]
		keep += p.disp.AreaFraction(p.e1, p.gx, p.gy)
	})
	parts := map[foveation.Display]*foveation.Partitioner{}
	for _, p := range pts {
		if parts[p.disp] == nil {
			parts[p.disp] = foveation.NewPartitioner(p.disp)
		}
	}
	l["foveation.partition_us"] = 1e6 * perCall(len(pts), func(i int) {
		p := pts[i]
		part, _ := parts[p.disp].Partition(foveation.ClampE1(p.e1), p.gx, p.gy)
		keep += part.FoveaAreaFraction
	})
	l["liwc.plan_us"] = planUS(cfgs)
}

// keep takes the results of timed calls, so the compiler cannot drop
// the calls.
var keep float64

// planGeom is the Geometry a pipeline session hands the LIWC: the
// foveation partitioner at the frame's gaze and gaze-region density.
type planGeom struct {
	part            *foveation.Partitioner
	gx, gy, density float64
}

func (g *planGeom) FoveaShare(e1 float64) float64 {
	return min(g.part.Display.AreaFraction(foveation.ClampE1(e1), g.gx, g.gy)*g.density, 1)
}

func (g *planGeom) PeripheryPixels(e1 float64) int {
	p, err := g.part.Partition(foveation.ClampE1(e1), g.gx, g.gy)
	if err != nil {
		return 0
	}
	return 2 * p.PeripheryPixels
}

// planUS times liwc.Controller.Plan on the workload's sessions: their
// LIWC configs, motion traces, scene statistics and network rates.
func planUS(cfgs []pipeline.Config) float64 {
	type call struct {
		ctrl  *liwc.Controller
		delta motion.Delta
		tris  int
		geom  *planGeom
		tput  float64
	}
	var calls []call
	for _, cfg := range cfgs {
		if len(calls) >= 2048 {
			break
		}
		lc := cfg.LIWC
		if lc.BudgetSeconds == 0 {
			lc = liwc.DefaultConfig()
		}
		ctrl := liwc.New(lc)
		part := foveation.NewPartitioner(displayOf(cfg.App))
		st := scene.NewState(cfg.App)
		trace := gazeTrace(cfg, 33)
		for i := 1; i < len(trace); i++ {
			fs := st.Frame(trace[i])
			calls = append(calls, call{
				ctrl: ctrl, delta: motion.Sub(trace[i-1], trace[i]), tris: fs.VisibleTriangles,
				geom: &planGeom{part: part, gx: trace[i].Gaze.X, gy: trace[i].Gaze.Y, density: fs.GazeDensity},
				tput: cfg.Network.BandwidthBps,
			})
		}
	}
	return 1e6 * perCall(len(calls), func(i int) {
		c := calls[i]
		c.ctrl.Plan(c.delta, c.tris, c.geom, c.tput)
	})
}

// surrogateLayer times the surrogate on cfgs the way the fleet uses
// it: calibrate on the first DefaultCalibration members of each class,
// then predict every session.
func surrogateLayer(l layers, cfgs []pipeline.Config) {
	m := surrogate.New()
	seen := map[pipeline.Config]int{}
	var calib []pipeline.Config
	for _, cfg := range cfgs {
		k := m.ClassOf(cfg)
		if seen[k] < fleet.DefaultCalibration {
			calib = append(calib, cfg)
		}
		seen[k]++
	}
	t := time.Now()
	m.Calibrate(calib)
	l["surrogate.calibrate_ms"] = time.Since(t).Seconds() * 1e3
	buf := make([]float64, 0, 1024)
	l["surrogate.session_us"] = 1e6 * perCall(len(cfgs), func(i int) {
		_, buf = m.RunSession(cfgs[i], buf[:0])
	})
}

// mintLayer times Mix.Minter's per-index spec minting.
func mintLayer(l layers, mixName string, design pipeline.Design, frames, warmup int, seed int64) error {
	mix, ok := fleet.MixByName(mixName)
	if !ok {
		return fmt.Errorf("unknown mix %q", mixName)
	}
	mint, err := mix.Minter(design, frames, warmup, seed)
	if err != nil {
		return err
	}
	l["fleet.mint_us"] = 1e6 * perCall(4096, func(i int) { keep += float64(mint(i).Config.Seed) })
	return nil
}

// phaseLayers times the scenario and fleet layers of a finished
// scenario run whose scenario.Run took wall.
func phaseLayers(l layers, s *scenarioRun, wall time.Duration) {
	phases := s.res.Phases
	n := float64(len(phases))
	fleetWall, summarize := 0.0, time.Duration(0)
	for _, pr := range phases {
		fleetWall += pr.Fleet.WallSeconds
		const reps = 3
		t := time.Now()
		for i := 0; i < reps; i++ {
			pr.Fleet.Summarize()
		}
		summarize += time.Since(t) / reps
	}
	l["fleet.run_ms"] = fleetWall * 1e3 / n
	l["fleet.summarize_ms"] = summarize.Seconds() * 1e3 / n
	l["scenario.phase_self_ms"] = (wall.Seconds() - fleetWall) * 1e3 / n
	l["scenario.parse_ms"] = 1e3 * perCall(1, func(int) {
		if _, err := scenario.ParseString(s.text); err != nil {
			panic(err) // the same text parsed in set-up
		}
	})
}

// gridLayers replays a finished grid scenario's placement and
// autoscaling through a fresh Grid and Controller in scenario.Run's
// order, timing each call. The replay must reproduce the run's
// placement reports and scale events.
func gridLayers(l layers, s *scenarioRun) []string {
	var errs []string
	phases := s.res.Phases
	n := float64(len(phases))
	policy, _ := edge.PolicyByName(s.sc.Placement)
	grid, err := edge.NewGrid(s.sc.Topology, policy)
	if err != nil {
		return []string{err.Error()}
	}
	if s.sc.MigrationPenaltyMs >= 0 {
		grid.HandoffSeconds = s.sc.MigrationPenaltyMs / 1000
	}
	var ctrl *autoscale.Controller
	if s.sc.Autoscale != nil {
		cfg := *s.sc.Autoscale
		cfg.SLO = *s.sc.SLO
		if ctrl, err = autoscale.New(cfg, s.sc.Topology); err != nil {
			return []string{err.Error()}
		}
	}
	var place, observe time.Duration
	now := 0.0
	for _, pr := range phases {
		if ctrl != nil {
			if err := grid.SetBaseGPUs(ctrl.BaseGPUs(now)); err != nil {
				return append(errs, err.Error())
			}
		}
		if err := grid.BeginPhase(pr.Phase.ClusterGPUs, pr.Phase.ClusterDerate); err != nil {
			return append(errs, err.Error())
		}
		specs := make([]fleet.SessionSpec, len(pr.Fleet.Sessions))
		for i, sr := range pr.Fleet.Sessions {
			specs[i] = sr.Spec
		}
		t := time.Now()
		_, rep := grid.Place(specs)
		place += time.Since(t)
		if want := pr.Fleet.Contention.Grid; want == nil || !reflect.DeepEqual(rep, *want) {
			errs = append(errs, fmt.Sprintf("phase %s: replayed placement differs from the run's", pr.Phase.Name))
		}
		if ctrl != nil {
			t = time.Now()
			events := ctrl.Observe(fleet.AutoscaleObservation{
				StartSeconds: now, DurationSeconds: pr.Phase.DurationSeconds,
				Summary: pr.Summary.Summary, Clusters: rep.Clusters,
			})
			observe += time.Since(t)
			if len(events) != len(pr.ScaleEvents) || (len(events) > 0 && !reflect.DeepEqual(events, pr.ScaleEvents)) {
				errs = append(errs, fmt.Sprintf("phase %s: replayed scale events differ from the run's", pr.Phase.Name))
			}
		}
		now += pr.Phase.DurationSeconds
	}
	l["edge.place_ms"] = place.Seconds() * 1e3 / n
	l["autoscale.observe_us"] = observe.Seconds() * 1e6 / n
	return errs
}

// traced is one workload's traced run.
type traced struct {
	layers layers
	report []byte
	errs   []string
	// busy is Σ(layer count × per-call time), seconds, for the
	// reconciliation against untraced, the mean wall time of two
	// untraced calls of the workload made in the same process, one
	// before the ladder and one after it: the host's speed drifts over
	// seconds, so the wall time the ladder is priced against brackets
	// it.
	busy     float64
	untraced time.Duration
}

// bracket times a second untraced call on a copy of inst, after the
// ladder, folds its wall time into out.untraced and checks that its
// report matches the traced one.
func (out *traced) bracket(inst instance) {
	wall, _, err := timedRun(inst)
	if err != nil {
		out.errs = append(out.errs, err.Error())
		return
	}
	out.untraced = (out.untraced + wall) / 2
	if rep, _ := inst.report(); string(rep) != string(out.report) {
		out.errs = append(out.errs, "a second untraced call's report differs from the first")
	}
}

// timedRun runs inst's timed call and returns its wall time and the
// process CPU seconds per wall second over it.
func timedRun(inst instance) (time.Duration, float64, error) {
	c0 := cpuSeconds()
	t := time.Now()
	err := inst.run()
	wall := time.Since(t)
	return wall, (cpuSeconds() - c0) / wall.Seconds(), err
}

// miniChurn runs the churn-grid scenario at a tenth of its population:
// the probe for the grid and autoscale layers (and, with phases set,
// the scenario and fleet layers) on a workload that has none.
func miniChurn(l layers, seed int64, phases bool) []string {
	s, err := newScenarioRun("churn-grid", seed, 1)
	if err != nil {
		return []string{err.Error()}
	}
	for i := range s.sc.Phases {
		if s.sc.Phases[i].Sessions > 0 {
			s.sc.Phases[i].Sessions /= 10
		}
	}
	wall, _, err := timedRun(s)
	if err != nil {
		return []string{err.Error()}
	}
	if phases {
		phaseLayers(l, s, wall)
	}
	return gridLayers(l, s)
}

// clip shortens configs to the scenario workloads' 4 + 2 frames, for
// layers probed on the paper-eval population.
func clip(cfgs []pipeline.Config) []pipeline.Config {
	out := append([]pipeline.Config(nil), cfgs...)
	for i := range out {
		out[i].Frames, out[i].Warmup = 4, 2
	}
	return out
}

// tracePaperEval times one untraced Fig12 call, then replays Fig. 12's
// 42 sessions through span sinks and rebuilds the figure from the
// replayed summaries, which must match the untraced call's report byte
// for byte.
func tracePaperEval(p *paperEval, seed int64) traced {
	out := traced{layers: layers{}}
	l := out.layers
	var err error
	if out.untraced, _, err = timedRun(p); err != nil {
		out.errs = append(out.errs, err.Error())
	}
	want, _ := p.report()
	cfgs := p.configs()
	r := newReplayStats()
	sums := make([]framesink.Summary, len(cfgs))
	c0 := cpuSeconds()
	t := time.Now()
	for i, cfg := range cfgs {
		sums[i], _ = r.replay(cfg)
	}
	l["fleet.parallelism"] = (cpuSeconds() - c0) / time.Since(t).Seconds()
	p.res = fig12From(sums)
	rep, err := p.report()
	if err != nil {
		out.errs = append(out.errs, err.Error())
	}
	if string(rep) != string(want) {
		out.errs = append(out.errs, "fig12 rebuilt from the replayed sessions differs from the untraced call's")
	}
	out.report = rep
	r.record(l, cfgs)
	surrogateLayer(l, clip(cfgs))
	if err := mintLayer(l, "mixed", pipeline.QVR, 4, 2, seed); err != nil {
		out.errs = append(out.errs, err.Error())
	}
	out.errs = append(out.errs, miniChurn(l, seed, true)...)
	l["fidelity.exact_sessions"] = 0

	apps := float64(len(scene.EvalApps))
	for _, d := range paperDesigns {
		out.busy += apps * r.simUS(d) / 1e6
	}
	sessions := float64(len(cfgs))
	out.busy += sessions * (l["pipeline.setup_us"] + l["framesink.summary_us"]) / 1e6
	out.busy += sessions * float64(p.opt.Frames) * l["framesink.fold_ns"] / 1e9
	out.bracket(&paperEval{opt: p.opt})
	return out
}

// fig12From rebuilds experiments.Fig12's result from per-session
// summaries (apps outer, designs in paperDesigns order) with the same
// arithmetic in the same order.
func fig12From(sums []framesink.Summary) experiments.Fig12Result {
	var out experiments.Fig12Result
	var qvrFPS, staticFPS, swFPS float64
	for a, app := range scene.EvalApps {
		s := sums[a*len(paperDesigns):]
		local, static, ffr, dfr, sw, qvr := s[0], s[1], s[2], s[3], s[4], s[5]
		base := local.AvgMTPSeconds
		row := experiments.Fig12Row{
			App:    app.Name,
			Static: base / static.AvgMTPSeconds,
			FFR:    base / ffr.AvgMTPSeconds,
			DFR:    base / dfr.AvgMTPSeconds,
			QVR:    base / qvr.AvgMTPSeconds,
			SWFPS:  sw.FPS / local.FPS,
			QVRFPS: qvr.FPS / local.FPS,
		}
		out.Rows = append(out.Rows, row)
		out.AvgQVR += row.QVR
		out.AvgStatic += row.Static
		out.AvgFFR += row.FFR
		out.AvgDFR += row.DFR
		if row.QVR > out.MaxQVR {
			out.MaxQVR = row.QVR
		}
		qvrFPS += qvr.FPS
		staticFPS += static.FPS
		swFPS += sw.FPS
	}
	n := float64(len(out.Rows))
	out.AvgQVR /= n
	out.AvgStatic /= n
	out.AvgFFR /= n
	out.AvgDFR /= n
	out.QVROverStaticFPS = qvrFPS / staticFPS
	out.QVROverSWFPS = qvrFPS / swFPS
	return out
}

// replaySample is how many of a scenario run's sessions the traced run
// replays.
const replaySample = 240

// traceScenario runs the scenario as the untraced rounds do, then
// replays a sample of its sessions and its placement and autoscaling.
func traceScenario(s *scenarioRun) traced {
	out := traced{layers: layers{}}
	l := out.layers
	wall, par, err := timedRun(s)
	out.untraced = wall
	if err != nil {
		out.errs = append(out.errs, err.Error())
		return out
	}
	l["fleet.parallelism"] = par
	rep, err := s.report()
	if err != nil {
		out.errs = append(out.errs, err.Error())
	}
	out.report = rep
	snap := s.opt.Obs.Snapshot()
	l["fidelity.exact_sessions"] = float64(snap.Counter(obs.CFidelityExact) + snap.Counter(obs.CSurrogateCalibrated))

	r := newReplayStats()
	var cfgs []pipeline.Config
	// own is the mean cost of one of the run's sessions (set-up,
	// simulation, summary) over the replayed sample.
	var own time.Duration
	if s.lean() {
		cfgs = s.mintedConfigs(replaySample)
		for _, cfg := range cfgs {
			_, c := r.replay(cfg)
			own += c
		}
	} else {
		// Replays of the run's own sessions must reproduce their
		// summaries exactly.
		var all []fleet.SessionResult
		for _, pr := range s.res.Phases {
			all = append(all, pr.Fleet.Sessions...)
		}
		k := min(replaySample, len(all))
		mismatched := 0
		for i := 0; i < k; i++ {
			sr := all[i*len(all)/k]
			cfgs = append(cfgs, sr.Config)
			sum, c := r.replay(sr.Config)
			own += c
			if !reflect.DeepEqual(sum, sr.Stats) {
				mismatched++
			}
		}
		if mismatched > 0 {
			out.errs = append(out.errs, fmt.Sprintf("%d of %d replayed sessions differ from the run's summaries", mismatched, k))
		}
	}
	// Designs the scenario does not run are timed on the same sessions
	// with the design swapped.
	for _, d := range paperDesigns {
		if r.gaps[d] > 0 {
			continue
		}
		for _, cfg := range cfgs[:min(12, len(cfgs))] {
			cfg.Design = d
			r.replay(cfg)
		}
	}
	r.record(l, cfgs)
	surrogateLayer(l, cfgs)
	if err := mintLayer(l, s.sc.Mix, s.sc.Design, s.sc.Frames, s.sc.Warmup, s.sc.Seed); err != nil {
		out.errs = append(out.errs, err.Error())
	}
	phaseLayers(l, s, wall)
	if s.lean() {
		out.errs = append(out.errs, miniChurn(l, s.sc.Seed, false)...)
	} else {
		out.errs = append(out.errs, gridLayers(l, s)...)
	}

	// Reconciliation: count each layer's calls from the program's own
	// counters and the population, and price them at the per-call
	// times above.
	phases := float64(len(s.res.Phases))
	session := own.Seconds()/float64(len(cfgs)) + float64(s.sc.Frames)*l["framesink.fold_ns"]/1e9
	exact := float64(snap.Counter(obs.CSessionsSimulated))
	if s.lean() {
		// Calibration sessions are priced inside calibrate_ms.
		exact = float64(snap.Counter(obs.CFidelityExact))
	}
	out.busy = exact*session +
		float64(snap.Counter(obs.CSessionsSurrogate))*l["surrogate.session_us"]/1e6 +
		phases*l["fleet.summarize_ms"]/1e3
	windows := 0.0
	arrived := 0.0
	for _, pr := range s.res.Phases {
		windows += float64(pr.Active)
		arrived += float64(pr.Arrived)
	}
	if s.lean() {
		// Every index is minted twice: once to classify it for the
		// fidelity split, once to run it.
		out.busy += 2*windows*l["fleet.mint_us"]/1e6 + phases*l["surrogate.calibrate_ms"]/1e3
	} else {
		out.busy += arrived*l["fleet.mint_us"]/1e6 +
			phases*(l["edge.place_ms"]/1e3+l["autoscale.observe_us"]/1e6)
	}
	if s.opt.Workers > 1 {
		// The pool shares the work across cores: the ladder's busy time
		// spreads over the run's measured parallelism.
		out.busy /= par
	}
	again := *s
	again.opt.Obs = obs.New()
	out.bracket(&again)
	return out
}
