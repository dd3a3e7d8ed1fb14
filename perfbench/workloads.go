package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"qvr/internal/experiments"
	"qvr/internal/fleet"
	"qvr/internal/foveation"
	"qvr/internal/motion"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
	"qvr/internal/scenario"
	"qvr/internal/scene"
)

//go:embed scenarios/*.scn
var scenarioFiles embed.FS

// workloadNames lists the workloads the benchmark can run. BENCHMARK.json
// names the ones a benchmark run uses; lean-surrogate is left out of it
// while its surrogate is refuted on some seeds (see README.md).
var workloadNames = []string{"paper-eval", "churn-grid", "lean-surrogate"}

// paperDesigns are Fig. 12's designs, in the order experiments.Fig12
// runs them for each app.
var paperDesigns = []pipeline.Design{
	pipeline.LocalOnly, pipeline.StaticCollab, pipeline.FFR,
	pipeline.DFR, pipeline.QVRSoftware, pipeline.QVR,
}

// instance is one workload's inputs, made from the seed, and the state
// its timed call leaves behind.
type instance interface {
	// run is the timed call into the program's public entry point.
	run() error
	// account returns the session-windows attempted and failed.
	account() (attempted, failed int)
	// declared is the session-windows a round declares, made from the
	// inputs alone: what a round that crashes attempted and failed.
	declared() int
	// check verifies the outputs against references computed apart
	// from the program, returning one message per failed check.
	check() []string
	// report is the deterministic result, byte-compared across rounds,
	// worker counts and tracing.
	report() ([]byte, error)
}

// newInstance builds a workload's inputs from the seed. workers > 0
// overrides the workload's worker count (the determinism check).
func newInstance(name string, seed int64, workers int) (instance, error) {
	switch name {
	case "paper-eval":
		return &paperEval{opt: experiments.Options{Frames: 300, Warmup: 60, Seed: seed}}, nil
	case "churn-grid":
		return newScenarioRun("churn-grid", seed, pick(workers, 1))
	case "lean-surrogate":
		return newScenarioRun("lean-surrogate", seed, pick(workers, 2))
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func pick(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

// paperEval is the Fig. 12 sweep: 7 eval apps x 6 designs, 300
// measured + 60 warm-up frames each, single-threaded.
type paperEval struct {
	opt experiments.Options
	res experiments.Fig12Result
}

func (p *paperEval) run() error {
	p.res = experiments.Fig12(p.opt)
	return nil
}

func (p *paperEval) account() (int, int) { return p.declared(), 0 }

func (p *paperEval) declared() int { return len(scene.EvalApps) * len(paperDesigns) }

func (p *paperEval) report() ([]byte, error) { return json.Marshal(p.res) }

// check holds the method's defining property: Q-VR beats static
// collaborative rendering on every app and has the best average
// speed-up of the four designs.
func (p *paperEval) check() []string {
	var errs []string
	r := p.res
	if len(r.Rows) != len(scene.EvalApps) {
		errs = append(errs, fmt.Sprintf("fig12: %d rows, want %d", len(r.Rows), len(scene.EvalApps)))
	}
	for _, row := range r.Rows {
		if !(row.QVR > row.Static) {
			errs = append(errs, fmt.Sprintf("fig12 %s: Q-VR speed-up %.4f does not exceed static %.4f", row.App, row.QVR, row.Static))
		}
	}
	if !(r.AvgQVR > r.AvgStatic && r.AvgQVR > r.AvgFFR && r.AvgQVR > r.AvgDFR) {
		errs = append(errs, fmt.Sprintf("fig12: Q-VR average %.4f is not the highest (static %.4f, ffr %.4f, dfr %.4f)",
			r.AvgQVR, r.AvgStatic, r.AvgFFR, r.AvgDFR))
	}
	return append(errs, areaErrs(p.configs())...)
}

// configs are the sessions Fig. 12 runs, in its order.
func (p *paperEval) configs() []pipeline.Config {
	var cfgs []pipeline.Config
	for _, app := range scene.EvalApps {
		for _, d := range paperDesigns {
			cfg := pipeline.DefaultConfig(d, app)
			cfg.Frames, cfg.Warmup, cfg.Seed = p.opt.Frames, p.opt.Warmup, p.opt.Seed
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// scenarioRun is a scenario file from the benchmark directory run
// through scenario.Run with the counters on, as the scenario CLI runs
// it.
type scenarioRun struct {
	text string
	sc   scenario.Scenario
	opt  scenario.Options
	res  scenario.Result
	err  error
}

func newScenarioRun(name string, seed int64, workers int) (*scenarioRun, error) {
	text, err := scenarioFiles.ReadFile("scenarios/" + name + ".scn")
	if err != nil {
		return nil, err
	}
	sc, err := scenario.ParseString(string(text))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sc.Seed = seed
	return &scenarioRun{
		text: string(text),
		sc:   sc,
		opt:  scenario.Options{Workers: workers, Obs: obs.New()},
	}, nil
}

func (s *scenarioRun) run() error {
	s.res, s.err = scenario.Run(s.sc, s.opt)
	return s.err
}

func (s *scenarioRun) lean() bool { return s.sc.Fidelity != nil && s.sc.Fidelity.Lean }

// declared sums every phase's active population as the text declares
// it.
func (s *scenarioRun) declared() int {
	pops, _ := populationFromText(s.text)
	n := 0
	for _, p := range pops {
		n += p.Active
	}
	return n
}

// account counts session-windows: every phase's active population. A
// window fails when it is dropped, failed over to local-only, or
// served by a surrogate its exact sample refuted; a run that errors
// fails every window the text declares.
func (s *scenarioRun) account() (attempted, failed int) {
	if s.err != nil {
		n := s.declared()
		return n, n
	}
	for _, pr := range s.res.Phases {
		attempted += pr.Active
		sum := pr.Summary.Summary
		bad := sum.Dropped + sum.FailedOver
		if fr := pr.Fleet.Fidelity; fr != nil && obs.RefuteSurrogate(fr.Checks) != nil {
			bad = pr.Active
		}
		failed += min(bad, pr.Active)
	}
	return attempted, failed
}

func (s *scenarioRun) check() []string {
	if s.err != nil {
		return []string{fmt.Sprintf("%s: %v", s.sc.Name, s.err)}
	}
	var errs []string
	if _, err := obs.Refute(s.opt.Obs.Snapshot(), scenario.Expectations(s.res)); err != nil {
		errs = append(errs, fmt.Sprintf("%s: %v", s.sc.Name, err))
	}
	pops, err := populationFromText(s.text)
	if err != nil {
		errs = append(errs, fmt.Sprintf("%s: population from text: %v", s.sc.Name, err))
	}
	var got []phasePop
	for _, pr := range s.res.Phases {
		got = append(got, phasePop{Name: pr.Phase.Name, Active: pr.Active, Arrived: pr.Arrived, Departed: pr.Departed})
		if sum := pr.Summary.Summary; sum.Sessions+sum.Dropped != pr.Active {
			errs = append(errs, fmt.Sprintf("%s phase %s: %d sessions + %d dropped, %d active",
				s.sc.Name, pr.Phase.Name, sum.Sessions, sum.Dropped, pr.Active))
		}
	}
	if err == nil && !reflect.DeepEqual(got, pops) {
		errs = append(errs, fmt.Sprintf("%s: populations %v, the scenario text declares %v", s.sc.Name, got, pops))
	}
	if s.lean() {
		for _, pr := range s.res.Phases {
			fr := pr.Fleet.Fidelity
			switch {
			case fr == nil || fr.ExactSessions == 0:
				errs = append(errs, fmt.Sprintf("%s phase %s: no exact-DES sample", s.sc.Name, pr.Phase.Name))
			case obs.RefuteSurrogate(fr.Checks) != nil:
				errs = append(errs, fmt.Sprintf("%s phase %s: %v", s.sc.Name, pr.Phase.Name, obs.RefuteSurrogate(fr.Checks)))
			}
		}
		peak, declared := 0, 0
		for i, pr := range s.res.Phases {
			peak = max(peak, pr.Active)
			if i < len(pops) {
				declared = max(declared, pops[i].Active)
			}
		}
		if peak != declared {
			errs = append(errs, fmt.Sprintf("%s: peak population %d, declared %d", s.sc.Name, peak, declared))
		}
	}
	return append(errs, areaErrs(s.configs(64))...)
}

// configs returns up to n of the run's session configs, spread evenly
// over its phases: the configs the sessions actually ran, or for a
// lean run (which keeps none) the ones its minter produces.
func (s *scenarioRun) configs(n int) []pipeline.Config {
	if s.lean() {
		return s.mintedConfigs(n)
	}
	var all []fleet.SessionResult
	for _, pr := range s.res.Phases {
		all = append(all, pr.Fleet.Sessions...)
	}
	n = min(n, len(all))
	cfgs := make([]pipeline.Config, n)
	for i := range cfgs {
		cfgs[i] = all[i*len(all)/n].Config
	}
	return cfgs
}

// phaseSeedStride mirrors scenario.Run's per-phase seed shift,
// so minted configs match the sessions a lean phase runs.
const phaseSeedStride = 1_000_003

// mintedConfigs mints n configs spread over the lean run's peak phase
// the way scenario.Run does: the mix's minter, then the phase's seed
// shift.
func (s *scenarioRun) mintedConfigs(n int) []pipeline.Config {
	mix, ok := fleet.MixByName(s.sc.Mix)
	if !ok {
		return nil
	}
	mint, err := mix.Minter(s.sc.Design, s.sc.Frames, s.sc.Warmup, s.sc.Seed)
	if err != nil {
		return nil
	}
	pops, err := populationFromText(s.text)
	if err != nil || len(pops) == 0 {
		return nil
	}
	// A lean phase runs the global indices [lo, lo+active), lo being
	// every departure so far, its own included.
	peak, lo, peakLo := 0, 0, 0
	for i, p := range pops {
		lo += p.Departed
		if i == 0 || p.Active > pops[peak].Active {
			peak, peakLo = i, lo
		}
	}
	active := pops[peak].Active
	cfgs := make([]pipeline.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg := mint(peakLo + i*active/n).Config
		cfg.Seed += int64(peak+1) * phaseSeedStride
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// scenarioReport is the deterministic part of a scenario result: what
// the scenario CLI's JSON report carries plus the grid, autoscaler and
// counter books. Host artifacts (wall time, worker count) are left out.
type scenarioReport struct {
	Scenario string
	Seed     int64
	Phases   []phaseReport
	Rollup   fleet.Rollup
	Scale    *fleet.AutoscaleReport
	Counters []obs.Line
}

type phaseReport struct {
	Name                      string
	Active, Arrived, Departed int
	Summary                   fleet.Summary
	GPUSeconds                float64
	Grid                      *fleet.GridReport
	Fidelity                  *fleet.FidelityReport
	ScaleEvents               []fleet.ScaleEvent
}

func (s *scenarioRun) report() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	rep := scenarioReport{
		Scenario: s.sc.Name, Seed: s.sc.Seed,
		Rollup: s.res.Rollup, Scale: s.res.Autoscale,
		Counters: s.opt.Obs.Snapshot().Lines(),
	}
	for _, pr := range s.res.Phases {
		rep.Phases = append(rep.Phases, phaseReport{
			Name: pr.Phase.Name, Active: pr.Active, Arrived: pr.Arrived, Departed: pr.Departed,
			Summary: pr.Summary.Summary, GPUSeconds: pr.GPUSeconds,
			Grid: pr.Fleet.Contention.Grid, Fidelity: pr.Fleet.Fidelity, ScaleEvents: pr.ScaleEvents,
		})
	}
	return json.Marshal(rep)
}

// displayOf is the display a session of app renders to (the pipeline
// builds the same one from the app's resolution and the default FoV).
func displayOf(app scene.App) foveation.Display {
	return foveation.Display{
		Width: app.Width, Height: app.Height,
		FovH: foveation.DefaultDisplay.FovH, FovV: foveation.DefaultDisplay.FovV,
	}
}

// gazeTrace returns n gaze samples a session of cfg's motion profile
// and seed produces at the display rate.
func gazeTrace(cfg pipeline.Config, n int) []motion.Sample {
	g := motion.NewGenerator(cfg.Profile, cfg.Seed)
	out := make([]motion.Sample, n)
	for i := range out {
		out[i] = g.Advance(1 / pipeline.TargetFPS)
	}
	return out
}

// sweepPoints pairs each config's display and gaze trace with fovea
// radii swept over the controller's whole range [MinE1, MaxE1].
func sweepPoints(cfgs []pipeline.Config, perConfig int) []foveaPoint {
	var pts []foveaPoint
	golden := (math.Sqrt(5) - 1) / 2
	k := 0
	for _, cfg := range cfgs {
		disp := displayOf(cfg.App)
		for _, s := range gazeTrace(cfg, perConfig) {
			frac := math.Mod(float64(k)*golden, 1)
			k++
			pts = append(pts, foveaPoint{
				disp: disp,
				e1:   foveation.MinE1 + frac*(foveation.MaxE1-foveation.MinE1),
				gx:   s.Gaze.X, gy: s.Gaze.Y,
			})
		}
	}
	return pts
}

// areaErrs runs the closed-form area reference over the workload's
// displays and gazes.
func areaErrs(cfgs []pipeline.Config) []string {
	if _, err := checkAreas(sweepPoints(cfgs, 32)); err != nil {
		return []string{"area reference: " + err.Error()}
	}
	return nil
}
