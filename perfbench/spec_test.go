package main

import (
	"regexp"
	"testing"
)

// TestBenchmarkJSONForm checks BENCHMARK.json at the repository root:
// every metric has a name, a unit and a direction, names use only
// [A-Za-z0-9_.-] and are used once, every end-to-end metric has a
// bound, and the per-layer list is exactly what a traced run prints.
func TestBenchmarkJSONForm(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, m specMetric) {
		if !name.MatchString(m.Name) {
			t.Errorf("%s metric name %q", kind, m.Name)
		}
		if seen[m.Name] {
			t.Errorf("%s metric %q named twice", kind, m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s metric %q: unit %q", kind, m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s metric %q: better %q", kind, m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		check("end-to-end", m)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v, want one in (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check("per-layer", m)
		if m.Bound != nil {
			t.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
	var setup bool
	for _, m := range spec.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}

	printed := map[string]string{}
	for _, m := range perLayerMetrics {
		printed[m.name] = m.unit
	}
	for _, m := range spec.PerLayer {
		if u, ok := printed[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %q (%s): the traced run prints it as %q", m.Name, m.Unit, u)
		}
		delete(printed, m.Name)
	}
	for n := range printed {
		t.Errorf("the traced run prints %q, which BENCHMARK.json does not list", n)
	}

	runnable := map[string]bool{}
	for _, w := range workloadNames {
		runnable[w] = true
	}
	for _, w := range spec.Workloads {
		if !runnable[w.Name] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q (why %q)", w.Name, w.Why)
		}
	}
}
