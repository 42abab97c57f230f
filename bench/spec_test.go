package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMeetsTheContract checks the limits the driver refuses a
// BENCHMARK.json over, and that the file and the program name the same
// workloads.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	for _, arg := range spec.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}

	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not 1 to 64 letters, digits, _ . -", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	implemented := map[string]bool{kvloadCtl: true}
	for _, w := range simWorkloads {
		implemented[w.name] = true
	}
	for _, w := range sockWorkloads {
		implemented[w.name] = true
		if w.conns > 2 {
			t.Errorf("%s uses %d connections, more than the 2 CPUs the benchmark assumes", w.name, w.conns)
		}
	}
	for _, w := range spec.Workloads {
		use("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !implemented[w.Name] {
			t.Errorf("workload %s is named in BENCHMARK.json but not implemented", w.Name)
		}
		delete(implemented, w.Name)
	}
	for name := range implemented {
		t.Errorf("workload %s is implemented but not named in BENCHMARK.json", name)
	}

	setup := false
	for _, m := range spec.EndToEnd {
		use("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s and better lower")
	}
	for _, m := range spec.PerLayer {
		use("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

func TestUndeclaredMetricsAreReported(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricID{{Name: "req_per_s"}},
		PerLayer: []metricID{{Name: "sim.ns_per_event"}},
	}
	got := spec.undeclared(metrics{"req_per_s": 1, "typo_per_s": 1}, metrics{"sim.ns_per_event": 1, "sim.extra": 1})
	if len(got) != 2 || got[0] != "typo_per_s" || got[1] != "sim.extra" {
		t.Errorf("undeclared = %v, want [typo_per_s sim.extra]", got)
	}
	layer := metrics{}
	spec.fillLayer(layer)
	if v, ok := layer["sim.ns_per_event"]; !ok || v != 0 {
		t.Errorf("fillLayer left %v", layer)
	}
}
