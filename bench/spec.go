package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the one list of workloads, metric names,
// units and bounds. The program prints exactly the metrics it names.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadID `json:"workloads"`
	EndToEnd   []metricID   `json:"end_to_end"`
	PerLayer   []metricID   `json:"per_layer"`
}

type workloadID struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricID struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricID) lowerIsBetter() bool { return m.Better != "higher" }

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json names no workloads or no metrics")
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// fillLayer gives every per-layer metric a finite value: a layer that is not
// on a workload's path reads 0 there (README.md lists which those are).
func (s *benchSpec) fillLayer(layer metrics) {
	for _, m := range s.PerLayer {
		if v, ok := layer[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			layer[m.Name] = 0
		}
	}
}

// undeclared lists metrics a run produced that BENCHMARK.json does not name.
func (s *benchSpec) undeclared(e2e, layer metrics) []string {
	known := map[string]bool{}
	for _, m := range s.EndToEnd {
		known[m.Name] = true
	}
	for _, m := range s.PerLayer {
		known[m.Name] = true
	}
	var extra []string
	for _, set := range []metrics{e2e, layer} {
		for _, n := range sortedNames(set) {
			if !known[n] {
				extra = append(extra, n)
			}
		}
	}
	return extra
}
